"""Percept construction: the feature vector and a z-score anomaly
detector over running baseline moments.

Nothing in this module reads truth_malicious; the agent's view of the
world is built exclusively from observable event fields.
"""

from __future__ import annotations

import math
from collections import deque
from typing import NamedTuple

from . import _kernels
from .errors import InsufficientBaseline

VARIANCE_FLOOR = 1e-6


class FeatureVector(NamedTuple):
    ids_alert_count: int = 0
    ids_severity_sum: int = 0
    antimalware_alerts: int = 0
    unauthorized_accesses: int = 0
    honey_touches: int = 0
    dummy_process_alerts: int = 0
    integrity_violations: int = 0
    system_load: float = 0.0
    window_ticks: int = 1

    def as_moments_array(self) -> tuple:
        """The numeric features tracked by the baseline (window_ticks
        is configuration, not signal)."""
        return self[:8]


N_FEATURES = 8


def feature_vector(tallied, window: int) -> FeatureVector:
    """The percept of a window whose events tally to `tallied`, a
    9-tuple in the layout of _kernels.tally.

    honey_touches counts honeypot touches plus decoy-file accesses;
    system_load is the mean of the load samples seen (0 if none).
    """
    (ids_count, sev_sum, antimalware, unauthorized, honey, dummy_proc,
     integrity, load_sum, load_count) = tallied
    load = load_sum / load_count if load_count else 0.0
    return FeatureVector(ids_count, sev_sum, antimalware, unauthorized,
                         honey, dummy_proc, integrity, load, window)


def collect(events, window: int) -> FeatureVector:
    """Tally a window of events into the agent's percept."""
    return feature_vector(_kernels.tally(events), window)


# Positions of a tally that are integer counts; 7 is the float load_sum.
_COUNT_FIELDS = (0, 1, 2, 3, 4, 5, 6, 8)
_LOAD_SUM = 7
_EMPTY_TALLY = (0, 0, 0, 0, 0, 0, 0, 0.0, 0)


class WindowTally:
    """The percept over the last `window` ticks, kept from one tally per
    tick instead of re-tallying the whole window every tick.

    Counts are running totals: push() adds the newest tick's tally and
    subtracts the one that leaves the window. The load sum is re-added
    left to right over the held ticks, so features() returns the float
    collect() computes over the same events, bit for bit, as long as
    each tick holds at most one load sample (CoreWorld.step emits one).
    """

    def __init__(self, window: int):
        self.window = window
        self.ticks: deque = deque()  # per-tick tallies, oldest first
        # the window's tally; features() refreshes its load_sum
        self.totals = list(_EMPTY_TALLY)

    def push(self, events) -> None:
        """Tally one tick's events and slide the window over them."""
        tallied = _kernels.tally(events)
        ticks = self.ticks
        ticks.append(tallied)
        dropped = ticks.popleft() if len(ticks) > self.window else _EMPTY_TALLY
        totals = self.totals
        for k in _COUNT_FIELDS:
            totals[k] += tallied[k] - dropped[k]

    def features(self) -> FeatureVector:
        load_sum = 0.0
        for tallied in self.ticks:
            load_sum += tallied[_LOAD_SUM]
        self.totals[_LOAD_SUM] = load_sum
        return feature_vector(self.totals, self.window)


class Baseline(NamedTuple):
    """Running mean / M2 aggregates per feature (Welford update)."""

    means: tuple = (0.0,) * N_FEATURES
    m2: tuple = (0.0,) * N_FEATURES
    sample_count: int = 0

    def variances(self) -> tuple:
        if self.sample_count == 0:
            return (0.0,) * N_FEATURES
        return tuple(v / self.sample_count for v in self.m2)


def score_and_update(baseline: Baseline, fv: FeatureVector):
    """One pass over the moments: (the anomaly score of fv against
    `baseline`, 0.0 below two samples; `baseline` updated with fv).

    The score is the max per-feature |z| with a variance floor, 0 when
    fv sits on the baseline mean; the update is Welford's numerically
    stable single-pass moment update.
    """
    count = baseline.sample_count
    n = count + 1
    scored = count >= 2
    sqrt = math.sqrt
    score = 0.0
    means = []
    m2 = []
    for mean, m, x in zip(baseline.means, baseline.m2, fv.as_moments_array()):
        delta = x - mean
        if scored:
            z = abs(delta) / sqrt(m / count + VARIANCE_FLOOR)
            if z > score:
                score = z
        mean = mean + delta / n
        m2.append(m + delta * (x - mean))
        means.append(mean)
    return score, Baseline(tuple(means), tuple(m2), n)


def update_baseline(baseline: Baseline, fv: FeatureVector) -> Baseline:
    """Numerically stable single-pass moment update."""
    return score_and_update(baseline, fv)[1]


def anomaly_score(baseline: Baseline, fv: FeatureVector) -> float:
    """Max per-feature |z| with a variance floor; 0 when fv sits on
    the baseline mean."""
    if baseline.sample_count < 2:
        raise InsufficientBaseline(
            f"need at least 2 baseline samples, have {baseline.sample_count}")
    return score_and_update(baseline, fv)[0]
