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


# The baseline tracks the first N_FEATURES fields: window_ticks is
# configuration, not signal.
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
        self.tallies: deque = deque()  # per-tick tallies, oldest first
        # the window's tally; features() refreshes its load_sum
        self.totals = list(_EMPTY_TALLY)

    def push(self, events) -> None:
        """Tally one tick's events and slide the window over them."""
        tallied = _kernels.tally(events)
        tallies = self.tallies
        tallies.append(tallied)
        dropped = tallies.popleft() if len(tallies) > self.window else _EMPTY_TALLY
        totals = self.totals
        for k in _COUNT_FIELDS:
            totals[k] += tallied[k] - dropped[k]

    def features(self) -> FeatureVector:
        load_sum = 0.0
        for tallied in self.tallies:
            load_sum += tallied[_LOAD_SUM]
        self.totals[_LOAD_SUM] = load_sum
        return feature_vector(self.totals, self.window)


class Baseline(NamedTuple):
    """Running mean / M2 aggregates per feature (Welford update)."""

    means: tuple = (0.0,) * N_FEATURES
    m2: tuple = (0.0,) * N_FEATURES
    sample_count: int = 0


class Moments:
    """The running means, M2 and sample count of a Baseline, held in
    lists so that a run updates one object in place each tick."""

    __slots__ = ("means", "m2", "sample_count")

    def __init__(self, baseline: Baseline = Baseline()):
        self.means = list(baseline.means)
        self.m2 = list(baseline.m2)
        self.sample_count = baseline.sample_count

    def score_and_update(self, fv: FeatureVector) -> float:
        """One pass over the moments: the anomaly score of fv against
        the moments so far (0.0 below two samples), then fv folded in.

        The score is the max per-feature |z| with a variance floor, 0
        when fv sits on the baseline mean; the update is Welford's
        numerically stable single-pass moment update.
        """
        count = self.sample_count
        n = count + 1
        scored = count >= 2
        sqrt = math.sqrt
        means = self.means
        m2 = self.m2
        score = 0.0
        for k in range(N_FEATURES):
            x = fv[k]
            mean = means[k]
            m = m2[k]
            delta = x - mean
            if scored:
                z = abs(delta) / sqrt(m / count + VARIANCE_FLOOR)
                if z > score:
                    score = z
            mean = mean + delta / n
            m2[k] = m + delta * (x - mean)
            means[k] = mean
        self.sample_count = n
        return score


def score_and_update(baseline: Baseline, fv: FeatureVector):
    """(the anomaly score of fv against `baseline`, 0.0 below two
    samples; `baseline` updated with fv), by Moments.score_and_update on
    a copy."""
    moments = Moments(baseline)
    score = moments.score_and_update(fv)
    return score, Baseline(tuple(moments.means), tuple(moments.m2),
                           moments.sample_count)


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
