import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_event
from honeysim.errors import InsufficientBaseline
from honeysim.sensing import (N_FEATURES, Baseline, FeatureVector,
                              WindowTally, anomaly_score, collect,
                              score_and_update, update_baseline)
from honeysim.world import EventKind, WorldEvent
from oracles import (baseline_variances, tally_oracle, two_pass_moments,
                     welford_reference)


def ev(kind, severity=0, load=0.0, node="n0", tick=0, truth=False):
    return WorldEvent(tick, kind, node, severity, load, truth)


def test_collect_empty_window():
    fv = collect([], window=20)
    assert fv == FeatureVector(0, 0, 0, 0, 0, 0, 0, 0.0, 20)


def test_collect_direct_counts():
    events = [ev(EventKind.IDS_ALERT, 3), ev(EventKind.IDS_ALERT, 2),
              ev(EventKind.HONEY_TOUCH)]
    fv = collect(events, window=10)
    assert fv.ids_alert_count == 2
    assert fv.ids_severity_sum == 5
    assert fv.honey_touches == 1


def test_collect_matches_tally_oracle(rng):
    events = [random_event(rng) for _ in range(1000)]
    fv = collect(events, window=20)
    expected = tally_oracle(events)
    for name, value in expected.items():
        got = getattr(fv, name)
        if name == "system_load":
            assert math.isclose(got, value, rel_tol=1e-12, abs_tol=1e-12)
        else:
            assert got == value


def test_collect_additive_over_disjoint_ranges(rng):
    a = [random_event(rng, tick=t) for t in range(10) for _ in range(rng.randint(0, 3))]
    b = [random_event(rng, tick=t) for t in range(10, 20) for _ in range(rng.randint(0, 3))]
    fa, fb, fab = collect(a, 10), collect(b, 10), collect(a + b, 20)
    for i in range(7):  # count fields add exactly
        assert fab[i] == fa[i] + fb[i]
    na = sum(1 for e in a if e.kind is EventKind.LOAD_SAMPLE)
    nb = sum(1 for e in b if e.kind is EventKind.LOAD_SAMPLE)
    if na + nb:
        weighted = (fa.system_load * na + fb.system_load * nb) / (na + nb)
        assert math.isclose(fab.system_load, weighted, rel_tol=1e-9)


def test_window_tally_equals_collect_over_window(rng):
    # One load sample at most per tick, as CoreWorld.step emits; any
    # other kind, operator replies included, any number of times.
    others = [k for k in EventKind if k is not EventKind.LOAD_SAMPLE]
    window = 7
    tally = WindowTally(window)
    ticks = []
    for t in range(200):
        events = [ev(rng.choice(others), rng.randint(1, 5), node=f"n{rng.randint(0, 3)}",
                     tick=t) for _ in range(rng.randint(0, 4))]
        if rng.random() < 0.8:
            events.insert(rng.randint(0, len(events)),
                          ev(EventKind.LOAD_SAMPLE, load=rng.random(), tick=t))
        tally.push(events)
        ticks.append(events)
        rebuilt = collect([e for tick in ticks[-window:] for e in tick], window)
        got = tally.features()
        assert got == rebuilt
        assert repr(got.system_load) == repr(rebuilt.system_load)


def fv_from(values):
    return FeatureVector(*values, window_ticks=20)


def test_baseline_first_update():
    fv = fv_from((1, 5, 0, 2, 0, 0, 1, 0.5))
    b = update_baseline(Baseline(), fv)
    assert b.sample_count == 1
    assert b.means == tuple(float(x) for x in fv[:N_FEATURES])
    assert all(v == 0.0 for v in baseline_variances(b))


def test_baseline_identical_updates_zero_variance():
    fv = fv_from((2, 7, 1, 0, 3, 0, 0, 0.25))
    b = update_baseline(update_baseline(Baseline(), fv), fv)
    assert b.sample_count == 2
    assert all(v == 0.0 for v in baseline_variances(b))


def test_baseline_matches_two_pass_oracle(rng):
    vectors = [tuple(rng.uniform(0, 50) for _ in range(8)) for _ in range(500)]
    b = Baseline()
    for v in vectors:
        b = update_baseline(b, fv_from(v))
    means, variances = two_pass_moments(vectors)
    for got, want in zip(b.means, means):
        assert math.isclose(got, want, rel_tol=1e-9)
    for got, want in zip(baseline_variances(b), variances):
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9)


def test_anomaly_zero_at_mean(rng):
    b = Baseline()
    vectors = [tuple(rng.uniform(0, 10) for _ in range(8)) for _ in range(50)]
    for v in vectors:
        b = update_baseline(b, fv_from(v))
    assert anomaly_score(b, fv_from(b.means)) == 0.0


def test_anomaly_ten_sigma_deviation():
    rng = random.Random(5)
    b = Baseline()
    # one feature with unit-ish spread, others constant
    values = [rng.gauss(10, 1) for _ in range(400)]
    for x in values:
        b = update_baseline(b, fv_from((x, 3, 3, 3, 3, 3, 3, 0.5)))
    sd = math.sqrt(baseline_variances(b)[0])
    probe = list(b.means)
    probe[0] = b.means[0] + 10 * sd
    score = anomaly_score(b, fv_from(probe))
    assert math.isclose(score, 10.0, rel_tol=1e-3)


def test_anomaly_requires_two_samples():
    b = update_baseline(Baseline(), fv_from((1, 1, 1, 1, 1, 1, 1, 0.1)))
    with pytest.raises(InsufficientBaseline):
        anomaly_score(b, fv_from((1, 1, 1, 1, 1, 1, 1, 0.1)))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(*([st.floats(0, 100)] * 8)), min_size=2, max_size=40),
       st.integers(0, 7), st.floats(0.5, 25))
def test_anomaly_monotone_in_deviation(vectors, feature, bump):
    b = Baseline()
    for v in vectors:
        b = update_baseline(b, fv_from(v))
    probe = list(b.means)
    base = anomaly_score(b, fv_from(probe))
    probe[feature] += bump
    assert anomaly_score(b, fv_from(probe)) >= base


def hexes(values):
    return [float(v).hex() for v in values]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(*([st.integers(0, 50) | st.floats()] * 8)),
                min_size=3, max_size=8))
def test_score_and_update_equals_the_two_step_computation(vectors):
    # sample counts 0, 1 and 2 come first in every sequence
    b = Baseline()
    for v in vectors:
        fv = fv_from(v)
        try:
            want_score, want_means, want_m2 = welford_reference(
                b.means, b.m2, b.sample_count, v)
        except ValueError:  # sqrt of an overflowed, negative M2
            with pytest.raises(ValueError):
                score_and_update(b, fv)
            return
        score, got = score_and_update(b, fv)
        assert score.hex() == (0.0 if want_score is None else want_score).hex()
        assert hexes(got.means) == hexes(want_means)
        assert hexes(got.m2) == hexes(want_m2)
        assert got.sample_count == b.sample_count + 1
        view = update_baseline(b, fv)
        assert (hexes(view.means), hexes(view.m2)) == (hexes(want_means), hexes(want_m2))
        if want_score is not None:
            assert anomaly_score(b, fv).hex() == score.hex()
        b = got
