import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_event
from honeysim._kernels import pure
from honeysim.agent import (QTable, RewardInputs, RewardParams, StateKey,
                            accumulate_reward_inputs, discretize,
                            q_update, reward, select_action)
from honeysim.config import BinsConfig
from honeysim.errors import NonFinite
from honeysim.sensing import FeatureVector
from honeysim.world import EventKind, WorldEvent
from oracles import event_payload, reward_oracle


def inputs(honey=0, sec=0, delta=0, total=100, jcfh=0, cw=0):
    return RewardInputs(honey, sec, delta, total, jcfh, cw)


def test_reward_hand_arithmetic():
    p = RewardParams(1.0, 1.0, 1.0)
    x = inputs(honey=4, sec=2, delta=-10, total=100, jcfh=2, cw=1)
    assert reward(p, x) == pytest.approx(4 / 2 - 10 / 100 + 2 / 1, abs=1e-12)
    assert reward(p, x) == pytest.approx(3.9, abs=1e-12)


def test_reward_all_zero_inputs():
    assert reward(RewardParams(), inputs()) == 0.0


def test_reward_light_load_property():
    p = RewardParams()
    heavy = reward(p, inputs(delta=-10, total=20))
    light = reward(p, inputs(delta=-10, total=200))
    assert heavy == pytest.approx(-0.5)
    assert light == pytest.approx(-0.05)
    assert abs(light) < abs(heavy)


def test_reward_rejects_non_finite_params():
    with pytest.raises(NonFinite):
        RewardParams(a=float("nan"))
    with pytest.raises(NonFinite):
        RewardParams(b=float("inf"))


def test_reward_matches_rational_oracle(rng):
    for _ in range(2000):
        a, b, c = (rng.uniform(-5, 5) for _ in range(3))
        floor = rng.randint(1, 3)
        x = inputs(honey=rng.randint(0, 50), sec=rng.randint(0, 50),
                   delta=rng.randint(-60, 60), total=rng.randint(1, 500),
                   jcfh=rng.randint(0, 20), cw=rng.randint(0, 20))
        p = RewardParams(a, b, c, floor)
        want = reward_oracle(a, b, c, floor, x.honey_events, x.security_events,
                             x.delta_resources, x.total_resources,
                             x.justified_cfh, x.cw)
        assert reward(p, x) == pytest.approx(want, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(honey=st.integers(0, 100), sec=st.integers(1, 100),
       jcfh=st.integers(1, 50), cw=st.integers(1, 50),
       delta=st.integers(-50, -1), total=st.integers(1, 400))
def test_reward_monotonicity(honey, sec, jcfh, cw, delta, total):
    p = RewardParams(1.5, 2.0, 0.7)
    base = reward(p, inputs(honey, sec, delta, total, jcfh, cw))
    assert reward(p, inputs(honey + 1, sec, delta, total, jcfh, cw)) > base
    assert reward(p, inputs(honey, sec, delta, total, jcfh + 1, cw)) > base
    assert reward(p, inputs(honey, sec, delta, total, jcfh, cw + 1)) < base
    # resource penalty magnitude shrinks when more is available
    term = lambda cap: p.b * delta / cap
    assert abs(term(total + 50)) < abs(term(total))


def test_discretize_lowest_bins():
    fv = FeatureVector(window_ticks=20)
    key = discretize(fv, 0)
    assert key == StateKey(0, 0, 0, False)


def test_discretize_clamps_to_top_bin():
    fv = FeatureVector(window_ticks=20)
    key = discretize(fv, 0, anomaly=99.0)
    assert key.threat_bin == 3


def test_discretize_honey_touch_flag_and_edges():
    bins = BinsConfig()
    fv = FeatureVector(honey_touches=1, system_load=0.25, window_ticks=20)
    key = discretize(fv, 1, bins)
    assert key.recent_honey_touch
    assert key.load_bin == 1  # inclusive lower edge
    assert key.honeypots_active_bin == 1


def test_select_action_argmax_and_tiebreak():
    q = QTable(["a", "b", "c"])
    s = StateKey(0, 0, 0, False)
    q.values[(s, "a")] = 1.0
    q.values[(s, "b")] = 2.0
    assert select_action(q, s, 0.0, rng=None) == "b"
    q2 = QTable(["b", "a", "c"])
    assert select_action(q2, s, 0.0, rng=None) == "a"  # all-zero tie


def test_select_action_epsilon_one_frequencies():
    q = QTable(["a0", "a1", "a2", "a3", "a4"])
    s = StateKey(0, 0, 0, False)
    stream = pure.Stream(1234)
    n = 100_000
    counts = {}
    for _ in range(n):
        a = select_action(q, s, 1.0, stream)
        counts[a] = counts.get(a, 0) + 1
    p = 0.2
    sigma = math.sqrt(n * p * (1 - p))
    for a in q.actions:
        assert abs(counts.get(a, 0) - n * p) <= 3 * sigma


def test_q_update_degenerate_and_zero_step():
    s, s2 = StateKey(0, 0, 0, False), StateKey(1, 0, 0, False)
    q = QTable(["x", "y"], alpha=1.0, gamma=0.0)
    q_update(q, s, "x", 5.0, s2)
    assert q.get(s, "x") == 5.0

    q = QTable(["x", "y"], alpha=0.0, gamma=0.9)
    q.values[(s, "x")] = 2.5
    q_update(q, s, "x", 100.0, s2)
    assert q.get(s, "x") == 2.5


def test_q_update_hand_arithmetic():
    s, s2 = StateKey(0, 0, 0, False), StateKey(1, 0, 0, False)
    q = QTable(["x", "y"], alpha=0.5, gamma=0.9)
    q.values[(s, "x")] = 1.0
    q.values[(s2, "y")] = 2.0
    q_update(q, s, "x", 1.0, s2)
    assert q.get(s, "x") == pytest.approx(1 + 0.5 * (1 + 1.8 - 1), abs=1e-12)
    assert q.get(s, "x") == pytest.approx(1.9, abs=1e-12)


def test_q_update_touches_one_cell_and_contracts():
    rng = random.Random(3)
    s, s2 = StateKey(2, 1, 0, True), StateKey(0, 3, 1, False)
    q = QTable(["x", "y", "z"], alpha=0.3, gamma=0.5)
    for _ in range(100):
        for a in q.actions:
            q.values[(s2, a)] = rng.uniform(-5, 5)
        before = dict(q.values)
        a = rng.choice(q.actions)
        r = rng.uniform(-3, 3)
        target = r + q.gamma * q.max_value(s2)
        gap = abs(q.get(s, a) - target)
        q_update(q, s, a, r, s2)
        assert abs(q.get(s, a) - target) == pytest.approx((1 - 0.3) * gap, abs=1e-9)
        changed = {k for k in q.values if q.values[k] != before.get(k, 0.0)}
        assert changed <= {(s, a)}


def test_q_update_rejects_non_finite_reward():
    q = QTable(["x"])
    s = StateKey(0, 0, 0, False)
    with pytest.raises(NonFinite):
        q_update(q, s, "x", float("nan"), s)


def test_qtable_round_trip():
    q = QTable(["x", "y"], alpha=0.2, gamma=0.8)
    q.values[(StateKey(1, 2, 3, True), "x")] = 1.5
    q.values[(StateKey(0, 0, 0, False), "y")] = -0.25
    q2 = QTable.from_dict(q.to_dict())
    assert q2.actions == q.actions
    assert q2.values == q.values
    assert (q2.alpha, q2.gamma) == (q.alpha, q.gamma)


def he(kind, node="n", truth=True):
    return event_payload(WorldEvent(0, kind, node, 0, 0.0, truth))


def test_accumulate_direct_counts():
    window = [he(EventKind.HONEY_TOUCH), he(EventKind.HONEY_TOUCH),
              he(EventKind.HONEY_TOUCH),
              event_payload(WorldEvent(0, EventKind.IDS_ALERT, "db-0", 3, 0.0, True))]
    x = accumulate_reward_inputs(window, ["justified", "cry_wolf", "justified"],
                                 pool_available=50, last_action_delta=-10)
    assert x.honey_events == 3
    assert x.security_events == 1
    assert x.delta_resources == -10
    assert x.total_resources == 50
    assert (x.justified_cfh, x.cw) == (2, 1)


def test_accumulate_ignores_benign_alerts():
    window = [
        event_payload(WorldEvent(0, EventKind.IDS_ALERT, "db-0", 2, 0.0, False)),  # false positive
        he(EventKind.DUMMY_FILE_ACCESS),
        he(EventKind.DUMMY_PROCESS_ALERT),
    ]
    x = accumulate_reward_inputs(window, [], 10, 0)
    assert x.security_events == 0
    assert x.honey_events == 2


def test_accumulate_matches_random_tally(rng):
    window = [random_event(rng) for _ in range(200)]
    x = accumulate_reward_inputs([event_payload(e) for e in window], [], 33, 4)
    honey = sum(1 for e in window if e.kind in (
        EventKind.HONEY_TOUCH, EventKind.DUMMY_FILE_ACCESS,
        EventKind.DUMMY_PROCESS_ALERT))
    sec = sum(1 for e in window
              if e.kind is EventKind.IDS_ALERT and e.truth_malicious)
    assert (x.honey_events, x.security_events) == (honey, sec)


def test_reward_inputs_validation():
    with pytest.raises(ValueError):
        RewardInputs(-1, 0, 0, 10, 0, 0)
    with pytest.raises(ValueError):
        RewardInputs(0, 0, 0, 0, 0, 0)
