"""Reward function, state discretization, and tabular Q-learning.

The reward combines three ratio terms: deception yield over real
attack volume, resource delta over resources available at action
time, and justified help requests over false alarms. Denominators
that can legitimately be zero are floored (default 1) so the reward
stays total while preserving the ratio semantics elsewhere.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

from .config import BinsConfig
from .errors import NonFinite
from .sensing import FeatureVector
from .world import EventKind


@dataclass(frozen=True)
class RewardParams:
    a: float = 1.0
    b: float = 1.0
    c: float = 1.0
    denominator_floor: int = 1

    def __post_init__(self):
        for name in ("a", "b", "c"):
            if not math.isfinite(getattr(self, name)):
                raise NonFinite(f"reward coefficient {name} must be finite")
        if self.denominator_floor < 1:
            raise NonFinite("denominator_floor must be a positive integer")


@dataclass(frozen=True)
class RewardInputs:
    honey_events: int
    security_events: int
    delta_resources: int
    total_resources: int
    justified_cfh: int
    cw: int

    def __post_init__(self):
        for name in ("honey_events", "security_events", "justified_cfh", "cw"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.total_resources <= 0:
            raise ValueError("total_resources must be positive")


def reward(p: RewardParams, x: RewardInputs) -> float:
    """Pure, deterministic scalar reward.

    honey term is positive yield, the resource term carries the sign
    of delta_resources (negative when the action consumed resources),
    and the help term rewards justified requests per false alarm.
    """
    honey_term, resource_term, cfh_term = reward_terms(p, x)
    # Not sum(): it starts from int 0, and 0 + -0.0 is 0.0, so an
    # all-negative-zero total would lose its sign.
    return honey_term + resource_term + cfh_term


def reward_terms(p: RewardParams, x: RewardInputs) -> tuple:
    floor = p.denominator_floor
    return (p.a * x.honey_events / max(x.security_events, floor),
            p.b * x.delta_resources / x.total_resources,
            p.c * x.justified_cfh / max(x.cw, floor))


class StateKey(NamedTuple):
    threat_bin: int
    load_bin: int
    honeypots_active_bin: int
    recent_honey_touch: bool

    def encode(self) -> str:
        return f"{self.threat_bin},{self.load_bin},{self.honeypots_active_bin}," \
               f"{1 if self.recent_honey_touch else 0}"

    @classmethod
    def decode(cls, text: str) -> "StateKey":
        t, l, h, r = text.split(",")
        return cls(int(t), int(l), int(h), r == "1")


def discretize(fv: FeatureVector, honeypots_active: int,
               bins: BinsConfig = BinsConfig(),
               anomaly: float = 0.0) -> StateKey:
    """Deterministic 128-way discretization of the percept.

    bins holds three ascending edges per axis; bin k covers
    [edge[k-1], edge[k]) and values past the top edge clamp into bin 3.
    """
    return StateKey(
        threat_bin=bisect_right(bins.threat, anomaly),
        load_bin=bisect_right(bins.load, fv.system_load),
        honeypots_active_bin=bisect_right(bins.honeypots, honeypots_active),
        recent_honey_touch=fv.honey_touches >= 1,
    )


class QTable:
    """Sparse (StateKey, action id) -> value map; absent cells read 0."""

    def __init__(self, actions, alpha: float = 0.1, gamma: float = 0.9):
        self.actions = tuple(sorted(actions))
        self.alpha = alpha
        self.gamma = gamma
        self.values: dict = {}

    def get(self, state: StateKey, action_id: str) -> float:
        return self.values.get((state, action_id), 0.0)

    def max_value(self, state: StateKey) -> float:
        return max(self.values.get((state, a), 0.0) for a in self.actions)

    def best_action(self, state: StateKey) -> str:
        best = self.actions[0]
        best_value = self.values.get((state, best), 0.0)
        for a in self.actions[1:]:
            v = self.values.get((state, a), 0.0)
            if v > best_value:
                best, best_value = a, v
        return best

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "gamma": self.gamma,
            "actions": list(self.actions),
            "entries": {f"{s.encode()}|{a}": v
                        for (s, a), v in sorted(self.values.items(),
                                                key=lambda kv: (kv[0][0].encode(), kv[0][1]))},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "QTable":
        table = cls(data["actions"], data["alpha"], data["gamma"])
        for key, value in data["entries"].items():
            state_text, action_id = key.split("|")
            table.values[(StateKey.decode(state_text), action_id)] = value
        return table


def select_action(q: QTable, state: StateKey, epsilon: float, rng) -> str:
    """Epsilon-greedy over the table's action set.

    With epsilon == 0 no randomness is consumed and the choice is a
    pure function of (table, state); ties break to the lowest id.
    """
    if epsilon > 0.0 and rng.uniform() < epsilon:
        return q.actions[rng.randrange(len(q.actions))]
    return q.best_action(state)


def q_update(q: QTable, state: StateKey, action_id: str, r: float,
             next_state: StateKey) -> QTable:
    """One-step temporal-difference update; touches exactly one cell."""
    if not math.isfinite(r):
        raise NonFinite(f"reward {r!r} is not finite")
    current = q.get(state, action_id)
    target = r + q.gamma * q.max_value(next_state)
    q.values[(state, action_id)] = current + q.alpha * (target - current)
    return q


HONEY_EVENT = 1     # counts toward the deception yield
SECURITY_EVENT = 2  # counts toward the real attack volume when truth-malicious

# How each event kind enters a period's reward inputs; kinds absent here
# do not. Both the trace-record tally below and the harness's accountant
# classify events through this one table.
EVENT_REWARD_CLASS = {
    EventKind.HONEY_TOUCH: HONEY_EVENT,
    EventKind.DUMMY_FILE_ACCESS: HONEY_EVENT,
    EventKind.DUMMY_PROCESS_ALERT: HONEY_EVENT,
    EventKind.IDS_ALERT: SECURITY_EVENT,
}
_REWARD_CLASS_BY_LABEL = {kind.label: cls for kind, cls in EVENT_REWARD_CLASS.items()}


def period_reward_inputs(honey: int, security: int, justified: int, cry_wolf: int,
                         pool_available: int, last_action_delta: int) -> RewardInputs:
    """Reward inputs of one period from its tallies; the pool figure is
    floored at 1 so the resource ratio stays total."""
    return RewardInputs(
        honey_events=honey,
        security_events=security,
        delta_resources=last_action_delta,
        total_resources=max(pool_available, 1),
        justified_cfh=justified,
        cw=cry_wolf,
    )


def accumulate_reward_inputs(events, cfh_labels, pool_available: int,
                             last_action_delta: int) -> RewardInputs:
    """Harness-side tally of one accounting period.

    events are the period's event payloads (the "event" field of its
    trace records) and cfh_labels the "justified"/"cry_wolf" labels of
    the cries for help sent in it. Ground truth is taken from the
    events; the agent never sees it.
    """
    honey = security = 0
    for ev in events:
        cls = _REWARD_CLASS_BY_LABEL.get(ev["kind"])
        if cls == HONEY_EVENT:
            honey += 1
        elif cls == SECURITY_EVENT and ev["truth_malicious"]:
            security += 1
    return period_reward_inputs(honey, security, cfh_labels.count("justified"),
                                cfh_labels.count("cry_wolf"), pool_available,
                                last_action_delta)
