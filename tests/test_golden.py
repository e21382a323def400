"""Byte-level regression oracle: trace and training digests are pinned.

A refactor must leave these bytes identical. A change that alters them on
purpose updates the digests here and says why in CHANGES.md.
"""

import functools
import hashlib
import json
import os

import pytest

from honeysim import config as config_mod
from honeysim.harness import (QPolicy, RandomPolicy, replay, run_scenario,
                              train_agent)
from test_trace_lines import CONTESTED_SEED, contested

REFERENCE = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                         "reference.yaml")

RANDOM_SEED_DIGESTS = {
    0: "a860eba138f24bba11597576b4f069e0eaf06e8f45aa3b6bf2f35e2afadaf8e0",
    1: "4557802037f8ac1a4463ef0d0f40ccfa169e6a9c9871509473704104c2d90c4e",
    2: "f886f6922c2efa9d432adb24645ad766d25ca4a20c4d20872a3bc957eada6d46",
    3: "89df19c66230d341eecec2c904b7f5223250002d77a8df8df780e15dab228585",
    4: "6be9f43d020f67154c559342366d917bd0e3854ba2b6b07404857871053f5fd4",
}
LONG_RANDOM_DIGEST = "18ec831f62445a962a0a738d408fcd3b7d29577f3cc7af1ca7a5dfd50665f057"
GREEDY_Q_DIGEST = "ce707f952cd54b831eb8a487a945ddb30b0b977a3209728dfd1ed4158245c04e"
TAMPER_AT_ZERO_DIGEST = "e3ea667545a3c554866c0dcaaa3d7e03886223d2b9ce8d10132c7cbfefdb5788"
CRY_NOOP_DIGEST = "3d255879857b3ddbcab997d1e7d7b47398fb1c0c4884f3a91c7c220b83c87d5d"
# Heartbeats, alerts, restricted and silent EMCON, vetoes, operator
# replies, and the fail-safe or a mid-run tamper ending the agent.
CONTESTED_FAILSAFE_DIGEST = "6cd64ff0fb10f6e1d8d22e273a70dca146196bcc50200c70f4ab41f07b7da097"
CONTESTED_TAMPER_DIGEST = "c1d3780ee03e1efe907609e2edadad05a286a361198362bce4ad75272a2a8f70"
TRAIN_DIGEST = "90c1dbe1517287b9b62035e9afe5be6c51c317ea62fd1288c0f6e977a09ca18d"


def reference(episode_ticks=None, **overrides):
    cfg = config_mod.load_file(REFERENCE)
    if episode_ticks is None and not overrides:
        return cfg
    data = cfg.to_dict()
    for section, values in overrides.items():
        data[section] = {**data[section], **values}
    if episode_ticks is not None:
        data["episode_ticks"] = episode_ticks
    return config_mod.from_mapping(data)


class CryNoopPolicy:
    """Alternates cry_for_help and noop, so every other tick sends a cry."""

    name = "cry_noop"

    def __init__(self):
        self.calls = 0

    def choose(self, key):
        self.calls += 1
        return "cry_for_help" if self.calls % 2 else "noop"

    def rank(self, key):
        return ["cry_for_help", "noop"]


def trace_digest(cfg, seed, policy):
    report, lines = run_scenario(cfg, seed, policy)
    assert replay(lines) == report
    return hashlib.sha256(("\n".join(lines) + "\n").encode("utf-8")).hexdigest()


@pytest.mark.parametrize("seed", sorted(RANDOM_SEED_DIGESTS))
def test_reference_random_trace_bytes(seed):
    assert trace_digest(reference(), seed, RandomPolicy()) == RANDOM_SEED_DIGESTS[seed]


def test_tamper_at_tick_zero_trace_bytes():
    cfg = reference(guardrails={"tamper_tick": 0})
    assert trace_digest(cfg, 0, RandomPolicy()) == TAMPER_AT_ZERO_DIGEST


def test_cry_for_help_heavy_trace_bytes():
    assert trace_digest(reference(), 0, CryNoopPolicy()) == CRY_NOOP_DIGEST


def test_contested_failsafe_trace_bytes():
    assert trace_digest(contested(), CONTESTED_SEED, RandomPolicy()) \
        == CONTESTED_FAILSAFE_DIGEST


def test_contested_tamper_trace_bytes():
    assert trace_digest(contested(tamper_tick=150), CONTESTED_SEED, RandomPolicy()) \
        == CONTESTED_TAMPER_DIGEST


def test_long_random_trace_bytes():
    """6000 ticks: many honeypots are started and stopped along the way."""
    cfg = reference(episode_ticks=6000)
    assert trace_digest(cfg, 0, RandomPolicy()) == LONG_RANDOM_DIGEST


@functools.lru_cache(maxsize=None)
def trained():
    return train_agent(reference(), 3, seeds=[0, 1, 2])


def test_training_table_and_curve_bytes():
    result = trained()
    payload = {"qtable": result.qtable.to_dict(), "reward_curve": result.reward_curve}
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()
    assert digest == TRAIN_DIGEST


def test_greedy_q_policy_trace_bytes():
    """Greedy run from the table the 3-episode training fixture learns."""
    policy = QPolicy(trained().qtable, epsilon=0.0)
    assert trace_digest(reference(), 0, policy) == GREEDY_Q_DIGEST
