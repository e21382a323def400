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

REFERENCE = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                         "reference.yaml")

RANDOM_SEED_DIGESTS = {
    0: "a4edc226c0c7b880d76fbe950244059552b34b53290dc8b10c603e465d289956",
    1: "3a26f442ff273880f5b58bc8fa374812a17c2bf898f62063903663b94a5ef10c",
    2: "19738fddb99d61615a1a6059dc2d1337a9ddd68a97921c946c3e8dd6f5560e48",
    3: "a7d622f6a20a0d0d7a2c528f29552ef2f7dde374c50233565167ce49ea084a5c",
    4: "959d67422970048b2fda4756da2725af7cd41c898ed41fbc59d73fb4fa1eed90",
}
LONG_RANDOM_DIGEST = "a5b1c48511458c142d64121b425e7260db1f414c0c4db449118288b9c19286ac"
GREEDY_Q_DIGEST = "4f0123e0c3f67d0a8d5a6f1b5780a5d6d0fbf925c934175693fa37a76c0b3b3c"
TAMPER_AT_ZERO_DIGEST = "5a55f35d13f5b97fc54e9f6491b71c92964cebd053c0c27ce57386bc43bea94c"
CRY_NOOP_DIGEST = "17dcd8a220f51543e37ccfa0440105294d7d035713a6f07126486d1488e8487f"
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
