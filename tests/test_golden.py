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
    0: "965a82c6b6b1046312dfced651b2df691dd5d39f00541ede75b8f6b4d9e41b69",
    1: "7aa84ad3084c9acfc4d5426b411c3e62f1fe99f43ece9088f66d9c663adb7a54",
    2: "fbbc4ba1c1822863984a54834151ba4b4e968a3ae36b5caae5ae5613d96572fd",
    3: "e0258544fee33731b00a9594b73d525f866bb24a1ef8402e2de42307f3d2309e",
    4: "42f3fbc4b961e4b827324cebf505faae6f0e89729635183c4b9d8a1dc220dd32",
}
LONG_RANDOM_DIGEST = "fe478e50568099a4d051e91303c85775f23c2f221c76a1053f4a32a34c0997d5"
GREEDY_Q_DIGEST = "ace2c4c68e2d38940f85240b2cffb75fbbdd0754941822b32ea982c5e827e548"
TAMPER_AT_ZERO_DIGEST = "e3722fc5efdcc6ccbc356d4c9afcab31864eb2037cdcf7c1bbc77c58072baeed"
CRY_NOOP_DIGEST = "2cd674e08f226038291fb28456a8f0434f6b4fc477c26d81a8a49ded655eb765"
# Heartbeats, alerts, restricted and silent EMCON, vetoes, operator
# replies, and the fail-safe or a mid-run tamper ending the agent.
CONTESTED_FAILSAFE_DIGEST = "7c6522ea870eccbf6a266977512412891e22a1d72d101330fbd5be4d94749995"
CONTESTED_TAMPER_DIGEST = "ecef9edb45696e2a43452c8336556baac8abb7e052c8b20544f0b154c2773a4c"
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

    def bind(self, stream, catalog):
        pass

    def choose(self, key):
        self.calls += 1
        return "cry_for_help" if self.calls % 2 else "noop"

    def offer(self, key):
        return "cry_for_help"


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
