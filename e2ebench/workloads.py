"""The benchmark's workloads and the unit of work each one times.

Every workload runs configs/reference.yaml; only the episode length and
the episode seeds change. The program receives nothing but (config,
seeds). Public honeysim functions are always called through their module
(`harness.run_scenario`, `trace.write_file`) so that a span run, which
rebinds those names, sees every call.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass

from honeysim import config as config_mod
from honeysim import harness, trace

CONFIG_PATH = os.path.join("configs", "reference.yaml")


@dataclass(frozen=True)
class Workload:
    name: str
    episode_ticks: int
    episodes_per_unit: int
    traced: bool  # random policy with the run trace on, else train_agent


# Why each workload exists is recorded in BENCHMARK.json. In short:
# train_ref bypasses the run trace and leans on cascade, agent, sensing and
# guardrails; random_ref leans on target resolution and trace encoding.
# A third workload with 10000-tick episodes was left out: at 12-18 s an
# episode, a run holds too few of them to be steady on a shared machine.
# Growth with episode length is measured instead by the span run's growth
# diagnostics (cost per call in the last tenth of an episode against the
# first tenth).
WORKLOADS = {w.name: w for w in (
    Workload("train_ref", 2000, 4, False),
    Workload("random_ref", 2000, 4, True),
)}


@dataclass(frozen=True)
class Inputs:
    workload: Workload
    config: object
    seed: int

    def episode_seeds(self, input_set: int) -> tuple:
        """The episode seeds of one unit; every unit of a run has its own
        input set, so a run averages over many seeds."""
        base = self.seed * 100000 + input_set * 100
        return tuple(base + k for k in range(self.workload.episodes_per_unit))


def prepare(root: str, workload: Workload, seed: int) -> Inputs:
    """Load the reference config and fix the episode length."""
    cfg = config_mod.load_file(os.path.join(root, CONFIG_PATH))
    if cfg.episode_ticks != workload.episode_ticks:
        cfg = config_mod.from_mapping({**cfg.to_dict(),
                                       "episode_ticks": workload.episode_ticks})
    return Inputs(workload, cfg, seed)


@dataclass
class UnitResult:
    """One unit of work: the timed public calls on one input set."""

    input_set: int
    ticks: int
    run_ns: int  # run_scenario + write_file, or train_agent
    replay_ns: int  # read_file + replay; 0 for train_agent
    digests: tuple  # one per episode (run trace), or one per train_agent call
    ok: tuple  # per digest: False when the call raised or replay differs
    episodes: int


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def train_digest(result) -> str:
    """SHA-256 of the final Q table plus the reward curve."""
    payload = {"qtable": result.qtable.to_dict(), "reward_curve": result.reward_curve}
    return sha256_hex(json.dumps(payload, sort_keys=True).encode("utf-8"))


def run_unit(inputs: Inputs, input_set: int, scratch_dir: str) -> UnitResult:
    workload = inputs.workload
    seeds = inputs.episode_seeds(input_set)
    episodes = len(seeds)
    if not workload.traced:
        start = time.perf_counter_ns()
        try:
            result = harness.train_agent(inputs.config, episodes, seeds=list(seeds))
        except Exception as exc:  # a failed episode is counted, not fatal
            print(f"error: train_agent on seeds {seeds}: {exc!r}")
            return UnitResult(input_set, 0, 0, 0, (None,), (False,), episodes)
        run_ns = time.perf_counter_ns() - start
        return UnitResult(input_set, episodes * workload.episode_ticks, run_ns, 0,
                          (train_digest(result),), (True,), episodes)

    ticks = run_ns = replay_ns = 0
    digests, ok = [], []
    path = os.path.join(scratch_dir, "run.trace")
    for seed in seeds:
        try:
            start = time.perf_counter_ns()
            report, lines = harness.run_scenario(inputs.config, seed,
                                                 harness.RandomPolicy())
            trace.write_file(path, lines)
            mid = time.perf_counter_ns()
            del lines  # the replay side holds only what it reads back
            lines = trace.read_file(path)
            replayed = harness.replay(lines)
            end = time.perf_counter_ns()
            del lines
            with open(path, "rb") as fh:
                digests.append(sha256_hex(fh.read()))
        except Exception as exc:  # a failed episode is counted, not fatal
            print(f"error: episode seed {seed}: {exc!r}")
            digests.append(None)
            ok.append(False)
            continue
        ticks += workload.episode_ticks
        run_ns += mid - start
        replay_ns += end - mid
        ok.append(replayed == report)
        if replayed != report:
            print(f"error: episode seed {seed}: replay report differs from run report")
    return UnitResult(input_set, ticks, run_ns, replay_ns, tuple(digests),
                      tuple(ok), episodes)
