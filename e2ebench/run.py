#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of honeysim.

Usage, from the repository root:

    python3 e2ebench/run.py --workload random_ref --seed 3 --seconds 30 --trace 0

--trace 0 times the public calls with no spans installed and reports the
end-to-end metrics. --trace 1 alternates that timed run with a span run
on the same inputs and reports the per-layer metrics. Both print every
metric by name with its unit, then, as the last line, one JSON object
with the keys correct, attempted, failed and metrics.

The run trace (honeysim's JSONL output) and the spans (this benchmark's
timers around calls) are separate: spans never touch the run trace.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
GOLDEN_PATH = os.path.join(BENCH_DIR, "golden_digests.json")
SETUP_PROBES = 7

# Spans that make no calls on some workload: the random policy never calls
# select_action or q_update, train_ref writes no run trace, and on the
# reference config the online stage always answers, so game_search is never
# reached. Their times are printed but not declared in BENCHMARK.json, where
# every value must be measured on every workload; their call counts are.
UNSHARED_SPANS = ("cascade.game_search", "agent.select_action", "agent.q_update",
                  "trace.TraceWriter.record", "trace.dumps", "trace.write_file",
                  "trace.read_file", "trace.parse", "harness.replay")

SPAN_UNITS = {"calls_per_tick": "calls/tick", "self_us_per_tick": "us/tick",
              "us_per_call": "us/call"}

KERNEL_STEPS = 2000
KERNEL_WINDOW = 20


def add_paths():
    """Put the checkout's honeysim sources and this directory on sys.path."""
    if not os.path.isfile(os.path.join(SRC, "honeysim", "__init__.py")) \
            or not os.path.isfile(os.path.join(ROOT, "configs", "reference.yaml")):
        raise SystemExit(f"error: honeysim sources or configs/reference.yaml "
                         f"missing under {ROOT}")
    for path in (BENCH_DIR, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)


# ---------------------------------------------------------------------------
# metric declarations

def end_to_end_units() -> dict:
    return {"us_per_tick": "us", "peak_rss_mb": "MB", "setup_s": "s"}


def per_layer_units() -> dict:
    from spans import GROWTH_SPANS, SPAN_NAMES
    units = {}
    for span in SPAN_NAMES:
        for metric, unit in SPAN_UNITS.items():
            if metric == "calls_per_tick" or span not in UNSHARED_SPANS:
                units[f"{span}.{metric}"] = unit
    units.update({
        "world.nodes_final": "count",
        "world.events_per_tick": "events/tick",
        "world.apply_action.error_ratio": "ratio",
        "harness.resolve_target.none_ratio": "ratio",
        "cascade.decide.rejected_per_call": "count/call",
        "trace.bytes_per_tick": "B/tick",
    })
    for span in GROWTH_SPANS:
        units[f"{span}.growth"] = "ratio"
    units["spans.overhead_ratio"] = "ratio"
    units["kernels.CoreWorld.step.isolated_us_per_call"] = "us/call"
    units["kernels.tally.isolated_us_per_call"] = "us/call"
    return units


# ---------------------------------------------------------------------------
# facts and checks

def git_commit() -> str:
    """The commit of the checkout, read from .git when there is one."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git_dir, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts(backend_ran: str) -> dict:
    from honeysim import _kernels
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "kernels_backend": _kernels.BACKEND,
        "backend_ran": backend_ran,
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def count_failures(units, reference: dict) -> int:
    """Failed episodes: raised, replay differs, or digest differs from the
    first unit on the same input set (in a span run, the timed unit)."""
    failed = 0
    for unit in units:
        ref = reference.setdefault(unit.input_set, unit.digests)
        bad = sum(1 for ok, digest, want in zip(unit.ok, unit.digests, ref)
                  if not ok or digest != want)
        failed += bad * unit.episodes // len(unit.digests)
    return failed


def golden_summary(inputs, reference: dict) -> str:
    """Compare digests with those recorded at the seed commit (informational)."""
    try:
        with open(GOLDEN_PATH, encoding="utf-8") as fh:
            golden = json.load(fh)["digests"].get(inputs.workload.name, {})
    except (OSError, ValueError, KeyError):
        golden = {}
    counts = {"match": 0, "differs": 0, "not recorded": 0}
    for input_set, digests in sorted(reference.items()):
        for key, digest in zip(digest_keys(inputs, input_set), digests):
            want = golden.get(key)
            counts["not recorded" if want is None else
                   "match" if want == digest else "differs"] += 1
    return ", ".join(f"{v} {k}" for k, v in counts.items())


def digest_keys(inputs, input_set: int) -> list:
    seeds = inputs.episode_seeds(input_set)
    if inputs.workload.traced:
        return [str(s) for s in seeds]
    return [",".join(str(s) for s in seeds)]


# ---------------------------------------------------------------------------
# runs

def per_tick_us(units, field: str) -> float:
    """µs per tick: the median over input sets of each set's median."""
    by_set = {}
    for unit in units:
        if unit.ticks:
            by_set.setdefault(unit.input_set, []).append(
                getattr(unit, field) / unit.ticks / 1000.0)
    if not by_set:
        return 0.0
    return statistics.median(statistics.median(v) for v in by_set.values())


def setup_seconds(workload: str, seed: int) -> list:
    probe = os.path.join(BENCH_DIR, "setup_probe.py")
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, probe, workload, str(seed)],
                             cwd=ROOT, capture_output=True, text=True,
                             check=True, timeout=120)
        times.append(float(out.stdout.split()[-1]))
    return times


def timed_units(workloads, inputs, seconds: float, scratch: str) -> tuple:
    """A new input set per unit while the next one and a repeat still fit in
    the time, at least two; then the first set again, whose digests must
    repeat. Also returns the peak RSS after the first unit: one unit of work
    in a fresh process, apart from the heap history of the repeats."""
    units = []
    start = time.perf_counter()
    while True:
        before = time.perf_counter()
        units.append(workloads.run_unit(inputs, len(units), scratch))
        if len(units) == 1:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        took = time.perf_counter() - before
        if len(units) >= 2 and time.perf_counter() - start + 2 * took > seconds:
            break
    units.append(workloads.run_unit(inputs, 0, scratch))
    return units, peak_kb / 1024.0


def kernel_only_us(inputs, seed: int) -> tuple:
    """µs per call of CoreWorld.step and tally alone, outside any episode."""
    from honeysim import _kernels, world as world_mod
    world = world_mod.init_world(inputs.config, seed)
    core = world.core
    used, capacity = world.pool.used, world.pool.capacity
    start = time.perf_counter_ns()
    for _ in range(KERNEL_STEPS):
        core.step(used, capacity)
    step_us = (time.perf_counter_ns() - start) / KERNEL_STEPS / 1000.0

    world = world_mod.init_world(inputs.config, seed)
    ticks = [world_mod.step_world(world) for _ in range(KERNEL_STEPS)]
    windows = [[ev for tick in ticks[t - KERNEL_WINDOW:t] for ev in tick]
               for t in range(KERNEL_WINDOW, KERNEL_STEPS)]
    tally = _kernels.tally
    start = time.perf_counter_ns()
    for window in windows:
        tally(window)
    tally_us = (time.perf_counter_ns() - start) / len(windows) / 1000.0
    return step_us, tally_us, world.backend_name


def layer_metrics(recorder, span_ticks: int, episodes: int) -> dict:
    from spans import GROWTH_SPANS
    metrics = {}
    for name, st in recorder.stats.items():
        metrics[f"{name}.calls_per_tick"] = st.calls / span_ticks
        metrics[f"{name}.self_us_per_tick"] = st.self_ns / span_ticks / 1000.0
        metrics[f"{name}.us_per_call"] = (st.total_ns / st.calls / 1000.0
                                          if st.calls else 0.0)
    stats = recorder.stats

    def ratio(a, b):
        return a / b if b else 0.0

    metrics["world.nodes_final"] = ratio(recorder.nodes_final, episodes)
    metrics["world.events_per_tick"] = ratio(stats["world.step_world"].items,
                                             stats["world.step_world"].calls)
    metrics["world.apply_action.error_ratio"] = ratio(
        stats["world.apply_action"].errors, stats["world.apply_action"].calls)
    metrics["harness.resolve_target.none_ratio"] = ratio(
        stats["harness.resolve_target"].nones, stats["harness.resolve_target"].calls)
    metrics["cascade.decide.rejected_per_call"] = ratio(
        stats["cascade.decide"].items, stats["cascade.decide"].calls)
    metrics["trace.bytes_per_tick"] = recorder.trace_bytes / span_ticks
    for name in GROWTH_SPANS:
        st = stats[name]
        metrics[f"{name}.growth"] = ratio(ratio(st.last_ns, st.last_calls),
                                          ratio(st.first_ns, st.first_calls))
    return metrics


def span_run(workloads, inputs, seconds: float, scratch: str):
    """Pairs of a timed and a spanned unit on the same input set, one new
    set per pair, while the next pair still fits in the time."""
    from spans import SpanRecorder
    recorder = SpanRecorder(inputs.workload.episode_ticks)
    timed, spanned = [], []
    start = time.perf_counter()
    while True:
        before = time.perf_counter()
        timed.append(workloads.run_unit(inputs, len(timed), scratch))
        with recorder:
            spanned.append(workloads.run_unit(inputs, len(spanned), scratch))
        took = time.perf_counter() - before
        if time.perf_counter() - start + took > seconds:
            return recorder, timed, spanned


# ---------------------------------------------------------------------------
# output

def print_table(title: str, rows: dict, units: dict):
    print(f"# {title}")
    width = max(len(name) for name in rows)
    for name, value in rows.items():
        print(f"{name:<{width}}  {value:>14.6g}  {units.get(name, '')}")


def print_routing(recorder, span_ticks: int):
    """Where the time goes: top spans by self time, and who calls them."""
    stats = recorder.stats
    by_self = sorted(stats, key=lambda s: -stats[s].self_ns)
    for span in by_self[:4]:
        callers = ", ".join(
            f"{caller or 'top'} {ns / stats[span].total_ns:.0%}"
            for caller, ns in sorted(stats[span].callers.items(),
                                     key=lambda kv: -kv[1]))
        print(f"# routing: {span} self {stats[span].self_ns / span_ticks / 1000:.2f} "
              f"us/tick, inclusive {stats[span].total_ns / span_ticks / 1000:.2f} "
              f"us/tick; called from {callers}")
    print(f"# routing: largest self time {by_self[0]}")
    resolve, run = stats["harness.resolve_target"], stats["harness.run_scenario"]
    if run.total_ns:
        print(f"# routing: harness.resolve_target inclusive "
              f"{resolve.total_ns / span_ticks / 1000:.2f} us/tick, "
              f"{resolve.total_ns / run.total_ns:.0%} of run_scenario")
    trace_calls = sum(st.calls for s, st in stats.items() if s.startswith("trace."))
    print(f"# routing: trace.* spans made {trace_calls} calls")


def result_line(correct: bool, attempted: int, failed: int, metrics: dict,
                units: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    })


def main(argv=None) -> int:
    add_paths()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import honeysim
    if not os.path.abspath(honeysim.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: honeysim imported from {honeysim.__file__}, not {SRC}")

    workload = workloads.WORKLOADS[args.workload]
    setup_times = []
    if not args.trace:
        setup_times = setup_seconds(workload.name, args.seed)
    inputs = workloads.prepare(ROOT, workload, args.seed)
    print(f"# workload {workload.name}, seed {args.seed}, episode seeds of input "
          f"set k: {list(inputs.episode_seeds(0))} + 100 k, {workload.episode_ticks} "
          f"ticks per episode")

    scratch = tempfile.mkdtemp(prefix=".scratch-", dir=BENCH_DIR)
    try:
        if args.trace:
            return report_span_run(workloads, inputs, args, scratch)
        return report_timed_run(workloads, inputs, args, scratch, setup_times)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def report_timed_run(workloads, inputs, args, scratch, setup_times) -> int:
    units, peak_rss_mb = timed_units(workloads, inputs, args.seconds, scratch)
    reference = {}
    failed = count_failures(units, reference)
    attempted = sum(u.episodes for u in units)
    from honeysim import _kernels
    print("# machine " + json.dumps(machine_facts(_kernels.BACKEND), sort_keys=True))
    for input_set, digests in sorted(reference.items()):
        for key, digest in zip(digest_keys(inputs, input_set), digests):
            print(f"# digest {inputs.workload.name} seeds {key}: {digest}")
    print(f"# golden digests: {golden_summary(inputs, reference)}")
    print(f"# {len(units)} units, us per tick by unit: " + ", ".join(
        f"{u.run_ns / u.ticks / 1000.0:.1f}" for u in units if u.ticks))
    print("# setup probes (s): " + ", ".join(f"{t:.4f}" for t in setup_times))

    metrics = {
        "us_per_tick": per_tick_us(units, "run_ns"),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup_times),
    }
    shown = dict(metrics)
    units_shown = dict(end_to_end_units())
    if inputs.workload.traced:
        shown["replay_us_per_tick"] = per_tick_us(units, "replay_ns")
        units_shown["replay_us_per_tick"] = "us"
    shown["episode_failure_ratio"] = failed / attempted
    units_shown["episode_failure_ratio"] = "ratio"
    print_table("end-to-end (spans off)", shown, units_shown)
    print(result_line(failed == 0, attempted, failed, metrics, end_to_end_units()))
    return 0


def report_span_run(workloads, inputs, args, scratch) -> int:
    from spans import SPAN_NAMES, installed_wrappers
    recorder, timed, spanned = span_run(workloads, inputs, args.seconds, scratch)
    leftover = installed_wrappers()
    step_us, tally_us, backend_ran = kernel_only_us(inputs, inputs.episode_seeds(0)[0])

    reference = {}
    failed = count_failures(timed + spanned, reference)
    attempted = sum(u.episodes for u in timed + spanned)
    span_ticks = sum(u.ticks for u in spanned)
    span_episodes = sum(u.ticks // inputs.workload.episode_ticks for u in spanned)
    metrics = layer_metrics(recorder, span_ticks, span_episodes)
    timed_us = per_tick_us(timed, "run_ns")
    spanned_us = per_tick_us(spanned, "run_ns")
    metrics["spans.overhead_ratio"] = spanned_us / timed_us if timed_us else 0.0
    metrics["kernels.CoreWorld.step.isolated_us_per_call"] = step_us
    metrics["kernels.tally.isolated_us_per_call"] = tally_us

    self_ns = [st.self_ns for st in recorder.stats.values()]
    wall_ns = sum(u.run_ns + u.replay_ns for u in spanned)
    self_ok = min(self_ns) >= 0 and sum(self_ns) == recorder.root_ns() <= wall_ns
    checks = {
        "every wrapper removed": not leftover,
        "self times non-negative and within wall time": self_ok,
        "replay equals run, span run matches timed run byte for byte": failed == 0,
    }

    print("# machine " + json.dumps(machine_facts(backend_ran), sort_keys=True))
    print(f"# golden digests: {golden_summary(inputs, reference)}")
    print(f"# {len(timed)} timed and {len(spanned)} spanned units; us per tick "
          f"timed {timed_us:.2f}, spanned {spanned_us:.2f}")
    for name, ok in checks.items():
        print(f"# check {name}: {'ok' if ok else 'FAILED'}")
    if recorder.skipped:
        print(f"# spans not installed (compiled code): {', '.join(recorder.skipped)}")
    print_routing(recorder, span_ticks)

    declared = per_layer_units()
    units = {name: declared.get(name) or SPAN_UNITS[name.rsplit(".", 1)[1]]
             for name in metrics}
    print_table("per-layer (span run)", metrics, units)
    print(result_line(all(checks.values()), attempted, failed, metrics, declared))
    return 0


if __name__ == "__main__":
    sys.exit(main())
