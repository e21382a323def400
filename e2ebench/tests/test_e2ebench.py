"""Tests of the benchmark itself: spans must not change what honeysim does.

Run from the repository root: python3 -m pytest e2ebench/tests -q
"""

import json
import os
import re
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import run  # noqa: E402

run.add_paths()

import spans  # noqa: E402
import workloads  # noqa: E402
from honeysim import config as config_mod  # noqa: E402
from honeysim import harness, trace  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def short_config(ticks=300):
    cfg = config_mod.load_file(os.path.join(run.ROOT, workloads.CONFIG_PATH))
    return config_mod.from_mapping({**cfg.to_dict(), "episode_ticks": ticks})


def traced_round_trip(cfg, seed, path):
    """run_scenario, write_file, read_file and replay, as the random_* units do."""
    report, lines = harness.run_scenario(cfg, seed, harness.RandomPolicy())
    trace.write_file(path, lines)
    replayed = harness.replay(trace.read_file(path))
    return report, lines, replayed


def honeysim_namespaces():
    """Every binding in honeysim's modules and in the classes they define."""
    snapshot = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not name.startswith("honeysim"):
            continue
        for key, value in vars(mod).items():
            snapshot[(name, key)] = value
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    snapshot[(name, key, attr)] = member
    return snapshot


def test_wrappers_leave_trace_bytes_and_reports_identical(tmp_path):
    cfg = short_config()
    path = str(tmp_path / "run.trace")
    plain = [traced_round_trip(cfg, seed, path) for seed in (0, 1)]
    plain_train = workloads.train_digest(harness.train_agent(cfg, 2, seeds=[0, 1]))

    with spans.SpanRecorder(cfg.episode_ticks) as recorder:
        spanned = [traced_round_trip(cfg, seed, path) for seed in (0, 1)]
        spanned_train = workloads.train_digest(harness.train_agent(cfg, 2, seeds=[0, 1]))

    assert spanned == plain
    assert spanned_train == plain_train
    for report, _lines, replayed in spanned:
        assert replayed == report
    # the wrappers really were in the call path
    assert recorder.stats["harness.run_scenario"].calls == 4
    assert recorder.stats["trace.TraceWriter.record"].calls > 0
    assert recorder.stats["kernels.CoreWorld.step"].calls == 4 * cfg.episode_ticks


def test_every_wrapper_is_removed_after_the_span_run(tmp_path):
    cfg = short_config(100)
    before = honeysim_namespaces()
    with spans.SpanRecorder(cfg.episode_ticks):
        assert spans.installed_wrappers()
        traced_round_trip(cfg, 0, str(tmp_path / "run.trace"))
    assert spans.installed_wrappers() == []
    assert honeysim_namespaces() == before

    try:
        with spans.SpanRecorder(cfg.episode_ticks):
            raise RuntimeError("run failed")
    except RuntimeError:
        pass
    assert spans.installed_wrappers() == []
    assert honeysim_namespaces() == before


def test_self_times_are_non_negative_and_within_wall_time(tmp_path):
    cfg = short_config()
    with spans.SpanRecorder(cfg.episode_ticks) as recorder:
        start = time.perf_counter_ns()
        traced_round_trip(cfg, 2, str(tmp_path / "run.trace"))
        harness.train_agent(cfg, 1, seeds=[3])
        wall_ns = time.perf_counter_ns() - start
    self_ns = [st.self_ns for st in recorder.stats.values()]
    assert min(self_ns) >= 0
    assert sum(self_ns) == recorder.root_ns() <= wall_ns
    for st in recorder.stats.values():
        assert st.self_ns <= st.total_ns


def test_every_metric_name_and_unit_is_well_formed(tmp_path):
    cfg = short_config()
    with spans.SpanRecorder(cfg.episode_ticks) as recorder:
        traced_round_trip(cfg, 0, str(tmp_path / "run.trace"))
    measured = run.layer_metrics(recorder, cfg.episode_ticks, 1)
    declared = {**run.end_to_end_units(), **run.per_layer_units()}
    for name in list(measured) + list(declared):
        assert NAME.fullmatch(name), name
    for unit in declared.values():
        assert UNIT.fullmatch(unit), unit
    # everything declared per layer is measured, apart from what run.py adds
    added = {"spans.overhead_ratio", "kernels.CoreWorld.step.isolated_us_per_call",
             "kernels.tally.isolated_us_per_call"}
    assert set(run.per_layer_units()) - added <= set(measured)


def test_benchmark_json_declares_what_run_reports():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.end_to_end_units()
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
