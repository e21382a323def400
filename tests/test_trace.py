import json

import pytest

from honeysim.errors import TraceCorrupt
from honeysim.trace import TraceWriter, dumps, parse, read_file


def sample_lines():
    w = TraceWriter({"seed": 1, "episode_ticks": 3, "window": 2,
                     "reward": {"a": 1, "b": 1, "c": 1, "floor": 1}})
    w.record("agent_status", 0, {"status": "active", "reason": "episode_start"})
    w.record("event", 0, {"event": {"kind": "load_sample", "node": "db-0",
                                    "severity": 0, "load": 0.5, "tick": 0,
                                    "truth_malicious": False}})
    w.record("decision", 1, {"action": "noop", "provenance": "fail_safe",
                             "rejected": []})
    return w.finish()


def test_round_trip():
    lines = sample_lines()
    header, records = parse(lines)
    assert header["seed"] == 1
    assert [r["kind"] for r in records] == ["agent_status", "event", "decision"]
    assert [r["seq"] for r in records] == [0, 1, 2]


def test_truncated_trace_detected():
    lines = sample_lines()
    with pytest.raises(TraceCorrupt, match="footer"):
        parse(lines[:-1])
    with pytest.raises(TraceCorrupt):
        parse(lines[:-2] + [lines[-1]])  # dropped record, footer count wrong


def test_shuffled_records_detected():
    lines = sample_lines()
    shuffled = [lines[0], lines[2], lines[1], lines[3], lines[4]]
    with pytest.raises(TraceCorrupt):
        parse(shuffled)


def test_bad_header_detected():
    lines = sample_lines()
    with pytest.raises(TraceCorrupt, match="header"):
        parse([dumps({"format": "something-else"})] + lines[1:])
    with pytest.raises(TraceCorrupt):
        parse(["not json"] + lines[1:])
    w = TraceWriter({"episode_ticks": 3, "window": 0,
                     "reward": {"a": 1, "b": 1, "c": 1, "floor": 1}})
    with pytest.raises(TraceCorrupt, match="header"):
        parse(w.finish())


def test_unknown_record_kind_detected():
    lines = sample_lines()
    bogus = dumps({"kind": "surprise", "seq": 0, "tick": 0})
    with pytest.raises(TraceCorrupt, match="unknown record kind"):
        parse([lines[0], bogus] + lines[2:])


def test_tick_ordering_enforced():
    w = TraceWriter({})
    w.record("event", 5, {"event": {}})
    w.record("event", 4, {"event": {}})
    with pytest.raises(TraceCorrupt, match="ordering"):
        parse(w.finish())


def test_empty_trace_detected():
    with pytest.raises(TraceCorrupt):
        parse([])


def test_non_utf8_file_is_corrupt(tmp_path):
    path = tmp_path / "run.trace"
    path.write_bytes(b"\xff\xfe not a trace\n")
    with pytest.raises(TraceCorrupt, match="UTF-8"):
        read_file(path)


@pytest.mark.parametrize("mutate", [
    lambda rec: rec.pop("provenance"),
    lambda rec: rec.update(provenance=None),
    lambda rec: rec.update(provenance=3),
])
def test_missing_or_mistyped_record_field_detected(mutate):
    w = TraceWriter({"episode_ticks": 3, "window": 2,
                     "reward": {"a": 1, "b": 1, "c": 1, "floor": 1}})
    rec = {"action": "noop", "provenance": "fail_safe", "rejected": []}
    mutate(rec)
    w.record("decision", 0, rec)
    with pytest.raises(TraceCorrupt, match="provenance"):
        parse(w.finish())


@pytest.mark.parametrize("reward", [
    {"a": 1, "b": 1, "c": 1},
    {"a": float("nan"), "b": 1, "c": 1, "floor": 1},
    {"a": 1, "b": 1, "c": 1, "floor": 0},
    {"a": 1, "b": True, "c": 1, "floor": 1},
    {"a": 1, "b": 1, "c": 1, "floor": 1, "d": 1},
])
def test_header_reward_parameters_checked(reward):
    w = TraceWriter({"episode_ticks": 3, "window": 2, "reward": reward})
    with pytest.raises(TraceCorrupt, match="header"):
        parse(w.finish())


def test_dumps_is_sorted_compact_json():
    record = {"kind": "message", "seq": 3, "tick": 7, "zero": -0.0,
              "tiny": 1e-7, "text": "hé ☃ \U0001F41D \"q\" \\ \n",
              "nested": [[1, [2.5, None]], {"b": True, "a": [], "é": "x"}]}
    assert dumps(record) == json.dumps(record, sort_keys=True, separators=(",", ":"))
