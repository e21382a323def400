import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from honeysim import trace as trace_mod
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


# One payload of each kind TraceWriter writes from a line template, in
# the layout the harness gives it.
TEMPLATED = {
    "event": {"event": {"tick": 3, "kind": "ids_alert", "node": "db-0",
                        "severity": 2, "load": 0.25, "truth_malicious": True}},
    "percept": {"features": {"ids_alert_count": 1, "ids_severity_sum": 3,
                             "antimalware_alerts": 0, "unauthorized_accesses": 2,
                             "honey_touches": 4, "dummy_process_alerts": 0,
                             "integrity_violations": 1, "system_load": 0.6178571428571429,
                             "window_ticks": 20},
                "anomaly": 12.345678901234567, "state": "2,1,0,1"},
    "decision": {"action": "noop", "provenance": "human_escalation",
                 "rejected": [["pattern_recognition", "no_proposal"],
                              ["online_learning", "guardrail:autonomy_gate"]]},
    "executed_action": {"action": "quarantine_node", "effect": "quarantine_node",
                        "target": "web-1", "applied": False, "error": "no_target",
                        "delta_resources": -10, "available_before": 50,
                        "pool_used": 90, "pool_available": 50},
    "message": {"message_kind": "share_blocklist", "status": "suppressed",
                "reason": "emission_blocked", "classification": None,
                "evidence_start": 0, "evidence_end": 0, "entries": [3, 7],
                "action_taken": None},
    "veto": {"action": "cry_for_help", "stage": "online_learning",
             "reason": "guardrail:autonomy_gate"},
}

# Values a field could hold in place of its own: the bool and int
# swaps, ints beyond 64 bits or too long for str(), signed zero and the
# non-finite floats, null, text that needs escaping, and containers.
ODD_EXAMPLES = [True, False, 0, -1, 2**64, -(10**30), 10**5000, 0.5, -0.0,
                float("nan"), float("inf"), float("-inf"), None, "", "é",
                "☃ \U0001F41D", '"\\\n\x00', [], [1, "a", True], {}, {"a": 1}]

ODD_VALUES = st.one_of(
    st.sampled_from(ODD_EXAMPLES).map(copy.deepcopy),  # later changes may edit it
    st.integers(),
    st.floats(),
    st.text(max_size=4),
    st.lists(st.one_of(st.integers(), st.text(max_size=2), st.booleans()), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


def _reference_line(kind, seq, tick, payload):
    entry = {"kind": kind, "seq": seq, "tick": tick}
    entry.update(payload)
    return dumps(entry)


def _assert_writes_what_dumps_writes(kind, tick, payload):
    """record writes dumps of the entry, or raises the type dumps raises."""
    w = TraceWriter({})
    try:
        expected = _reference_line(kind, 0, tick, payload)
    except Exception as exc:
        with pytest.raises(Exception) as raised:
            w.record(kind, tick, payload)
        assert raised.type is type(exc)
    else:
        w.record(kind, tick, payload)
        assert w.lines[-1] == expected


def _containers(obj, path=()):
    """(path, container) for obj and every dict or list inside it."""
    if type(obj) in (dict, list):
        yield path, obj
        for key, value in (obj.items() if type(obj) is dict else enumerate(obj)):
            yield from _containers(value, path + (key,))


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


@pytest.mark.parametrize("kind", sorted(TEMPLATED))
def test_templated_kinds_do_not_call_dumps(kind, monkeypatch):
    expected = _reference_line(kind, 0, 7, TEMPLATED[kind])
    w = TraceWriter({})

    def refuse(obj):
        raise AssertionError(f"dumps called for {obj!r}")

    monkeypatch.setattr(trace_mod, "dumps", refuse)
    w.record(kind, 7, TEMPLATED[kind])
    assert w.lines[-1] == expected


@pytest.mark.parametrize("kind", sorted(TEMPLATED))
def test_every_single_change_writes_what_dumps_writes(kind):
    """Each field, list item or the tick replaced by each odd value; each
    key or item dropped; a key added to each dict, a top-level one among
    them shadowing kind, seq or tick."""
    for value in ODD_EXAMPLES:
        _assert_writes_what_dumps_writes(kind, value, TEMPLATED[kind])
    for path, container in list(_containers(TEMPLATED[kind])):
        keys = list(container) if type(container) is dict else range(len(container))
        for key in keys:
            for value in ODD_EXAMPLES:
                payload = copy.deepcopy(TEMPLATED[kind])
                _at(payload, path)[key] = value
                _assert_writes_what_dumps_writes(kind, 7, payload)
            payload = copy.deepcopy(TEMPLATED[kind])
            del _at(payload, path)[key]
            _assert_writes_what_dumps_writes(kind, 7, payload)
        if type(container) is dict:
            for key in ("kind", "seq", "tick", "zz"):
                payload = copy.deepcopy(TEMPLATED[kind])
                _at(payload, path)[key] = 1
                _assert_writes_what_dumps_writes(kind, 7, payload)


@settings(max_examples=1000, deadline=None)
@given(data=st.data())
def test_templates_write_what_dumps_writes_after_many_changes(data):
    kind = data.draw(st.sampled_from(sorted(TEMPLATED)), label="kind")
    payload = copy.deepcopy(TEMPLATED[kind])
    tick = 7
    for _ in range(data.draw(st.integers(1, 4), label="changes")):
        op = data.draw(st.sampled_from(["replace", "drop", "add", "tick"]), label="op")
        sites = [c for _, c in _containers(payload) if c or op == "add"]
        if op == "tick":
            tick = data.draw(ODD_VALUES, label="tick")
        elif sites:
            c = data.draw(st.sampled_from(sites), label="where")
            if op == "add" and type(c) is list:
                c.append(data.draw(ODD_VALUES, label="value"))
                continue
            if op == "add":
                key = data.draw(st.sampled_from(["kind", "seq", "tick", "zz"])
                                | st.text(max_size=3), label="key")
            else:
                key = data.draw(st.sampled_from(list(c) if type(c) is dict
                                                else range(len(c))), label="key")
            if op == "drop":
                del c[key]
            else:
                c[key] = data.draw(ODD_VALUES, label="value")
    _assert_writes_what_dumps_writes(kind, tick, payload)
