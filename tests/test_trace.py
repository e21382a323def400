import copy
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from honeysim import trace as trace_mod
from honeysim.errors import TraceCorrupt
from honeysim.sensing import FeatureVector
from honeysim.trace import TraceWriter, dumps, parse, read_file
from honeysim.world import EventKind, WorldEvent
from oracles import event_payload


def sample_lines():
    w = TraceWriter({"seed": 1, "episode_ticks": 3, "window": 2,
                     "reward": {"a": 1, "b": 1, "c": 1, "floor": 1}})
    w.record("agent_status", 0, {"status": "active", "reason": "episode_start"})
    w.event(0, 0, "load_sample", "db-0", 0, 0.5, False)
    w.decision(1, "noop", "fail_safe", [])
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


# One well-typed call of each per-tick writer method: its fields after
# the tick, each with the schema of the values it may hold. A schema is
# a tuple of exact types, or [item schema] for a list or tuple of items.
INT, FLOAT, BOOL, STR, OPT_STR = (int,), (float,), (bool,), (str,), (str, type(None))
CALLS = {
    "event": [(3, INT), ("ids_alert", STR), ("db-0", STR), (2, INT), (0.25, FLOAT),
              (True, BOOL)],
    "percept": [(12.345678901234567, FLOAT), ("2,1,0,1", STR), (1, INT), (3, INT),
                (0, INT), (2, INT), (4, INT), (0, INT), (1, INT),
                (0.6178571428571429, FLOAT), (20, INT)],
    "decision": [("noop", STR), ("human_escalation", STR),
                 ([["pattern_recognition", "no_proposal"],
                   ["online_learning", "guardrail:autonomy_gate"]], [[STR]])],
    "veto": [("cry_for_help", STR), ("online_learning", STR),
             ("guardrail:autonomy_gate", STR)],
    "executed_action": [("quarantine_node", STR), ("quarantine_node", STR),
                        ("web-1", OPT_STR), (False, BOOL), ("no_target", OPT_STR),
                        (-10, INT), (50, INT), (90, INT), (50, INT)],
    "message": [("share_blocklist", STR), ("suppressed", STR),
                ("emission_blocked", OPT_STR), (None, OPT_STR), (0, INT), (0, INT),
                ([3, 7], [INT]), (None, OPT_STR)],
}


def _named(*names):
    return lambda *args: dict(zip(names, args))


# The payload each method's fields stand for: the event in WorldEvent's
# layout, the percept's features in FeatureVector's, the rest by name.
ENTRY = {
    "event": lambda *args: {"event": dict(zip(WorldEvent._fields, args))},
    "percept": lambda anomaly, state, *features: {
        "anomaly": anomaly, "state": state,
        "features": FeatureVector(*features)._asdict()},
    "decision": _named("action", "provenance", "rejected"),
    "veto": _named("action", "stage", "reason"),
    "executed_action": _named("action", "effect", "target", "applied", "error",
                              "delta_resources", "available_before", "pool_used",
                              "pool_available"),
    "message": _named("message_kind", "status", "reason", "classification",
                      "evidence_start", "evidence_end", "entries", "action_taken"),
}

# Values a field could hold in place of its own: the bool and int
# swaps, ints beyond 64 bits or too long for str(), signed zero and the
# non-finite floats, null, text that needs escaping, bytes, and
# containers, some of which iterate to well-typed items.
ODD_EXAMPLES = [True, False, 0, -1, 2**64, -(10**30), 10**5000, 0.5, -0.0,
                float("nan"), float("inf"), float("-inf"), None, "", "é",
                "☃ \U0001F41D", '"\\\n\x00', b"x", [], (), ("a", "b"),
                [1, "a", True], {}, {"a": 1}, {1: 2}]


def _admits(schema, value) -> bool:
    """Whether a field of `schema` may hold value and dumps can write it."""
    if type(schema) is list:
        return type(value) in (list, tuple) and all(_admits(schema[0], v) for v in value)
    t = type(value)
    return t in schema and not (t is float and not math.isfinite(value)) \
        and not (t is int and abs(value) >= 10**4300)


def _reference_line(kind, seq, tick, payload):
    entry = {"kind": kind, "seq": seq, "tick": tick}
    entry.update(payload)
    return dumps(entry)


def _slots(args, schemas):
    """(path, schema) for each field and, inside array fields, each item."""
    for i, (value, schema) in enumerate(zip(args, schemas)):
        yield (i,), schema
        if type(schema) is list:
            for path, inner in _slots(value, [schema[0]] * len(value)):
                yield (i,) + path, inner


def _replaced(args, path, value):
    args = copy.deepcopy(list(args))
    holder = args
    for i in path[:-1]:
        holder = holder[i]
    holder[path[-1]] = value
    return args


@pytest.mark.parametrize("kind", sorted(CALLS))
def test_templated_kinds_do_not_call_dumps(kind, monkeypatch):
    args = [value for value, _ in CALLS[kind]]
    expected = _reference_line(kind, 0, 7, ENTRY[kind](*args))
    w = TraceWriter({})

    def refuse(obj):
        raise AssertionError(f"dumps called for {obj!r}")

    monkeypatch.setattr(trace_mod, "dumps", refuse)
    getattr(w, kind)(7, *args)
    assert w.lines[-1] == expected


@pytest.mark.parametrize("kind", sorted(CALLS))
def test_every_single_change_writes_what_dumps_writes(kind):
    """The tick, each field and each item of an array field replaced by
    each odd value. A value the field may hold is written as dumps writes
    it; any other raises TypeError or ValueError and leaves the writer's
    lines and seq as they were."""
    call = [7] + [value for value, _ in CALLS[kind]]
    schemas = [INT] + [schema for _, schema in CALLS[kind]]
    for path, schema in _slots(call, schemas):
        for value in ODD_EXAMPLES:
            tick, *fields = _replaced(call, path, value)
            w = TraceWriter({})
            w.seq = 5
            before = list(w.lines)
            if _admits(schema, value):
                getattr(w, kind)(tick, *fields)
                assert w.lines[-1] == _reference_line(kind, 5, tick, ENTRY[kind](*fields))
                assert w.seq == 6
            else:
                with pytest.raises((TypeError, ValueError)):
                    getattr(w, kind)(tick, *fields)
                assert (w.lines, w.seq) == (before, 5), (path, value)


TEXT = st.text() | st.sampled_from(["", "é", "☃ \U0001F41D", '"\\\n\x00\x1f\u2028'])
INTS = st.integers() | st.sampled_from([2**63 - 1, 2**64, -(2**64) - 1, 10**40])
FLOATS = st.floats(allow_nan=False, allow_infinity=False) \
    | st.sampled_from([-0.0, 5e-324, 2.5e-310, 1.7976931348623157e308])
LEAVES = {int: INTS, float: FLOATS, bool: st.booleans(), str: TEXT,
          type(None): st.none()}


def _values(schema):
    """Hypothesis strategy for the values a field of `schema` may hold."""
    if type(schema) is list:
        items = st.lists(_values(schema[0]), max_size=4)
        return items | items.map(tuple)
    return st.one_of(*(LEAVES[t] for t in schema))


EVENTS = st.builds(WorldEvent, INTS, st.sampled_from(EventKind), TEXT, INTS, FLOATS,
                   st.booleans())


@settings(max_examples=1000, deadline=None)
@given(data=st.data())
def test_templates_write_what_dumps_writes_after_many_changes(data):
    """Every field of a call drawn anew, well typed: the line is the one
    dumps writes for the entry, the event's as oracles.event_payload and the
    percept's features as FeatureVector._asdict lay them out."""
    kind = data.draw(st.sampled_from(sorted(CALLS)), label="kind")
    if kind == "event":
        ev = data.draw(EVENTS, label="event")
        args, payload = (ev.tick, ev.kind.label, *ev[2:]), {"event": event_payload(ev)}
    else:
        args = data.draw(st.tuples(*(_values(s) for _, s in CALLS[kind])), label="fields")
        payload = ENTRY[kind](*args)
    tick = data.draw(INTS, label="tick")
    seq = data.draw(st.integers(0, 2**40), label="seq")
    w = TraceWriter({})
    w.seq = seq
    getattr(w, kind)(tick, *args)
    assert w.lines[1:] == [_reference_line(kind, seq, tick, payload)]
    assert w.seq == seq + 1
