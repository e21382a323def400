"""`trace.LAYOUTS` is the one statement of each line's layout. walk's
checks, the writer templates and the payloads of the lines written
through `dumps` all come from it: the checks equal what trace.py stated
field by field before the table, every line written holds exactly the
table's fields, and walk accepts it."""

import dataclasses
import json

import pytest

from honeysim import trace as trace_mod
from honeysim.agent import RewardInputs
from honeysim.sensing import FeatureVector
from honeysim.trace import LAYOUTS, OPT_STR, TraceWriter, dumps, parse
from honeysim.world import WorldEvent
from test_trace import CALLS, INT, FLOAT, BOOL, STR, OPT_STR as OPT_STR_SCHEMA
from test_trace_cache import AGAIN_FIELDS

_INT, _STR, _BOOL = (int,), (str,), (bool,)
_NUMBER, _OPTIONAL_STR = (int, float), (str, type(None))

# What walk checked, as trace.py stated it before the layout table.
HEADER_FIELDS = {
    "episode_ticks": _INT,
    "window": _INT,
    "reward": {"a": _NUMBER, "b": _NUMBER, "c": _NUMBER, "floor": _INT},
}
RECORD_FIELDS = {
    "event": {"event": {"tick": _INT, "kind": _STR, "node": _STR,
                        "severity": _INT, "load": _NUMBER,
                        "truth_malicious": _BOOL}},
    "percept": {},
    "decision": {"provenance": _STR},
    "executed_action": {"action": _STR, "applied": _BOOL, "error": _OPTIONAL_STR,
                        "delta_resources": _INT, "available_before": _INT,
                        "pool_used": _INT, "pool_available": _INT},
    "veto": {"reason": _STR},
    "message": {"status": _STR, "message_kind": _STR,
                "classification": _OPTIONAL_STR,
                "evidence_start": _INT, "evidence_end": _INT},
    "reward_sample": {
        "value": _NUMBER,
        "credited_action": _OPTIONAL_STR,
        "terms": {"honey": _NUMBER, "resource": _NUMBER, "cfh": _NUMBER},
        "inputs": {name: _INT for name in (
            "honey_events", "security_events", "delta_resources",
            "total_resources", "justified_cfh", "cw")},
    },
    "agent_status": {"status": _STR},
}

# One value per row of each layout.
VALUES = {
    **{kind: [value for value, _ in fields] for kind, fields in CALLS.items()},
    "reward_sample": [-0.25, 0.5, -0.125, 0.0, 3, 2, -10, 100, 1, 0, None],
    "agent_status": ["terminated", "ruleset_tampered"],
    "header": [7, 2000, 20, "random", 1.0, 0.5, 2, 1, "ab" * 32, None],
}


def names(obj: dict) -> list:
    """The keys of `obj` at each level, a nested one as "object.field"."""
    return sorted(f"{key}.{inner}" if type(value) is dict else key
                  for key, value in obj.items()
                  for inner in (value if type(value) is dict else [None]))


def _order(fields: dict) -> list:
    """The names in `fields` in walk's order, a nested object's inside it."""
    return [(name, _order(want) if type(want) is dict else None)
            for name, want in fields.items()]


def test_walk_checks_what_it_checked_before_the_table():
    assert trace_mod.HEADER_FIELDS == HEADER_FIELDS
    assert trace_mod.RECORD_FIELDS == RECORD_FIELDS
    # in the same order, so a line with two faults names the same one
    # first; only a message's kind comes before its status, as in its
    # writer's arguments
    assert _order(trace_mod.HEADER_FIELDS) == _order(HEADER_FIELDS)
    expected = {kind: _order(fields) for kind, fields in RECORD_FIELDS.items()}
    expected["message"][:2] = expected["message"][1::-1]
    assert {kind: _order(fields) for kind, fields in trace_mod.RECORD_FIELDS.items()} \
        == expected


def test_replay_compares_a_reward_samples_value_terms_inputs_then_action():
    assert list(trace_mod.payload("reward_sample", *VALUES["reward_sample"])) \
        == ["value", "terms", "inputs", "credited_action"]


def test_templated_kinds_are_the_writer_methods():
    assert sorted(trace_mod.TEMPLATED) == sorted(CALLS)


@pytest.mark.parametrize("kind", sorted(set(LAYOUTS) - {"header"}))
def test_each_line_holds_its_layouts_fields_and_walk_accepts_it(kind):
    w = TraceWriter(trace_mod.header(*VALUES["header"]))
    payload = trace_mod.payload(kind, *VALUES[kind])
    if kind in trace_mod.TEMPLATED:
        getattr(w, kind)(4, *VALUES[kind])
    else:
        w.record(kind, 4, payload)
    lines = w.finish()
    assert lines[1] == dumps({"kind": kind, "seq": 0, "tick": 4, **payload})
    assert names(json.loads(lines[1])) \
        == sorted([name for name, _, _ in LAYOUTS[kind]] + ["kind", "seq", "tick"])
    assert parse(lines)[1][0] == json.loads(lines[1])


def test_header_holds_its_layouts_fields_and_no_absent_table():
    values = VALUES["header"]
    header = json.loads(TraceWriter(trace_mod.header(*values)).lines[0])
    assert names(header) == sorted(["format", "version"] + [
        name for name, _, _ in LAYOUTS["header"] if name != "pattern_table_digest"])
    header = json.loads(TraceWriter(trace_mod.header(*values[:-1], "cd" * 32)).lines[0])
    assert header["pattern_table_digest"] == "cd" * 32
    assert parse([dumps(header), dumps({"format": trace_mod.FORMAT_END, "records": 0})])


def _schema(type_):
    """test_trace's schema of a layout type."""
    if type(type_) is list:
        return [_schema(type_[0])]
    return {int: INT, float: FLOAT, bool: BOOL, str: STR, OPT_STR: OPT_STR_SCHEMA}[type_]


@pytest.mark.parametrize("kind", sorted(CALLS))
def test_writer_tests_take_the_layouts_types_and_shared_fields(kind):
    rows = LAYOUTS[kind]
    assert [schema for _, schema in CALLS[kind]] == [_schema(type_) for _, type_, _ in rows]
    assert AGAIN_FIELDS[kind] == tuple(i for i, (_, _, flags) in enumerate(rows)
                                       if "shared" not in flags.split())


def test_nested_fields_follow_the_types_they_come_from():
    def fields(kind, group):
        return [name.split(".")[1] for name, _, _ in LAYOUTS[kind]
                if name.startswith(group + ".")]

    assert fields("event", "event") == list(WorldEvent._fields)
    assert fields("percept", "features") == list(FeatureVector._fields)
    assert fields("reward_sample", "inputs") \
        == [field.name for field in dataclasses.fields(RewardInputs)]
