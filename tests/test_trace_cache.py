"""A traced run encodes the fields of a record that repeat within the run
once: per record kind, `_Trace` keeps the writer that the first record
with those fields returned. The caches must not move a byte. `_Trace`
fed a run's facts writes exactly the lines that a bare TraceWriter
writes when each record's fields are passed to it one by one.

The facts change one field at a time, each change written before and
after its base again, so a cache key that left out a field would write
the base's bytes for the changed record. Each `again` a writer method
returns keeps the method's contract for the fields it takes."""

import dataclasses
import itertools

import pytest

from honeysim.actions import ActionEffect
from honeysim.agent import RewardInputs, StateKey
from honeysim.cascade import Decision, StageId
from honeysim.comms import Message, MessageKind, SendRecord
from honeysim.harness import _Trace
from honeysim.sensing import FeatureVector
from honeysim.trace import LAYOUTS, TraceWriter
from honeysim.world import EventKind, ResourcePool, WorldEvent
from test_trace import CALLS, ENTRY, INT, ODD_EXAMPLES, _admits, _reference_line

HEADER = {"seed": 1}


def write_event(w, tick, events):
    for ev in events:
        w.event(tick, ev.tick, ev.kind.label, ev.node, ev.severity, ev.load,
                ev.truth_malicious)


def write_percept(w, tick, score, key, fv):
    w.percept(tick, score, key.encode(), *fv)


def write_decision(w, tick, decision):
    w.decision(tick, decision.action, decision.provenance.label,
               [(stage.label, reason) for stage, reason in decision.rejected])


def write_veto(w, tick, stage, action, reason):
    w.veto(tick, action, stage.label, reason)


def write_executed(w, tick, action, effect, target, applied, error, delta,
                   available_before, pool):
    w.executed_action(tick, action, effect.value, target, applied, error, delta,
                      available_before, pool.used, pool.available)


def write_message(w, tick, msg, rec, label):
    w.message(tick, msg.kind.value, "sent" if rec.sent else "suppressed", rec.reason,
              label, msg.evidence_start, msg.evidence_end, msg.entries, msg.action_taken)


def write_status(w, tick, status, reason):
    w.record("agent_status", tick, {"status": status, "reason": reason})


def write_reward_sample(w, tick, sample):
    value, (honey, resource, cfh), inputs, credited = sample
    w.record("reward_sample", tick, {
        "value": value, "terms": {"honey": honey, "resource": resource, "cfh": cfh},
        "inputs": dataclasses.asdict(inputs), "credited_action": credited})


# Per _Trace method: the per-field writer calls it stands for, a base
# fact as named fields, alternative values for each field, and how the
# fields make the method's arguments after the tick.
KINDS = {
    "events": (
        write_event,
        {"tick": 3, "kind": EventKind.IDS_ALERT, "node": "db-0", "severity": 2,
         "load": 0.25, "truth": True},
        {"tick": [4], "kind": [EventKind.HONEY_TOUCH, EventKind.LOAD_SAMPLE],
         "node": ["db-1", "hp-12"], "severity": [0, 7], "load": [0.5, -0.0],
         "truth": [False]},
        lambda f: ([WorldEvent(f["tick"], f["kind"], f["node"], f["severity"],
                               f["load"], f["truth"])],),
    ),
    "percept": (
        write_percept,
        {"score": 1.2345678901234567, "threat": 1, "load_bin": 2, "honeypots": 0,
         "touch": True, "fv": FeatureVector(3, 7, 1, 0, 2, 0, 1, 0.6178571428571429, 20)},
        {"score": [0.0, 2.5], "threat": [0, 3], "load_bin": [1], "honeypots": [3],
         "touch": [False],
         "fv": [FeatureVector(3, 7, 1, 0, 2, 0, 1, 0.5, 20),
                FeatureVector(9, 1, 1, 0, 2, 0, 1, 0.6178571428571429, 7)]},
        # a new but equal StateKey each time
        lambda f: (f["score"],
                   StateKey(f["threat"], f["load_bin"], f["honeypots"], f["touch"]),
                   f["fv"]),
    ),
    "decision": (
        write_decision,
        {"action": "noop", "provenance": StageId.ONLINE_LEARNING,
         "rejected": ((StageId.PATTERN_RECOGNITION, "no_proposal"),), "vetoes": (),
         "replied": False},
        {"action": ["cry_for_help"],
         "provenance": [StageId.HUMAN_ESCALATION, StageId.FAIL_SAFE],
         "rejected": [((StageId.PATTERN_RECOGNITION, "unavailable"),),
                      ((StageId.ONLINE_LEARNING, "no_proposal"),),
                      ((StageId.PATTERN_RECOGNITION, "no_proposal"),
                       (StageId.ONLINE_LEARNING, "guardrail:autonomy_gate")),
                      ()],
         # written nowhere in a decision record
         "vetoes": [((StageId.ONLINE_LEARNING, "noop", "guardrail:autonomy_gate"),)],
         "replied": [True]},
        lambda f: (Decision(f["action"], f["provenance"], f["rejected"], f["vetoes"],
                            f["replied"]),),
    ),
    "veto": (
        write_veto,
        {"stage": StageId.ONLINE_LEARNING, "action": "cry_for_help",
         "reason": "guardrail:autonomy_gate"},
        {"stage": [StageId.PATTERN_RECOGNITION], "action": ["quarantine_node"],
         "reason": ["guardrail:impact_budget"]},
        lambda f: (f["stage"], f["action"], f["reason"]),
    ),
    "executed": (
        write_executed,
        {"action": "quarantine_node", "effect": ActionEffect.QUARANTINE_NODE,
         "target": "web-1", "applied": True, "error": None, "delta": -10,
         "before": 50, "used": 90, "capacity": 140},
        {"action": ["rotate_address"], "effect": [ActionEffect.ROTATE_ADDRESS],
         "target": [None, "app-0"], "applied": [False],
         "error": ["no_target", "insufficient_resources"], "delta": [0, 10],
         "before": [40], "used": [100], "capacity": [150]},
        lambda f: (f["action"], f["effect"], f["target"], f["applied"], f["error"],
                   f["delta"], f["before"], ResourcePool(f["capacity"], f["used"])),
    ),
    "message": (
        write_message,
        {"kind": MessageKind.ALERT, "start": 0, "end": 0, "action_taken": "noop",
         "entries": (), "sent": True, "reason": None, "label": None},
        {"kind": [MessageKind.HEARTBEAT, MessageKind.SHARE_BLOCKLIST],
         "start": [3], "end": [9], "action_taken": [None, "cry_for_help"],
         "entries": [(3, 7), (3,)], "sent": [False],
         "reason": ["emission_blocked", "guardrail:autonomy_gate"],
         "label": ["justified", "cry_wolf"]},
        lambda f: (Message(f["kind"], f["start"], f["end"], f["action_taken"],
                           f["entries"]),
                   SendRecord(f["sent"], f["reason"]), f["label"]),
    ),
    "status": (
        write_status,
        {"status": "terminated", "reason": "ruleset_tampered"},
        {"status": ["active"], "reason": ["self_terminated", "episode_start"]},
        lambda f: (f["status"], f["reason"]),
    ),
    "reward_sample": (
        write_reward_sample,
        {"value": 0.5, "terms": (0.25, 0.25, 0.0), "inputs": RewardInputs(3, 2, -10, 100, 1, 0),
         "credited": "noop"},
        {"value": [-1.5], "terms": [(0.0, -0.125, 1.0)],
         "inputs": [RewardInputs(0, 0, 0, 50, 0, 2)], "credited": [None, "cry_for_help"]},
        lambda f: ((f["value"], f["terms"], f["inputs"], f["credited"]),),
    ),
}


def one_field_changes(base: dict, alternatives: dict):
    """The base, then each field changed alone to each of its
    alternatives, that change written before and after the base again."""
    yield base
    for name, values in alternatives.items():
        for value in values:
            changed = {**base, name: value}
            yield changed
            yield base
            yield changed


def lines_both_ways(facts) -> tuple:
    """The lines of `_Trace` and of a bare TraceWriter fed (kind, tick, args)."""
    cached = _Trace(HEADER)
    bare = TraceWriter(HEADER)
    bare.record("agent_status", 0, {"status": "active", "reason": "episode_start"})
    for kind, tick, args in facts:
        getattr(cached, kind)(tick, *args)
        KINDS[kind][0](bare, tick, *args)
    return cached.finish(), bare.finish()


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_caches_write_what_per_field_calls_write(kind):
    _, base, alternatives, make = KINDS[kind]
    assert set(alternatives) == set(base)
    facts = [(kind, tick, make(fields))
             for tick, fields in enumerate(one_field_changes(base, alternatives))]
    cached, bare = lines_both_ways(facts)
    assert len(cached) == len(facts) + 3
    assert cached == bare


def test_kinds_interleaved_write_what_per_field_calls_write():
    runs = [[(kind, make(fields)) for fields in one_field_changes(base, alternatives)]
            for kind, (_, base, alternatives, make) in sorted(KINDS.items())]
    interleaved = [fact for turn in itertools.zip_longest(*runs) for fact in turn if fact]
    cached, bare = lines_both_ways((kind, tick, args)
                                   for tick, (kind, args) in enumerate(interleaved))
    assert cached == bare


# The fields, after the tick, that the `again` of each writer method
# takes, by their place in test_trace.CALLS.
AGAIN_FIELDS = {
    "event": (0, 3, 4),
    "percept": (0, 2, 3, 4, 5, 6, 7, 8, 9, 10),
    "decision": (),
    "veto": (),
    "executed_action": (2, 5, 6, 7, 8),
    "message": (4, 5),
}


@pytest.mark.parametrize("kind", sorted(CALLS))
def test_again_writes_what_dumps_writes_or_raises_before_appending(kind):
    """Each field an `again` takes, the tick too, replaced by each odd
    value: a value the field may hold is written as dumps writes the
    record with the method's other fields; any other raises TypeError or
    ValueError and leaves the writer's lines and seq as they were."""
    fields = [value for value, _ in CALLS[kind]]
    taken = AGAIN_FIELDS[kind]
    schemas = [INT] + [CALLS[kind][i][1] for i in taken]
    w = TraceWriter({})
    again = getattr(w, kind)(7, *fields)
    for place, schema in enumerate(schemas):
        for value in ODD_EXAMPLES:
            call = [7] + [fields[i] for i in taken]
            call[place] = value
            seq, lines = w.seq, list(w.lines)
            if _admits(schema, value):
                again(*call)
                tick, *values = call
                record = dict(zip(taken, values))
                full = [record.get(i, field) for i, field in enumerate(fields)]
                assert w.lines[-1] == _reference_line(kind, seq, tick, ENTRY[kind](*full))
                assert w.seq == seq + 1
            else:
                with pytest.raises((TypeError, ValueError)):
                    again(*call)
                assert (w.lines, w.seq) == (lines, seq), (place, value)


@pytest.mark.parametrize("kind", sorted(set(KINDS) - {"status", "reward_sample"}))
def test_some_fact_change_moves_each_shared_field(kind):
    """The keys checked against the layout: each shared field of the
    kind's layout takes a new value under some one-fact change above, so
    test_caches_write_what_per_field_calls_write fails for a key that
    leaves out the fact the field comes from."""
    write, base, alternatives, make = KINDS[kind]
    calls = []

    class Spy:
        def __getattr__(self, method):
            return lambda tick, *args: calls.append((method, args))

    for fields in one_field_changes(base, alternatives):
        write(Spy(), 0, *make(fields))
    (method,) = {method for method, _ in calls}
    rows = LAYOUTS[method]
    moved = {name for _, args in calls
             for (name, _, _), value, first in zip(rows, args, calls[0][1]) if value != first}
    assert moved >= {name for name, _, flags in rows if "shared" in flags.split()}
