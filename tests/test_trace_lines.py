"""The lines a run writes are canonical, and the per-tick ones come from
the writer's per-kind methods rather than the generic encoder. A traced
run, an untraced one and the replay of the trace report the same
metrics, and an untraced run builds no trace record."""

import collections
import functools
import json
import os

import pytest

from honeysim import config as config_mod
from honeysim import trace as trace_mod
from honeysim.agent import QTable
from honeysim.harness import (QPolicy, RandomPolicy, replay, run_scenario,
                              train_agent)

REFERENCE = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                         "reference.yaml")
CONTESTED_SEED = 4


def contested(tamper_tick=None):
    """400 ticks of the reference scenario under pressure.

    Heartbeats every 5 ticks and an alert after each action; EMCON goes
    restricted at tick 100 and silent at 200; the fail-safe terminates.
    cry_for_help may run under the restricted gate, so there the
    operator's first option rescues a vetoed proposal, while the cry
    itself, which needs the collaborative gate, is suppressed. In
    silence the first vetoed proposal reaches the fail-safe. A tamper
    tick, when given, ends the agent before that.
    """
    data = config_mod.load_file(REFERENCE).to_dict()
    data["episode_ticks"] = 400
    data["comms"] = {"heartbeat_every": 5, "alert_after_actions": True}
    data["env"]["emcon_schedule"] = [{"tick": 0, "level": "open"},
                                     {"tick": 100, "level": "restricted"},
                                     {"tick": 200, "level": "silent"}]
    data["cascade"]["failsafe_profile"] = "terminate"
    data["agent"]["actions"] = {"cry_for_help": {"autonomy": "previsioned"}}
    data["guardrails"]["tamper_tick"] = tamper_tick
    return config_mod.from_mapping(data)


@functools.lru_cache(maxsize=None)
def greedy_policy():
    return QPolicy(train_agent(config_mod.load_file(REFERENCE), 2, seeds=[0, 1]).qtable)


RUNS = {
    "reference-random": lambda: (config_mod.load_file(REFERENCE), 0, RandomPolicy()),
    "reference-q": lambda: (config_mod.load_file(REFERENCE), 0, greedy_policy()),
    "contested-failsafe": lambda: (contested(), CONTESTED_SEED, RandomPolicy()),
    "contested-tamper": lambda: (contested(tamper_tick=150), CONTESTED_SEED, RandomPolicy()),
}


def _records(lines):
    return [json.loads(line) for line in lines[1:-1]]


@pytest.mark.parametrize("run", sorted(RUNS))
def test_every_line_is_canonical(run):
    _, lines = run_scenario(*RUNS[run]())
    for line in lines:
        assert trace_mod.dumps(json.loads(line)) == line


def test_contested_runs_reach_every_record_shape():
    fail_safe = _records(run_scenario(*RUNS["contested-failsafe"]())[1])
    tampered = _records(run_scenario(*RUNS["contested-tamper"]())[1])
    for recs in (fail_safe, tampered):
        messages = {(r["message_kind"], r["status"]) for r in recs if r["kind"] == "message"}
        assert {("heartbeat", "sent"), ("alert", "sent"),
                ("cry_for_help", "suppressed")} <= messages
        assert any(r["kind"] == "veto" for r in recs)
        assert any(r["kind"] == "decision" and r["provenance"] == "human_escalation"
                   for r in recs)
    assert ("heartbeat", "suppressed") in {
        (r["message_kind"], r["status"]) for r in fail_safe if r["kind"] == "message"}
    last_decision = [r for r in fail_safe if r["kind"] == "decision"][-1]
    assert (last_decision["provenance"], last_decision["action"]) == ("fail_safe", "terminate_self")
    assert [r["reason"] for r in fail_safe if r["kind"] == "agent_status"] \
        == ["episode_start", "self_terminated"]
    assert [(r["reason"], r["tick"]) for r in tampered if r["kind"] == "agent_status"] \
        == [("episode_start", 0), ("ruleset_tampered", 150)]


def test_per_tick_kinds_never_fall_back_to_dumps(monkeypatch):
    """Only the header, the footer and the reward_sample and agent_status
    lines go through dumps, and only those two kinds through
    TraceWriter.record."""
    real_dumps, real_record = trace_mod.dumps, trace_mod.TraceWriter.record
    encoded, recorded = [], []

    def counting_dumps(obj):
        encoded.append(obj.get("kind", obj.get("format")))
        return real_dumps(obj)

    def counting_record(self, kind, tick, payload):
        recorded.append(kind)
        real_record(self, kind, tick, payload)

    monkeypatch.setattr(trace_mod, "dumps", counting_dumps)
    monkeypatch.setattr(trace_mod.TraceWriter, "record", counting_record)
    _, lines = run_scenario(*RUNS["contested-failsafe"]())
    kinds = collections.Counter(rec["kind"] for rec in _records(lines))
    generic = {"reward_sample": kinds["reward_sample"],
               "agent_status": kinds["agent_status"]}
    assert collections.Counter(encoded) == {
        trace_mod.FORMAT: 1, trace_mod.FORMAT_END: 1, **generic}
    assert collections.Counter(recorded) == generic


@pytest.mark.parametrize("run", sorted(RUNS))
def test_traced_untraced_and_replayed_reports_agree(run):
    config, seed, policy = RUNS[run]()
    untraced, no_lines = run_scenario(config, seed, policy, with_trace=False)
    traced, lines = run_scenario(config, seed, policy)
    assert no_lines == []
    assert untraced == traced
    assert replay(lines) == traced


def test_learning_runs_agree_traced_and_untraced():
    config = config_mod.load_file(REFERENCE)
    start = greedy_policy().qtable.to_dict()
    tables = [QTable.from_dict(start) for _ in range(2)]
    reports = [run_scenario(config, 7, QPolicy(table, epsilon=0.3), learn=True,
                            with_trace=with_trace)[0]
               for table, with_trace in zip(tables, (True, False))]
    assert reports[0] == reports[1]
    assert tables[0].values == tables[1].values
    assert tables[0].values != QTable.from_dict(start).values


def test_untraced_runs_build_no_trace_records(monkeypatch):
    """Without a trace the accountant is fed fields: no event payload is
    built and nothing reaches a trace writer."""
    def refuse(*args, **kwargs):
        raise AssertionError("an untraced run built a trace record")

    for method in ("record", "event", "percept", "decision", "veto",
                   "executed_action", "message"):
        monkeypatch.setattr(trace_mod.TraceWriter, method, refuse)
    train_agent(config_mod.load_file(REFERENCE), 1)
    config, seed, policy = RUNS["contested-failsafe"]()
    report, lines = run_scenario(config, seed, policy, with_trace=False)
    assert lines == []
    assert report.vetoes_by_reason and report.messages_sent \
        and report.messages_suppressed
    assert report.agent_terminated_at is not None
