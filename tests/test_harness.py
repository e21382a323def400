import functools
import hashlib
import json
import subprocess
import sys
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_config
from honeysim import cli as cli_mod
from honeysim import config as config_mod
from honeysim import harness
from honeysim import trace as trace_mod
from honeysim.actions import build_catalog
from honeysim.agent import (QTable, RewardInputs, RewardParams, StateKey, reward,
                            reward_terms)
from honeysim.comms import MessageKind
from honeysim.errors import TraceCorrupt
from honeysim.harness import (QPolicy, RandomPolicy, epsilon_for_episode,
                              MetricsReport, load_qtable, replay, run_scenario,
                              save_qtable, train_agent)
from honeysim.sensing import collect
from honeysim.world import EventKind, WorldEvent
from oracles import write_pattern_table
from test_golden import reference

REPO = Path(__file__).resolve().parent.parent
SHORT = {"episode_ticks": 120}


def small_config(**over):
    base = {
        "world": {
            "capacity": 120,
            "database": {"count": 2, "cost": 10},
            "application": {"count": 2, "cost": 10},
            "web": {"count": 2, "cost": 10},
            "honeypot": {"count": 1, "cost": 10},
            "campaigns": [{"id": "apt-0", "intensity": 0.7}],
        },
        **SHORT,
    }
    base.update(over)
    return make_config(**base)


def test_zero_attacker_run_has_no_malicious_metrics():
    cfg = small_config(world={
        "capacity": 100,
        "database": {"count": 3, "cost": 10},
        "application": {"count": 3, "cost": 10},
        "web": {"count": 3, "cost": 10},
        "honeypot": {"count": 0, "cost": 10},
        "campaigns": [],
    }, episode_ticks=500)
    report, lines = run_scenario(cfg, 11, RandomPolicy())
    assert report.real_server_compromises == 0
    assert report.honeypot_engagements == 0
    _, records = trace_mod.parse(lines)
    for rec in records:
        if rec["kind"] == "reward_sample":
            assert rec["inputs"]["honey_events"] == 0
            assert rec["inputs"]["security_events"] == 0
        if rec["kind"] == "event":
            assert not rec["event"]["truth_malicious"]


def test_same_run_is_byte_identical():
    cfg = small_config()
    report_a, lines_a = run_scenario(cfg, 21, RandomPolicy())
    report_b, lines_b = run_scenario(cfg, 21, RandomPolicy())
    assert lines_a == lines_b
    assert report_a == report_b


def test_different_seeds_differ():
    cfg = small_config()
    _, lines_a = run_scenario(cfg, 1, RandomPolicy())
    _, lines_b = run_scenario(cfg, 2, RandomPolicy())
    assert lines_a != lines_b


def test_all_silent_schedule_sends_nothing():
    cfg = small_config(env={"emcon_schedule": [{"tick": 0, "level": "silent"}]},
                       comms={"heartbeat_every": 10})
    report, lines = run_scenario(cfg, 33, RandomPolicy())
    assert report.messages_sent == 0
    _, records = trace_mod.parse(lines)
    for rec in records:
        if rec["kind"] == "message":
            assert rec["status"] == "suppressed"


def test_replay_reproduces_live_report():
    cfg = small_config()
    report, lines = run_scenario(cfg, 5, RandomPolicy())
    assert replay(lines) == report


def test_replay_rejects_corrupted_reward():
    cfg = small_config()
    _, lines = run_scenario(cfg, 5, RandomPolicy())
    doctored = []
    for line in lines:
        if '"kind":"reward_sample"' in line and '"value":0.0' not in line:
            rec = json.loads(line)
            rec["value"] = rec["value"] + 1.0
            line = trace_mod.dumps(rec)
        doctored.append(line)
    with pytest.raises(TraceCorrupt):
        replay(doctored)


def test_replay_rejects_flipped_cfh_classification():
    # Relabel one justified cry for help as cry wolf and make its period's
    # reward sample agree with the new label: the events still show an
    # attacker in the evidence window, so replay must refuse the trace.
    _, lines = run_scenario(small_config(), 5, RandomPolicy())
    recs = [json.loads(line) for line in lines]
    rw = recs[0]["reward"]
    params = RewardParams(rw["a"], rw["b"], rw["c"], rw["floor"])
    flip = next(i for i, r in enumerate(recs)
                if r.get("kind") == "message" and r["classification"] == "justified")
    recs[flip]["classification"] = "cry_wolf"
    sample = next(r for r in recs[flip:] if r.get("kind") == "reward_sample")
    sample["inputs"]["justified_cfh"] -= 1
    sample["inputs"]["cw"] += 1
    inputs = RewardInputs(**sample["inputs"])
    sample["value"] = reward(params, inputs)
    sample["terms"] = dict(zip(("honey", "resource", "cfh"),
                               reward_terms(params, inputs)))
    with pytest.raises(TraceCorrupt, match="classification"):
        replay([trace_mod.dumps(r) for r in recs])


def _first(recs, kind):
    return next(r for r in recs if r.get("kind") == kind)


@pytest.mark.parametrize("corrupt", [
    lambda recs: _first(recs, "event").pop("event"),
    lambda recs: _first(recs, "reward_sample")["inputs"].update(bonus=0),
    lambda recs: _first(recs, "reward_sample").update(value=None),
    lambda recs: recs[0]["reward"].pop("a"),
    lambda recs: recs.__setitem__(1, [recs[1]]),
], ids=["payload_deleted", "extra_input", "null_value", "no_reward_a",
        "list_record"])
def test_replay_rejects_malformed_records(corrupt):
    _, lines = run_scenario(small_config(), 5, RandomPolicy())
    recs = [json.loads(line) for line in lines]
    corrupt(recs)
    with pytest.raises(TraceCorrupt):
        replay([json.dumps(r, sort_keys=True) for r in recs])


@pytest.mark.parametrize("kind, name, change, named", [
    ("executed_action", "pool_available", lambda v: v + 1, "pool_available"),
    ("executed_action", "available_before", lambda v: v + 1, "pool_available"),
    ("executed_action", "delta_resources", lambda v: v + 1, "pool_available"),
    ("executed_action", "pool_used", lambda v: v + 1, "pool_used"),
    ("executed_action", "applied", lambda v: not v, "applied"),
    ("executed_action", "error",
     lambda v: "illegal_transition" if v is None else None, "applied"),
    ("reward_sample", "credited_action",
     lambda v: "start_honeypot" if v == "noop" else "noop", "credited_action"),
], ids=["pool_available", "available_before", "delta_resources", "pool_used",
        "applied", "error", "credited_action"])
def test_replay_rejects_doctored_resource_field(kind, name, change, named):
    # The first executed action of a run is not the last of its reward
    # period, so its pool figures reach no reward input: only the
    # executed-action checks can see them change.
    _, lines = run_scenario(small_config(), 5, RandomPolicy())
    recs = [json.loads(line) for line in lines]
    rec = _first(recs, kind)
    rec[name] = change(rec[name])
    with pytest.raises(TraceCorrupt, match=named):
        replay([trace_mod.dumps(r) for r in recs])


# Single-field mutation fuzz: each scenario's trace is produced once, and
# every example deletes, nulls or retypes one field of one line.
FUZZ_SCENARIOS = {
    "random": ({}, 5),
    "silent_tampered": ({"env": {"emcon_schedule": [{"tick": 0, "level": "silent"}]},
                         "guardrails": {"tamper_tick": 70}}, 13),
}
_OTHER_TYPED = (0, 1.5, "x", True, None, [], {})


def _field_paths(obj, prefix=()):
    for name, value in obj.items():
        yield prefix + (name,)
        if isinstance(value, dict):
            yield from _field_paths(value, prefix + (name,))


@functools.lru_cache(maxsize=None)
def _fuzz_trace(scenario):
    overrides, seed = FUZZ_SCENARIOS[scenario]
    report, lines = run_scenario(small_config(**overrides), seed, RandomPolicy())
    sites = {}  # (record kind or header/footer, field path) -> line numbers
    for n, line in enumerate(lines):
        obj = json.loads(line)
        kind = obj.get("kind") or obj["format"]
        for path in _field_paths(obj):
            sites.setdefault((kind, path), []).append(n)
    return report, lines, sites


@pytest.mark.parametrize("scenario", sorted(FUZZ_SCENARIOS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_single_field_mutation_replays_identically_or_is_corrupt(scenario, data):
    report, lines, sites = _fuzz_trace(scenario)
    kind, path = data.draw(st.sampled_from(sorted(sites)), label="site")
    n = data.draw(st.sampled_from(sites[(kind, path)]), label="line")
    obj = json.loads(lines[n])
    holder = obj
    for name in path[:-1]:
        holder = holder[name]
    old = holder[path[-1]]
    mutation = data.draw(st.sampled_from(
        [("delete",)] + [("set", v) for v in _OTHER_TYPED if type(v) is not type(old)]),
        label="mutation")
    if mutation[0] == "delete":
        del holder[path[-1]]
    else:
        holder[path[-1]] = mutation[1]
    mutated = list(lines)
    mutated[n] = trace_mod.dumps(obj)
    try:
        replayed = replay(mutated)
    except TraceCorrupt:
        return
    assert replayed == report


def _mutate_one_field(data, lines, sites) -> None:
    """Delete, null or retype one field of one line of `lines`, in place;
    nothing when an earlier mutation took the field away."""
    kind, path = data.draw(st.sampled_from(sorted(sites)), label="site")
    n = data.draw(st.sampled_from(sites[(kind, path)]), label="line")
    obj = json.loads(lines[n])
    holder = obj
    for name in path[:-1]:
        holder = holder.get(name) if type(holder) is dict else None
    if type(holder) is not dict or path[-1] not in holder:
        return
    old = holder[path[-1]]
    mutation = data.draw(st.sampled_from(
        [("delete",)] + [("set", v) for v in _OTHER_TYPED if type(v) is not type(old)]),
        label="mutation")
    if mutation[0] == "delete":
        del holder[path[-1]]
    else:
        holder[path[-1]] = mutation[1]
    lines[n] = trace_mod.dumps(obj)


@pytest.mark.parametrize("scenario", sorted(FUZZ_SCENARIOS))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_two_field_mutation_replay_reports_the_fault_parse_reports(scenario, data):
    _, lines, sites = _fuzz_trace(scenario)
    mutated = list(lines)
    _mutate_one_field(data, mutated, sites)
    _mutate_one_field(data, mutated, sites)
    try:
        trace_mod.parse(mutated)
    except TraceCorrupt as exc:
        with pytest.raises(TraceCorrupt) as replayed:
            replay(mutated)
        assert str(replayed.value) == str(exc)


# First fault of a trace with two: each case doctors one early record so
# that replay's own check fails, and breaks framing, a record's schema or
# the header further on. The later fault is the one reported, as when the
# whole trace is checked before any record is replayed.

@functools.lru_cache(maxsize=None)
def _short_reference_lines() -> tuple:
    return tuple(run_scenario(reference(episode_ticks=150), 0, RandomPolicy())[1])


def _index(recs, kind, pred=lambda rec: True, start=0):
    return next(i for i in range(start, len(recs))
                if recs[i].get("kind") == kind and pred(recs[i]))


def _doctor_pool_available(recs):
    recs[_index(recs, "executed_action")]["pool_available"] += 1


def _drop_line_600(recs):
    del recs[600]


def _flip_justified_cfh(recs):
    i = _index(recs, "message", lambda r: r["classification"] == "justified")
    recs[i]["classification"] = "cry_wolf"


def _drop_a_late_provenance(recs):
    del recs[_index(recs, "decision", start=400)]["provenance"]


def _doctor_reward_value(recs):
    recs[_index(recs, "reward_sample")]["value"] += 1.0


def _drop_header_reward_a(recs):
    del recs[0]["reward"]["a"]


@pytest.mark.parametrize("early, early_fault, late, fault", [
    (_doctor_pool_available, "pool_available", _drop_line_600,
     "line 601: sequence number 600, expected 599"),
    (_flip_justified_cfh, "classification", _drop_a_late_provenance,
     "line 403: missing field 'provenance'"),
    (_doctor_reward_value, "value", _drop_header_reward_a,
     "header: field 'reward' must hold exactly ['a', 'b', 'c', 'floor']"),
], ids=["pool_then_seq_gap", "cfh_then_missing_field", "reward_then_header"])
def test_replay_reports_a_later_framing_schema_or_header_fault_first(
        early, early_fault, late, fault):
    recs = [json.loads(line) for line in _short_reference_lines()]
    early(recs)
    with pytest.raises(TraceCorrupt, match=early_fault):
        replay([trace_mod.dumps(r) for r in recs])
    late(recs)
    lines = [trace_mod.dumps(r) for r in recs]
    for check in (trace_mod.parse, replay):
        with pytest.raises(TraceCorrupt) as raised:
            check(lines)
        assert str(raised.value) == fault


# A record that passes the schema check makes replay raise nothing but
# TraceCorrupt: any other exception, raised as the record is replayed,
# would pre-empt a fault that the lines after it hold.
_MAX = trace_mod.MAX_EXACT_INT
_LABELS = sorted({*(k.label for k in EventKind), *(k.value for k in MessageKind),
                  "sent", "suppressed", "justified", "cry_wolf", "terminated",
                  "noop"})
_VALUES = {
    int: st.integers(0, 40) | st.sampled_from([-1, _MAX, -_MAX])
    | st.integers(-_MAX, _MAX),
    float: st.floats(allow_nan=False, allow_infinity=False),
    str: st.sampled_from(_LABELS) | st.text(max_size=4),
    bool: st.booleans(),
    type(None): st.none(),
}


def _valid(want):
    """Values that `want`, a field spec in trace.py, accepts."""
    if type(want) is dict:
        return st.fixed_dictionaries({name: _valid(w) for name, w in want.items()})
    return st.one_of([_VALUES[t] for t in want])


_RECORDS = st.lists(st.sampled_from(sorted(trace_mod.RECORD_FIELDS)).flatmap(
    lambda kind: st.tuples(st.just(kind), _valid(trace_mod.RECORD_FIELDS[kind]))),
    max_size=30)
_HEADERS = st.fixed_dictionaries({
    "episode_ticks": st.integers(1, _MAX),
    "window": st.integers(1, 5) | st.integers(1, _MAX),
    "reward": st.fixed_dictionaries({
        **{c: _valid(trace_mod.HEADER_FIELDS["reward"][c]) for c in "abc"},
        "floor": st.integers(1, _MAX)}),
})


@settings(max_examples=300, deadline=None)
@given(header=_HEADERS, records=_RECORDS, ticks=st.lists(st.integers(0, 40)))
def test_replay_of_schema_valid_records_raises_only_trace_corrupt(header, records,
                                                                  ticks):
    ticks = sorted(ticks[:len(records)] + [0] * (len(records) - len(ticks)))
    w = trace_mod.TraceWriter(header)
    for (kind, payload), tick in zip(records, ticks):
        w.record(kind, tick, payload)
    lines = w.finish()
    trace_mod.parse(lines)  # every drawn trace passes the schema check
    try:
        assert isinstance(replay(lines), MetricsReport)
    except TraceCorrupt:
        pass


def test_guardrail_vetoes_appear_in_trace_before_no_execution():
    # At Silent EMCON a random policy keeps proposing gated actions:
    # each guardrail rejection must be recorded, and no executed action
    # at the same tick may carry the vetoed action.
    cfg = small_config(env={"emcon_schedule": [{"tick": 0, "level": "silent"}]})
    report, lines = run_scenario(cfg, 13, RandomPolicy())
    _, records = trace_mod.parse(lines)
    vetoed = {}
    for rec in records:
        if rec["kind"] == "veto":
            vetoed.setdefault(rec["tick"], set()).add(rec["action"])
    assert vetoed, "silent runs must produce vetoes"
    for rec in records:
        if rec["kind"] == "executed_action":
            assert rec["action"] not in vetoed.get(rec["tick"], set())


def test_tamper_kill_stops_agent_same_tick():
    cfg = small_config(guardrails={"tamper_tick": 37})
    report, lines = run_scenario(cfg, 3, RandomPolicy())
    assert report.agent_terminated_at == 37
    _, records = trace_mod.parse(lines)
    statuses = [r for r in records if r["kind"] == "agent_status"]
    assert any(r["status"] == "terminated" and r["tick"] == 37
               and r["reason"] == "ruleset_tampered" for r in statuses)
    for rec in records:
        if rec["kind"] in ("executed_action", "decision"):
            assert rec["tick"] < 37


@pytest.mark.parametrize("level", ["restricted", "silent"])
def test_tamper_on_a_posture_change_kills_the_agent_that_tick(level):
    # The new posture's plan is built on the tick the ruleset is tampered
    # with; the tamper check still runs before any decision of that tick.
    cfg = small_config(guardrails={"tamper_tick": 37},
                       env={"emcon_schedule": [{"tick": 0, "level": "open"},
                                               {"tick": 37, "level": level}]})
    report, lines = run_scenario(cfg, 3, RandomPolicy())
    assert report.agent_terminated_at == 37
    _, records = trace_mod.parse(lines)
    assert [(r["tick"], r["reason"]) for r in records
            if r["kind"] == "agent_status" and r["status"] == "terminated"] \
        == [(37, "ruleset_tampered")]
    decided = [r["tick"] for r in records if r["kind"] == "decision"]
    assert decided == list(range(37))


def test_learning_disabled_alpha_zero_keeps_table_empty():
    cfg = small_config(agent={"learning": {"alpha": 0.0}})
    result = train_agent(cfg, episodes=1)
    assert all(v == 0.0 for v in result.qtable.values.values())


def test_training_returns_curve_and_anneals_epsilon():
    cfg = small_config()
    result = train_agent(cfg, episodes=3)
    assert len(result.reward_curve) == 3
    lc = cfg.agent.learning
    assert epsilon_for_episode(2, 3, lc.epsilon_start, lc.epsilon_end) == \
        pytest.approx(lc.epsilon_end)
    assert epsilon_for_episode(0, 3, lc.epsilon_start, lc.epsilon_end) == \
        pytest.approx(lc.epsilon_start)
    assert epsilon_for_episode(0, 1, lc.epsilon_start, lc.epsilon_end) == \
        pytest.approx(lc.epsilon_end)


def test_trained_policy_runs_greedy():
    cfg = small_config()
    result = train_agent(cfg, episodes=2)
    report, lines = run_scenario(cfg, 77, result.qtable)
    assert report.ticks == cfg.episode_ticks
    header = json.loads(lines[0])
    assert header["policy"] == "q"


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_qpolicy_offers_the_head_of_the_value_ranking(data):
    # The operator is offered the action a ranking by value, ties to the
    # lowest id, would put first; ties, signed zeros and negative values
    # are drawn often.
    actions = data.draw(st.lists(st.text("abcd", min_size=1, max_size=2), min_size=1,
                                 max_size=6, unique=True), label="actions")
    key = StateKey(1, 2, 0, True)
    values = st.sampled_from([0.0, -0.0, 1.5, -1.5]) | st.floats(-1e6, 1e6)
    table = QTable(actions)
    for (state, action), value in data.draw(st.dictionaries(
            st.tuples(st.sampled_from([key, StateKey(0, 0, 0, False)]),
                      st.sampled_from(actions)), values), label="values").items():
        table.values[(state, action)] = value
    assert QPolicy(table).offer(key) == min(actions, key=lambda a: (-table.get(key, a), a))


def test_qtable_file_round_trip(tmp_path):
    cfg = small_config()
    result = train_agent(cfg, episodes=2)
    path = tmp_path / "q.json"
    save_qtable(result.qtable, path)
    again = load_qtable(path)
    assert again.values == result.qtable.values
    assert again.actions == result.qtable.actions


def test_concurrent_replications_match_sequential():
    # Runs share no mutable state: the same seeds produce the same
    # traces whether executed in parallel or one by one.
    cfg = small_config()
    seeds = [101, 102, 103, 104]
    sequential = [run_scenario(cfg, s, RandomPolicy()) for s in seeds]
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(lambda s: run_scenario(cfg, s, RandomPolicy()),
                                 seeds))
    for (rep_a, lines_a), (rep_b, lines_b) in zip(sequential, parallel):
        assert rep_a == rep_b
        assert lines_a == lines_b


def test_operator_reply_lands_in_trace_when_escalation_runs():
    # Force escalation: learner confidence below threshold, so the
    # cascade consults the scripted operator, whose reply is a percept.
    cfg = small_config(cascade={"online_confidence": 0.1})
    report, lines = run_scenario(cfg, 4, RandomPolicy())
    _, records = trace_mod.parse(lines)
    replies = [r for r in records if r["kind"] == "event"
               and r["event"]["kind"] == "operator_reply"]
    assert replies
    assert report.stage_histogram.get("human_escalation")
    # replies participate in window accounting; replay must still agree
    assert replay(lines) == report


def test_rolling_window_features_equal_a_rebuild(monkeypatch):
    # The learner's confidence sits below its threshold, so every
    # decision goes to the operator and replies land in the buckets.
    cfg = small_config(episode_ticks=3000, cascade={"online_confidence": 0.1})
    seen = []
    discretize = harness.discretize

    def spy(fv, summary, bins, anomaly):
        seen.append(fv)
        return discretize(fv, summary, bins, anomaly)

    monkeypatch.setattr(harness, "discretize", spy)
    _, lines = run_scenario(cfg, 11, RandomPolicy())
    _, records = trace_mod.parse(lines)

    window = cfg.agent.window
    buckets = deque(maxlen=window)  # the window as the trace shows it
    rebuilt, replies, last_tick = [], 0, -1
    for rec in records:
        while last_tick < rec["tick"]:
            buckets.append([])
            last_tick += 1
        if rec["kind"] == "event":
            e = rec["event"]
            kind = EventKind[e["kind"].upper()]
            replies += kind is EventKind.OPERATOR_REPLY
            buckets[-1].append(WorldEvent(e["tick"], kind, e["node"], e["severity"],
                                          e["load"], e["truth_malicious"]))
        elif rec["kind"] == "percept":
            rebuilt.append(collect([ev for b in buckets for ev in b], window))
    assert replies > 0
    assert len(seen) == len(rebuilt) == cfg.episode_ticks
    for got, want in zip(seen, rebuilt):
        assert got == want
        assert repr(got) == repr(want)


def cli(*args, stdin=None):
    return subprocess.run([sys.executable, "-m", "honeysim.cli", *args],
                          capture_output=True, text=True, input=stdin)


def test_cli_run_replay_and_exit_codes(tmp_path):
    cfg_path = tmp_path / "s.yaml"
    cfg_path.write_text(
        "episode_ticks: 60\n"
        "world:\n"
        "  capacity: 120\n"
        "  honeypot: {count: 1, cost: 10}\n",
        encoding="utf-8")
    trace_path = tmp_path / "run.trace"
    run = cli("run", "--config", str(cfg_path), "--seed", "5",
              "--policy", "random", "--trace-out", str(trace_path))
    assert run.returncode == 0, run.stderr
    live = json.loads(run.stdout)

    rep = cli("replay", "--trace", str(trace_path))
    assert rep.returncode == 0, rep.stderr
    assert json.loads(rep.stdout) == live

    # corrupting the trace must exit 3
    lines = trace_path.read_text().splitlines()
    trace_path.write_text("\n".join(lines[:-2] + [lines[-1]]) + "\n")
    bad = cli("replay", "--trace", str(trace_path))
    assert bad.returncode == 3

    # config errors exit 2
    cfg_path.write_text("episode_ticks: -5\n", encoding="utf-8")
    bad_cfg = cli("run", "--config", str(cfg_path))
    assert bad_cfg.returncode == 2


def test_cli_replay_exits_3_on_missing_field_and_bad_bytes(tmp_path):
    _, lines = run_scenario(small_config(), 5, RandomPolicy())
    trace_path = tmp_path / "run.trace"
    recs = [json.loads(line) for line in lines]
    del _first(recs, "executed_action")["available_before"]
    trace_mod.write_file(trace_path, [trace_mod.dumps(r) for r in recs])
    missing = cli("replay", "--trace", str(trace_path))
    assert missing.returncode == 3, missing.stderr
    assert "Traceback" not in missing.stderr

    trace_path.write_bytes(("\n".join(lines) + "\n").encode("utf-8")
                           .replace(b'"kind":"event"', b'"kind":"ev\xffent"', 1))
    bad_bytes = cli("replay", "--trace", str(trace_path))
    assert bad_bytes.returncode == 3, bad_bytes.stderr
    assert "Traceback" not in bad_bytes.stderr


@pytest.mark.parametrize("count", [1, True, 1.0], ids=["int", "true", "float"])
def test_footer_record_count_must_be_an_int(tmp_path, capsys, count):
    # A one-record trace: true and 1.0 equal 1, but only the int is a count.
    _, lines = run_scenario(reference(episode_ticks=1), 0, RandomPolicy())
    footer = trace_mod.dumps({"format": trace_mod.FORMAT_END, "records": count})
    one = [lines[0], lines[1], footer]
    trace_path = tmp_path / "one.trace"
    trace_mod.write_file(trace_path, one)
    code = cli_mod.main(["replay", "--trace", str(trace_path)])
    if type(count) is int:
        assert code == 0
        assert replay(one).ticks == 1
        return
    assert code == cli_mod.EXIT_TRACE
    with pytest.raises(TraceCorrupt, match=rf"footer claims {count!r} records, found 1"):
        list(trace_mod.walk(one))


def test_cli_oracle_reward_matches_library():
    payload = {"a": 1.0, "b": 1.0, "c": 1.0, "honey_events": 4,
               "security_events": 2, "delta_resources": -10,
               "total_resources": 100, "justified_cfh": 2, "cw": 1}
    out = cli("oracle-reward", stdin=json.dumps(payload) + "\n")
    assert out.returncode == 0
    assert float(out.stdout.strip()) == pytest.approx(3.9)


@pytest.mark.parametrize("command", ["run", "eval"])
@pytest.mark.parametrize("content", [
    "{not json",
    '{"alpha": 0.1, "gamma": 0.9, "entries": {}}',
    '{"actions": ["noop"], "gamma": 0.9, "entries": {}}',
    '{"actions": ["noop"], "alpha": 0.1, "gamma": 0.9}',
    '{"actions": [["noop"]], "alpha": 0.1, "gamma": 0.9, "entries": {}}',
    '{"actions": ["noop"], "alpha": "x", "gamma": 0.9, "entries": {}}',
    '{"actions": ["noop"], "alpha": 0.1, "gamma": 0.9, '
    '"entries": {"0,0,0,0|noop": "abc"}}',
    '{"actions": [], "alpha": 0.1, "gamma": 0.9, "entries": {}}',
    '{"actions": ["noop"], "alpha": %s, "gamma": 0.9, "entries": {}}' % ("9" * 400),
    '{"actions": ["noop"], "alpha": 0.1, "gamma": 0.9, '
    '"entries": {"0,0,0,0|noop": -%s}}' % ("9" * 400),
], ids=["bad_json", "no_actions", "no_alpha", "no_entries", "list_action",
        "text_alpha", "text_entry", "empty_actions", "huge_int_alpha",
        "huge_int_entry"])
def test_cli_malformed_qtable_exits_2(tmp_path, command, content):
    cfg_path = tmp_path / "s.yaml"
    cfg_path.write_text("episode_ticks: 5\n", encoding="utf-8")
    policy = tmp_path / "q.json"
    policy.write_text(content, encoding="utf-8")
    extra = ["--num-seeds", "1"] if command == "eval" else []
    out = cli(command, "--config", str(cfg_path), "--policy", str(policy), *extra)
    assert out.returncode == 2, out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("action", ["bogus_action", "start_real_vm",
                                    "terminate_self"])
def test_cli_qtable_action_outside_selectable_set_exits_2(tmp_path, action):
    # The table prefers `action` in every state, so a run that accepted it
    # would propose it at each tick: an unknown id, a disabled action and
    # one no policy may select.
    cfg_path = tmp_path / "s.yaml"
    cfg_path.write_text("episode_ticks: 10\n", encoding="utf-8")
    states = [StateKey(t, l, h, r).encode() for t in range(4) for l in range(4)
              for h in range(4) for r in (False, True)]
    policy = tmp_path / "q.json"
    policy.write_text(json.dumps({
        "actions": ["noop", action], "alpha": 0.1, "gamma": 0.9,
        "entries": {f"{s}|{action}": 1.0 for s in states}}), encoding="utf-8")
    out = cli("run", "--config", str(cfg_path), "--policy", str(policy))
    assert out.returncode == 2, out.stderr
    assert action in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("line", [
    "{not json",
    json.dumps({"a": 1.0, "b": 1.0, "c": 1.0, "honey_events": 4,
                "security_events": 2, "delta_resources": -10,
                "total_resources": 100, "justified_cfh": 2}),
    json.dumps({"a": 10**400, "b": 1.0, "c": 1.0, "honey_events": 4,
                "security_events": 2, "delta_resources": -10,
                "total_resources": 100, "justified_cfh": 2, "cw": 1}),
    json.dumps({"a": 1.0, "b": 1.0, "c": 1.0, "honey_events": 10**400,
                "security_events": 2, "delta_resources": -10,
                "total_resources": 100, "justified_cfh": 2, "cw": 1}),
], ids=["bad_json", "no_cw", "huge_int_a", "huge_int_honey_events"])
def test_cli_oracle_reward_bad_line_exits_2(line):
    out = cli("oracle-reward", stdin=line + "\n")
    assert out.returncode == 2, out.stderr
    assert "Traceback" not in out.stderr


def _every_state_to(action, confidence=1.0):
    return {(t, l, h, r): (action, confidence)
            for t in range(4) for l in range(4) for h in range(4) for r in (False, True)}


@pytest.mark.parametrize("entries", [
    None,
    _every_state_to("bogus_action"),
    _every_state_to("start_real_vm"),
    _every_state_to("quarantine_node", float("nan")),
    _every_state_to("quarantine_node", float("inf")),
    _every_state_to("quarantine_node", 2.5),
    _every_state_to("quarantine_node", -0.5),
], ids=["bad_json", "bogus_action", "disabled_start_real_vm",
        "nan", "infinity", "above_one", "negative"])
def test_cli_bad_pattern_table_exits_2(tmp_path, entries):
    # A table naming an action maps every state to it, so a run that
    # accepted it would propose that action at each tick. A confidence
    # of NaN clears every threshold, since NaN < threshold is false.
    table = tmp_path / "patterns.json"
    if entries is None:
        table.write_text("{not json", encoding="utf-8")
    else:
        write_pattern_table(table, entries)
    cfg_path = tmp_path / "s.yaml"
    cfg_path.write_text(f"episode_ticks: 5\ncascade:\n  pattern_table: {json.dumps(str(table))}\n",
                        encoding="utf-8")
    out = cli("run", "--config", str(cfg_path))
    assert out.returncode == 2, out.stderr
    assert "Traceback" not in out.stderr


def test_saved_pattern_table_answers_every_decision(tmp_path):
    # At confidence 1.0 the pattern stage, tried first, wins each decision.
    table = tmp_path / "patterns.json"
    write_pattern_table(table, _every_state_to("noop"))
    data = config_mod.load_file(REPO / "configs" / "reference.yaml").to_dict()
    data["episode_ticks"] = 120
    data["cascade"]["pattern_table"] = str(table)
    report, lines = run_scenario(config_mod.from_mapping(data), 3, RandomPolicy())
    assert report.stage_histogram == {"pattern_recognition": 120}
    assert replay(lines) == report


def test_header_pins_the_pattern_table_a_run_read(tmp_path):
    # Two tables written in turn at one path: the scenario, and so its
    # config_digest, stays the same, but each header holds the SHA-256 of
    # the canonical JSON of the entries its run read, and each trace
    # replays to its own run. A run without a table writes no such field.
    table = tmp_path / "patterns.json"
    data = config_mod.load_file(REPO / "configs" / "reference.yaml").to_dict()
    data["episode_ticks"] = 60
    data["cascade"]["pattern_table"] = str(table)
    config = config_mod.from_mapping(data)
    runs = []
    for action in ("noop", "start_honeypot"):
        write_pattern_table(table, _every_state_to(action))
        report, lines = run_scenario(config, 3, RandomPolicy())
        assert replay(lines) == report
        runs.append((json.loads(lines[0]), lines[1:]))
        entries = {f"{t},{lo},{h},{int(r)}": [a, c]
                   for (t, lo, h, r), (a, c) in _every_state_to(action).items()}
        canonical = json.dumps(entries, sort_keys=True, separators=(",", ":"))
        assert runs[-1][0]["pattern_table_digest"] \
            == hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    (first, first_records), (second, second_records) = runs
    assert first["pattern_table_digest"] != second["pattern_table_digest"]
    assert first["config_digest"] == second["config_digest"]
    assert first_records != second_records

    # the entries pin the run, not the file's bytes
    table.write_text(json.dumps(
        {"entries": {key: [action, confidence] for key, (action, confidence)
                     in reversed(json.loads(table.read_text())["entries"].items())}},
        indent=2), encoding="utf-8")
    assert json.loads(run_scenario(config, 3, RandomPolicy())[1][0]) == second
    assert "pattern_table_digest" not in json.loads(
        run_scenario(reference(episode_ticks=60), 3, RandomPolicy())[1][0])


def test_saved_pattern_table_naming_terminate_self_exits_2(tmp_path, capsys):
    # terminate_self is the fail-safe's own action, outside the
    # selectable set that a pattern table may name.
    table = tmp_path / "patterns.json"
    write_pattern_table(table, _every_state_to("terminate_self"))
    cfg_path = tmp_path / "s.yaml"
    cfg_path.write_text(f"episode_ticks: 5\ncascade:\n  pattern_table: {json.dumps(str(table))}\n",
                        encoding="utf-8")
    assert cli_mod.main(["run", "--config", str(cfg_path)]) == cli_mod.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "terminate_self" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("num_seeds", ["0", "-2"])
def test_cli_eval_without_seeds_exits_2(tmp_path, capsys, num_seeds):
    cfg_path = tmp_path / "s.yaml"
    cfg_path.write_text("episode_ticks: 5\n", encoding="utf-8")
    assert cli_mod.main(["eval", "--config", str(cfg_path),
                         "--num-seeds", num_seeds]) == cli_mod.EXIT_CONFIG
    assert "at least one seed" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "--seed", "-1"],
    ["run", "--seed", str(2**53 + 1)],
    ["eval", "--seed", "-5", "--num-seeds", "2"],
    # the last of base .. base + 2 is 2**53 + 1
    ["eval", "--seed", str(2**53 - 1), "--num-seeds", "3"],
    ["train", "--seed", "-1", "--episodes", "1"],
], ids=["run-negative", "run-above-2**53", "eval-negative", "eval-past-2**53",
        "train-negative"])
def test_cli_seed_outside_the_scenario_seed_rule_exits_2(tmp_path, capsys, argv):
    # Every seed a command would run takes the rule of the scenario's
    # `seed` key: an integer in [0, 2**53].
    cfg_path = tmp_path / "s.yaml"
    cfg_path.write_text("episode_ticks: 5\n", encoding="utf-8")
    extra = ["--out", str(tmp_path / "q.json")] if argv[0] == "train" else []
    assert cli_mod.main([*argv, "--config", str(cfg_path), *extra]) == cli_mod.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("config error: seed must be")


def test_cli_eval_prints_the_untraced_run_of_each_seed(tmp_path, capsys):
    data = config_mod.load_file(REPO / "configs" / "reference.yaml").to_dict()
    data["episode_ticks"] = 120
    cfg_path = tmp_path / "s.yaml"
    cfg_path.write_text(json.dumps(data), encoding="utf-8")
    assert cli_mod.main(["eval", "--config", str(cfg_path), "--seed", "11",
                         "--num-seeds", "3"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed == {
        "seeds": [11, 12, 13],
        "per_seed_reward": [56.5, 2.0, 2.25],
        "mean_cumulative_reward": 20.25,
        "mean_honeypot_engagements": 29 / 3,
        "mean_real_server_compromises": 2 / 3,
    }
    config = config_mod.from_mapping(data)
    assert printed["per_seed_reward"] == [
        run_scenario(config, seed, RandomPolicy(), with_trace=False)[0].cumulative_reward
        for seed in printed["seeds"]]


@pytest.mark.parametrize("args", [
    ["run", "--config", "{dir}"],
    ["replay", "--trace", "{dir}"],
    ["run", "--config", "{cfg}", "--trace-out", "{dir}"],
    ["train", "--config", "{cfg}", "--episodes", "1", "--out", "{dir}"],
], ids=["run-config", "replay-trace", "run-trace-out", "train-out"])
def test_cli_directory_path_exits_2(tmp_path, capsys, args):
    cfg_path = tmp_path / "s.yaml"
    cfg_path.write_text("episode_ticks: 5\n", encoding="utf-8")
    argv = [arg.format(dir=tmp_path, cfg=cfg_path) for arg in args]
    assert cli_mod.main(argv) == cli_mod.EXIT_CONFIG
    assert str(tmp_path) in capsys.readouterr().err


@pytest.mark.parametrize("unwritable", ["--out", "--curve-out"])
def test_cli_train_checks_both_outputs_before_training(tmp_path, capsys, monkeypatch,
                                                       unwritable):
    # A directory given for either output fails the command before any
    # training, and the other output is not written either.
    cfg_path = tmp_path / "s.yaml"
    cfg_path.write_text("episode_ticks: 5\n", encoding="utf-8")
    outputs = {"--out": tmp_path / "q.json", "--curve-out": tmp_path / "curve.json"}
    outputs[unwritable] = tmp_path
    trained = []
    real_train = cli_mod.train_agent
    monkeypatch.setattr(cli_mod, "train_agent",
                        lambda *args: trained.append(args) or real_train(*args))
    argv = ["train", "--config", str(cfg_path), "--episodes", "1"]
    for flag, path in outputs.items():
        argv += [flag, str(path)]
    assert cli_mod.main(argv) == cli_mod.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert trained == []
    assert out == ""
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.yaml"]


def test_cli_run_checks_trace_out_before_running(tmp_path, capsys, monkeypatch):
    # A directory given for --trace-out fails the command before the run,
    # and nothing is written.
    cfg_path = tmp_path / "s.yaml"
    cfg_path.write_text("episode_ticks: 5\n", encoding="utf-8")
    ran = []
    real_run = cli_mod.run_scenario
    monkeypatch.setattr(cli_mod, "run_scenario",
                        lambda *args: ran.append(args) or real_run(*args))
    argv = ["run", "--config", str(cfg_path), "--trace-out", str(tmp_path)]
    assert cli_mod.main(argv) == cli_mod.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert ran == []
    assert out == ""
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.yaml"]


@pytest.mark.parametrize("command", ["run", "train"])
def test_cli_scenario_without_a_selectable_action_exits_2(tmp_path, capsys, command):
    # A policy picks among the enabled selectable actions, so a scenario
    # that disables all of them is rejected when it loads.
    disabled = {action: {"enabled": False} for action in build_catalog().ids}
    cfg_path = tmp_path / "s.yaml"
    cfg_path.write_text(json.dumps({"episode_ticks": 5, "agent": {"actions": disabled}}),
                        encoding="utf-8")
    output = tmp_path / "output"
    flag = "--trace-out" if command == "run" else "--out"
    assert cli_mod.main([command, "--config", str(cfg_path), flag, str(output)]) \
        == cli_mod.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "at least one selectable action" in err
    assert "Traceback" not in err
    assert not output.exists()


def test_cli_int_mission_need_too_large_for_a_float_runs(tmp_path):
    # The ruleset encodes a big int exactly; the per-tick check falls back
    # to the digest for it, and nothing else reads mission_need.
    reports = []
    for need in (8.0, 10 ** 400):
        cfg_path = tmp_path / "s.yaml"
        cfg_path.write_text(f"episode_ticks: 5\nguardrails:\n  mission_need: {need}\n",
                            encoding="utf-8")
        out = cli("run", "--config", str(cfg_path))
        assert out.returncode == 0, out.stderr
        reports.append(json.loads(out.stdout))
    assert reports[1] == reports[0]
    assert reports[1]["agent_terminated_at"] is None
