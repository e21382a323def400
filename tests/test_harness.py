import functools
import json
import subprocess
import sys
from collections import deque
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_config
from honeysim import harness
from honeysim import trace as trace_mod
from honeysim.agent import (RewardInputs, RewardParams, StateKey, reward,
                            reward_terms)
from honeysim.errors import EmptyCorpus, TraceCorrupt
from honeysim.harness import (RandomPolicy, epsilon_for_episode,
                              experience_from_trace, load_qtable, offline_train,
                              replay, run_scenario, save_qtable, train_agent)
from honeysim.sensing import collect
from honeysim.world import EventKind, WorldEvent

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


def test_offline_train_examples():
    k1 = StateKey(1, 0, 0, False)
    k2 = StateKey(2, 1, 0, True)
    k3 = StateKey(3, 3, 3, True)
    corpus = (
        [(k1, "quarantine_node", True)] * 6
        + [(k2, "rotate_address", True)] * 3      # below min_support
        + [(k3, "deploy_dummy_files", True)] * 6
        + [(k3, "deploy_dummy_files", False)] * 4
    )
    table = offline_train(corpus, min_support=5)
    assert table.entries[k1] == ("quarantine_node", 1.0)
    assert k2 not in table.entries
    action, conf = table.entries[k3]
    assert action == "deploy_dummy_files"
    assert conf == pytest.approx(0.6)


def test_offline_train_empty_corpus():
    with pytest.raises(EmptyCorpus):
        offline_train([])


def test_experience_extraction_feeds_offline_training():
    cfg = small_config()
    _, lines = run_scenario(cfg, 9, RandomPolicy())
    triples = experience_from_trace(lines)
    assert triples, "a live run must yield experience"
    table = offline_train(triples, min_support=1)
    assert table.entries


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
], ids=["bad_json", "no_actions", "no_alpha", "no_entries"])
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
], ids=["bad_json", "no_cw"])
def test_cli_oracle_reward_bad_line_exits_2(line):
    out = cli("oracle-reward", stdin=line + "\n")
    assert out.returncode == 2, out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("content", [
    "{not json",
    json.dumps({"entries": {StateKey(t, l, h, r).encode(): ["bogus_action", 1.0]
                            for t in range(4) for l in range(4) for h in range(4)
                            for r in (False, True)}}),
    json.dumps({"entries": {StateKey(t, l, h, r).encode(): ["start_real_vm", 1.0]
                            for t in range(4) for l in range(4) for h in range(4)
                            for r in (False, True)}}),
], ids=["bad_json", "bogus_action", "disabled_start_real_vm"])
def test_cli_bad_pattern_table_exits_2(tmp_path, content):
    # A table naming an action maps every state to it, so a run that
    # accepted it would propose that action at each tick.
    table = tmp_path / "patterns.json"
    table.write_text(content, encoding="utf-8")
    cfg_path = tmp_path / "s.yaml"
    cfg_path.write_text(f"episode_ticks: 5\ncascade:\n  pattern_table: {json.dumps(str(table))}\n",
                        encoding="utf-8")
    out = cli("run", "--config", str(cfg_path))
    assert out.returncode == 2, out.stderr
    assert "Traceback" not in out.stderr


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
