"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the lines; the
whole suite is designed to finish in a few minutes on a laptop.
"""

import itertools
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest
from scipy import stats as scipy_stats

from conftest import make_config, random_event
from honeysim import config as config_mod
from honeysim import trace as trace_mod
from honeysim.agent import RewardInputs, RewardParams, StateKey, reward
from honeysim.cascade import (FailSafeProfile, PatternTable,
                              Plan, StageContext, StageId, _best_value, decide,
                              game_search)
from honeysim.actions import AutonomyLevel, build_catalog
from honeysim.constraints import EmconLevel, EnvConstraints
from honeysim.guardrails import GuardrailSet, build_ruleset
from honeysim.comms import Message, MessageKind, send
from honeysim.harness import (RandomPolicy, replay,
                              run_scenario, train_agent)
from honeysim.sensing import Baseline, FeatureVector, anomaly_score, collect, update_baseline
from oracles import (TabularToyModel, enumerate_policies_root_action,
                     baseline_variances, reward_oracle, tally_oracle,
                     two_pass_moments)

REPO = Path(__file__).resolve().parent.parent


def _pass(number, text):
    print(f"\n[ACCEPTANCE] criterion {number:02d} ({text}): PASS")


# -- 1. reward oracle equivalence -------------------------------------------

def random_reward_case(rng):
    params = RewardParams(rng.uniform(-4, 4), rng.uniform(-4, 4),
                          rng.uniform(-4, 4), rng.randint(1, 3))
    inputs = RewardInputs(
        honey_events=rng.randint(0, 60),
        security_events=rng.randint(0, 60),
        delta_resources=rng.randint(-80, 80),
        total_resources=rng.randint(1, 400),
        justified_cfh=rng.randint(0, 30),
        cw=rng.randint(0, 30),
    )
    return params, inputs


def test_criterion_1_reward_oracle_equivalence():
    rng = random.Random(101)
    cases = [random_reward_case(rng) for _ in range(10_000)]
    for p, x in cases:
        want = reward_oracle(p.a, p.b, p.c, p.denominator_floor,
                             x.honey_events, x.security_events,
                             x.delta_resources, x.total_resources,
                             x.justified_cfh, x.cw)
        assert abs(reward(p, x) - want) <= 1e-9

    # the CLI oracle must agree on a batch of the same cases
    batch = cases[:200]
    payload = "\n".join(json.dumps({
        "a": p.a, "b": p.b, "c": p.c, "floor": p.denominator_floor,
        "honey_events": x.honey_events, "security_events": x.security_events,
        "delta_resources": x.delta_resources, "total_resources": x.total_resources,
        "justified_cfh": x.justified_cfh, "cw": x.cw}) for p, x in batch)
    out = subprocess.run([sys.executable, "-m", "honeysim.cli", "oracle-reward"],
                         input=payload, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    values = [float(line) for line in out.stdout.split()]
    assert len(values) == len(batch)
    for value, (p, x) in zip(values, batch):
        assert abs(value - reward(p, x)) <= 1e-9
    _pass(1, "reward matches rational oracle and CLI over 10k cases")


# -- 2. reward sign / monotonicity -------------------------------------------

def test_criterion_2_reward_monotonicity_fixtures():
    rng = random.Random(202)
    for _ in range(1000):
        p = RewardParams(rng.uniform(0.1, 4), rng.uniform(0.1, 4),
                         rng.uniform(0.1, 4), 1)
        honey = rng.randint(0, 50)
        sec = rng.randint(1, 50)
        jcfh = rng.randint(1, 30)
        cw = rng.randint(1, 30)
        delta = rng.randint(-60, -1)
        total = rng.randint(1, 300)
        base = reward(p, RewardInputs(honey, sec, delta, total, jcfh, cw))
        up_honey = reward(p, RewardInputs(honey + 1, sec, delta, total, jcfh, cw))
        up_jcfh = reward(p, RewardInputs(honey, sec, delta, total, jcfh + 1, cw))
        up_cw = reward(p, RewardInputs(honey, sec, delta, total, jcfh, cw + 1))
        assert up_honey > base
        assert up_jcfh > base
        assert up_cw < base
        # light-load property at the term level
        heavier = p.b * delta / total
        lighter = p.b * delta / (total + rng.randint(1, 200))
        assert abs(lighter) < abs(heavier)
    _pass(2, "sign and monotonicity over 1000 fixtures")


# -- 3. determinism -----------------------------------------------------------

def random_scenario(rng):
    emcon_levels = ["open", "restricted", "silent"]
    schedule = [{"tick": 0, "level": rng.choice(emcon_levels)}]
    tick = 0
    for _ in range(rng.randint(0, 2)):
        tick += rng.randint(10, 40)
        schedule.append({"tick": tick, "level": rng.choice(emcon_levels)})
    return make_config(world={
        "capacity": 250,
        "database": {"count": rng.randint(1, 3), "cost": rng.randint(5, 15)},
        "application": {"count": rng.randint(1, 3), "cost": rng.randint(5, 15)},
        "web": {"count": rng.randint(1, 3), "cost": rng.randint(5, 15)},
        "honeypot": {"count": rng.randint(0, 2), "cost": rng.randint(5, 15)},
        "campaigns": [
            {"id": f"apt-{k}", "intensity": rng.uniform(0.1, 1.0),
             "activation_tick": rng.choice([0, 0, 20])}
            for k in range(rng.randint(0, 3))
        ],
        "p_detect": rng.uniform(0.1, 1.0),
        "hits_to_compromise": rng.randint(1, 4),
    }, agent={
        "window": rng.choice([5, 10, 20]),
    }, comms={
        "heartbeat_every": rng.choice([0, 7]),
        "alert_after_actions": rng.random() < 0.3,
    }, cascade={
        "failsafe_profile": rng.choice(["no_action", "low_threshold_act",
                                        "terminate"]),
        "operator": {"behavior": rng.choice(["approve_first", "decline"]),
                     "latency": rng.randint(0, 3)},
    }, env={"emcon_schedule": schedule},
        episode_ticks=120)


def test_criterion_3_determinism_over_random_configs():
    rng = random.Random(303)
    for _ in range(20):
        cfg = random_scenario(rng)
        seed = rng.getrandbits(48)
        report_a, lines_a = run_scenario(cfg, seed, RandomPolicy())
        report_b, lines_b = run_scenario(cfg, seed, RandomPolicy())
        assert "\n".join(lines_a) == "\n".join(lines_b)
        assert report_a == report_b
        assert replay(lines_a) == report_a
    _pass(3, "byte-identical traces over 20 random (config, seed) pairs")


# -- 4. cascade totality and minimality ---------------------------------------

_STved = [StageId.PATTERN_RECOGNITION, StageId.ONLINE_LEARNING,
          StageId.HUMAN_ESCALATION, StageId.GAME_SEARCH]

KEY = StateKey(1, 1, 1, False)


class _FixedPolicy:
    def __init__(self, action):
        self.action = action

    def choose(self, key):
        return self.action

    def offer(self, key):
        return self.action


def stub_cascade(availability, accepts, failsafe_accepted):
    catalog = build_catalog()
    cfg = config_mod.ScenarioConfig()
    # acceptance is steered via the sealed per-stage thresholds: confidence
    # is 1.0 everywhere, so theta > 1 rejects and theta <= 1 accepts.
    ruleset = build_ruleset(cfg.guardrails, cfg.cascade.thresholds)
    ruleset.stage_thresholds = {stage.label: (0.0 if accepts[i] else 1.1)
                                for i, stage in enumerate(_STved)}
    ruleset.stage_thresholds[StageId.FAIL_SAFE.label] = 0.0 if failsafe_accepted else 1.1
    guard = GuardrailSet.seal(ruleset)
    proposals = {
        StageId.PATTERN_RECOGNITION: "deploy_dummy_files",
        StageId.ONLINE_LEARNING: "rotate_address",
        StageId.HUMAN_ESCALATION: "quarantine_file",
        StageId.GAME_SEARCH: "restore_known_good",
    }
    ctx = StageContext(
        catalog=catalog, guard=guard,
        policy=_FixedPolicy(proposals[StageId.ONLINE_LEARNING]),
        online_confidence=1.0,
    )
    ctx.pattern_table = PatternTable({KEY: (proposals[StageId.PATTERN_RECOGNITION], 1.0)})
    ctx.policy.offer = lambda key: proposals[StageId.HUMAN_ESCALATION]
    gs = proposals[StageId.GAME_SEARCH]
    ctx.game_model = TabularToyModel([KEY], {KEY: [gs]},
                                     {(KEY, gs): ((1.0, KEY, 1.0),)})
    avail = {stage: availability[i] for i, stage in enumerate(_STved)}
    avail[StageId.FAIL_SAFE] = availability[4]
    ctx.availability = lambda stage, c: avail[stage]
    return ctx, proposals


def test_criterion_4_cascade_totality_and_minimality():
    checked = 0
    for availability in itertools.product([False, True], repeat=5):
        for accepts in itertools.product([False, True], repeat=4):
            for fs_ok in (False, True):
                ctx, proposals = stub_cascade(availability, accepts, fs_ok)
                d = decide(KEY, Plan(EnvConstraints(), ctx, FailSafeProfile.NO_ACTION))
                checked += 1
                assert d is not None  # totality
                winners = [stage for i, stage in enumerate(_STved)
                           if availability[i] and accepts[i]]
                if winners:
                    assert d.provenance == min(winners)
                    assert d.action == proposals[d.provenance]
                else:
                    # the fail-safe is reached exactly when every prior
                    # stage failed, regardless of its "availability" bit
                    assert d.provenance is StageId.FAIL_SAFE
                    assert d.action == "noop"
                    skipped = {s for s, _ in d.rejected}
                    assert skipped == set(_STved) | (
                        {StageId.FAIL_SAFE} if not fs_ok else set())
    assert checked == 2 ** 5 * 2 ** 4 * 2
    _pass(4, "decide total and minimal over all stub availability patterns")


# -- 5. game search vs brute-force strategy enumeration -----------------------

def toy_model(rng, n_states, n_actions, n_responses):
    states = list(range(n_states))
    actions = list(range(n_actions))
    outcomes = {}
    for s in states:
        for a in actions:
            cuts = sorted(rng.randint(0, 8) for _ in range(n_responses - 1))
            weights = [hi - lo for lo, hi in zip([0] + cuts, cuts + [8])]
            outcomes[(s, a)] = tuple(
                (w / 8.0, rng.choice(states), float(rng.randint(-4, 4)))
                for w in weights)
    return TabularToyModel(states, {s: list(actions) for s in states}, outcomes)


def test_criterion_5_game_search_equals_policy_enumeration():
    rng = random.Random(505)
    models = 0
    for horizon in (1, 2, 3):
        for n_actions in (1, 2, 3):
            for n_responses in (1, 2, 3):
                for n_states in (2, 3):
                    for _ in range(4):
                        model = toy_model(rng, n_states, n_actions, n_responses)
                        want_action, want_value = enumerate_policies_root_action(
                            model, 0, horizon)
                        proposal = game_search(model, 0, horizon)
                        got_value = _best_value(model, 0, horizon)
                        assert proposal.action == want_action
                        assert got_value == want_value  # dyadic: exact
                        models += 1
    assert models >= 200
    _pass(5, f"expectimax equals brute-force enumeration on {models} models")


# -- 6. guardrail soundness ----------------------------------------------------

def emcon_at(schedule, tick):
    level = schedule[0].level
    for entry in schedule:
        if entry.tick <= tick:
            level = entry.level
    return level


def test_criterion_6_guardrail_soundness_over_seeds():
    rng = random.Random(606)
    total_vetoes = 0
    for case in range(50):
        cfg = random_scenario(rng)
        seed = rng.getrandbits(32)
        report, lines = run_scenario(cfg, seed, RandomPolicy())
        catalog = build_catalog(cfg.agent.actions)
        gates = {
            "open": AutonomyLevel.from_name(cfg.guardrails.autonomy_gates.open),
            "restricted": AutonomyLevel.from_name(cfg.guardrails.autonomy_gates.restricted),
            "silent": AutonomyLevel.from_name(cfg.guardrails.autonomy_gates.silent),
        }
        _, records = trace_mod.parse(lines)
        vetoed_at = {}
        for rec in records:
            if rec["kind"] == "veto":
                total_vetoes += 1
                assert rec["action"] != "terminate_self"
                vetoed_at.setdefault(rec["tick"], set()).add(rec["action"])
        for rec in records:
            if rec["kind"] != "executed_action":
                continue
            spec = catalog.get(rec["action"])
            assert spec.impact <= cfg.guardrails.max_impact_per_action
            level = emcon_at(cfg.env.emcon_schedule, rec["tick"])
            assert spec.autonomy_level <= gates[level]
            if level == "silent":
                assert spec.emission_cost == 0
            assert rec["action"] not in vetoed_at.get(rec["tick"], set())
    assert total_vetoes > 0
    _pass(6, "no executed action ever exceeds budget or EMCON gate (50 seeds)")


# -- 7. tamper kill -------------------------------------------------------------

def test_criterion_7_tamper_kill_same_tick():
    rng = random.Random(707)
    for _ in range(20):
        tamper_tick = rng.randint(5, 110)
        cfg = make_config(guardrails={"tamper_tick": tamper_tick},
                          episode_ticks=120)
        report, lines = run_scenario(cfg, rng.getrandbits(32), RandomPolicy())
        assert report.agent_terminated_at == tamper_tick
        _, records = trace_mod.parse(lines)
        term = [r for r in records if r["kind"] == "agent_status"
                and r["status"] == "terminated"]
        assert len(term) == 1
        assert term[0]["tick"] == tamper_tick
        assert term[0]["reason"] == "ruleset_tampered"
        for rec in records:
            if rec["kind"] in ("executed_action", "decision"):
                assert rec["tick"] < tamper_tick
    _pass(7, "ruleset tamper terminates the agent the same tick (20 seeds)")


# -- 8. EMCON silence and monotonicity -------------------------------------------

def test_criterion_8_emcon_silence_and_monotone_relaxation():
    rng = random.Random(808)
    for _ in range(10):
        cfg = make_config(env={"emcon_schedule": [{"tick": 0, "level": "silent"}]},
                          comms={"heartbeat_every": 5,
                                 "alert_after_actions": True},
                          episode_ticks=100)
        report, lines = run_scenario(cfg, rng.getrandbits(32), RandomPolicy())
        assert report.messages_sent == 0
        _, records = trace_mod.parse(lines)
        assert all(r["status"] == "suppressed" for r in records
                   if r["kind"] == "message")

    # identical message stream replayed across levels: relaxing EMCON
    # never shrinks the sent set
    cfg = config_mod.ScenarioConfig()
    guard = GuardrailSet.seal(build_ruleset(cfg.guardrails, cfg.cascade.thresholds))
    stream = []
    for t in range(500):
        kind = rng.choice(list(MessageKind))
        if kind is MessageKind.CRY_FOR_HELP:
            stream.append(Message(kind, evidence_start=max(0, t - 5),
                                  evidence_end=t))
        else:
            stream.append(Message(kind))
    sent = {level: {i for i, m in enumerate(stream)
                    if send(m.kind, level, guard).allowed}
            for level in EmconLevel}
    assert sent[EmconLevel.SILENT] == set()
    assert sent[EmconLevel.SILENT] <= sent[EmconLevel.RESTRICTED]
    assert sent[EmconLevel.RESTRICTED] <= sent[EmconLevel.OPEN]
    _pass(8, "all-Silent sends nothing; relaxation only grows the sent set")


# -- 9. cry-for-help accounting ---------------------------------------------------

class _CfhHeavyPolicy:
    """Cries for help every other decision, otherwise does nothing."""

    name = "cfh_heavy"

    def __init__(self):
        self.count = 0

    def bind(self, stream, catalog):
        pass

    def choose(self, key):
        self.count += 1
        return "cry_for_help" if self.count % 2 else "noop"

    def offer(self, key):
        return "cry_for_help"


def test_criterion_9_cfh_accounting_matches_brute_force():
    rng = random.Random(909)
    for _ in range(10):
        cfg = make_config(episode_ticks=200)
        report, lines = run_scenario(cfg, rng.getrandbits(32), _CfhHeavyPolicy())
        _, records = trace_mod.parse(lines)
        events = [r["event"] for r in records if r["kind"] == "event"]
        sent_cfh = [r for r in records
                    if r["kind"] == "message" and r["status"] == "sent"
                    and r["message_kind"] == "cry_for_help"]
        assert sent_cfh, "policy must get some cries out"
        assert report.cfh_justified + report.cfh_cry_wolf == len(sent_cfh)
        for msg in sent_cfh:
            truth = any(ev["truth_malicious"] for ev in events
                        if msg["evidence_start"] <= ev["tick"] <= msg["evidence_end"])
            want = "justified" if truth else "cry_wolf"
            assert msg["classification"] == want
        assert replay(lines) == report
    _pass(9, "justified + cry-wolf partitions every sent cry for help")


# -- 10. learning efficacy ---------------------------------------------------------

@pytest.fixture(scope="session")
def trained_reference():
    cfg = config_mod.load_file(REPO / "configs" / "reference.yaml")
    result = train_agent(cfg, episodes=200)
    return cfg, result


def test_criterion_10_learning_beats_seed_paired_random(trained_reference):
    cfg, result = trained_reference
    assert len(result.reward_curve) == 200
    q_rewards, r_rewards, q_eng, r_eng = [], [], [], []
    for k in range(30):
        seed = 50_000 + k
        rq, _ = run_scenario(cfg, seed, result.qtable, with_trace=False)
        rr, _ = run_scenario(cfg, seed, RandomPolicy(), with_trace=False)
        q_rewards.append(rq.cumulative_reward)
        r_rewards.append(rr.cumulative_reward)
        q_eng.append(rq.honeypot_engagements)
        r_eng.append(rr.honeypot_engagements)
    test = scipy_stats.ttest_rel(q_rewards, r_rewards, alternative="greater")
    mean_q = sum(q_rewards) / len(q_rewards)
    mean_r = sum(r_rewards) / len(r_rewards)
    assert mean_q > mean_r
    assert test.pvalue < 0.05
    assert sum(q_eng) / len(q_eng) > sum(r_eng) / len(r_eng)
    _pass(10, f"trained policy beats random (p={test.pvalue:.2e}, "
              f"reward {mean_q:.0f} vs {mean_r:.0f})")


# -- 11. sensing oracles -------------------------------------------------------------

def test_criterion_11_sensing_oracles():
    rng = random.Random(111)
    for _ in range(1000):
        events = [random_event(rng) for _ in range(rng.randint(0, 40))]
        fv = collect(events, window=20)
        want = tally_oracle(events)
        for name, value in want.items():
            got = getattr(fv, name)
            if name == "system_load":
                assert abs(got - value) <= 1e-12
            else:
                assert got == value

    vectors = [tuple(rng.uniform(0, 40) for _ in range(8)) for _ in range(500)]
    baseline = Baseline()
    for v in vectors:
        baseline = update_baseline(baseline, FeatureVector(*v, window_ticks=20))
    means, variances = two_pass_moments(vectors)
    for got, want in zip(baseline.means, means):
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
    for got, want in zip(baseline_variances(baseline), variances):
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    assert anomaly_score(baseline,
                         FeatureVector(*baseline.means, window_ticks=20)) == 0.0
    _pass(11, "collect, baseline moments, and anomaly score match oracles")
