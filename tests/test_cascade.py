import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from honeysim.actions import AutonomyLevel, build_catalog
from honeysim.agent import QTable, StateKey
from honeysim.cascade import (FailSafeProfile, PatternTable,
                              ProposedAction, StageContext, StageId,
                              Plan, arbiter_review, decide, escalate, failsafe,
                              game_search, pattern_match, stage_available)
from honeysim.config import (OperatorConfig, ScenarioConfig, StageCostConfig,
                             StageCostsConfig)
from honeysim.constraints import EmconLevel, EnvConstraints
from honeysim.errors import ModelIncomplete, OperatorTimeout
from honeysim.guardrails import (GuardrailSet, RulesetCheck, build_ruleset,
                                 verify_ruleset)
from oracles import TabularToyModel

KEY = StateKey(1, 1, 1, False)


def make_guard(thresholds=None, **kwargs):
    """Seal the default ruleset, with budget fields from kwargs and,
    when given, per-stage thresholds keyed by StageId."""
    cfg = ScenarioConfig()
    ruleset = build_ruleset(cfg.guardrails, cfg.cascade.thresholds)
    for name, value in kwargs.items():
        setattr(ruleset.budget, name, value)
    if thresholds is not None:
        ruleset.stage_thresholds = {stage.label: theta
                                    for stage, theta in thresholds.items()}
    return GuardrailSet.seal(ruleset)


def make_catalog():
    return build_catalog()


class FixedPolicy:
    def __init__(self, action="noop"):
        self.action = action

    def choose(self, key):
        return self.action

    def offer(self, key):
        return self.action


def make_ctx(policy_action="deploy_dummy_files", confidence=0.9, **overrides):
    catalog = make_catalog()
    qtable = QTable(catalog.selectable_ids)
    ctx = StageContext(
        catalog=catalog,
        guard=make_guard(),
        policy=FixedPolicy(policy_action),
        online_confidence=confidence,
        game_model=None,
    )
    from honeysim.cascade import QValueModel
    ctx.game_model = QValueModel(qtable)
    for name, value in overrides.items():
        setattr(ctx, name, value)
    return ctx


# -- stage availability ------------------------------------------------------

def env(connectivity=True, time=10, power=10, emcon=EmconLevel.OPEN):
    return EnvConstraints(connectivity, time, power, emcon)


def test_escalation_requires_connectivity():
    assert not stage_available(StageId.HUMAN_ESCALATION, env(connectivity=False))
    assert stage_available(StageId.HUMAN_ESCALATION, env())


def test_escalation_blocked_when_silent():
    assert not stage_available(StageId.HUMAN_ESCALATION, env(emcon=EmconLevel.SILENT))


def test_failsafe_always_available():
    for connectivity in (False, True):
        for emcon in EmconLevel:
            assert stage_available(StageId.FAIL_SAFE,
                                   env(connectivity, 0, 0, emcon))


def test_online_learning_needs_power():
    assert not stage_available(StageId.ONLINE_LEARNING, env(power=0))
    assert stage_available(StageId.ONLINE_LEARNING, env(power=5))


def test_gating_monotone_under_relaxation():
    cases = []
    for connectivity in (False, True):
        for time in (0, 1, 5, 10):
            for power in (0, 1, 5, 10):
                for emcon in EmconLevel:
                    cases.append(env(connectivity, time, power, emcon))

    def relaxes(a, b):
        return (b.connectivity >= a.connectivity and b.time_budget >= a.time_budget
                and b.power_budget >= a.power_budget and b.emcon_level <= a.emcon_level)

    for a in cases:
        for b in cases:
            if relaxes(a, b):
                for stage in StageId:
                    if stage_available(stage, a):
                        assert stage_available(stage, b)


# -- pattern table -----------------------------------------------------------

def test_pattern_match_empty_table():
    assert pattern_match(PatternTable(), KEY) is None


def test_pattern_match_hit_and_miss():
    table = PatternTable({KEY: ("quarantine_node", 0.9)})
    hit = pattern_match(table, KEY)
    assert hit == ProposedAction("quarantine_node", 0.9, StageId.PATTERN_RECOGNITION)
    assert pattern_match(table, StateKey(0, 0, 0, True)) is None


# -- escalation --------------------------------------------------------------

def test_escalate_approve_first():
    p = escalate(OperatorConfig("approve_first", 1), "a", time_budget=10)
    assert p == ProposedAction("a", 1.0, StageId.HUMAN_ESCALATION)


def test_escalate_decline():
    assert escalate(OperatorConfig("decline", 1), "a", time_budget=10) is None


def test_escalate_timeout():
    with pytest.raises(OperatorTimeout):
        escalate(OperatorConfig("approve_first", 3), "a", time_budget=2)


# -- game search -------------------------------------------------------------

def one_state_model(payoffs):
    outcomes = {("s", a): ((1.0, "s", p),) for a, p in payoffs.items()}
    return TabularToyModel(["s"], {"s": sorted(payoffs)}, outcomes)


def test_game_search_single_level_max():
    p = game_search(one_state_model({"A": 3, "B": 5}), "s", horizon=1)
    assert p.action == "B"


def test_game_search_tie_breaks_low_id():
    p = game_search(one_state_model({2: 4, 7: 4}), "s", horizon=1)
    assert p.action == 2


def test_game_search_two_level_hand_case():
    # Action "a" pays 1 now and leads to a state worth 4 next step;
    # action "b" pays 3 but dead-ends at value 0.
    model = TabularToyModel(
        states=["s", "t"],
        actions_by_state={"s": ["a", "b"], "t": ["x"]},
        outcomes={
            ("s", "a"): ((1.0, "t", 1),),
            ("s", "b"): ((1.0, "s", 3),),
            ("t", "x"): ((0.5, "t", 4), (0.5, "t", 4)),
        },
    )
    assert game_search(model, "s", horizon=1).action == "b"
    assert game_search(model, "s", horizon=2).action == "b"  # 3+3 > 1+4
    model._outcomes[("s", "b")] = ((1.0, "s", 2),)
    assert game_search(model, "s", horizon=2).action == "a"  # 1+4 > 2+2


def test_game_search_incomplete_model():
    model = TabularToyModel(["s"], {"s": ["a"]}, {})
    with pytest.raises(ModelIncomplete):
        game_search(model, "s", horizon=1)


# -- fail safe ---------------------------------------------------------------

def test_failsafe_profiles():
    assert failsafe(FailSafeProfile.NO_ACTION).action == "noop"
    assert failsafe(FailSafeProfile.TERMINATE).action == "terminate_self"
    table = PatternTable({KEY: ("deploy_dummy_files", 0.4),
                          StateKey(0, 0, 0, False): ("noop", 0.2)})
    p = failsafe(FailSafeProfile.LOW_THRESHOLD_ACT, table)
    assert p.action == "deploy_dummy_files"
    assert p.confidence == 0.4
    assert failsafe(FailSafeProfile.LOW_THRESHOLD_ACT, PatternTable()).action == "noop"


# -- arbiter -----------------------------------------------------------------

def thresholds():
    return {StageId.PATTERN_RECOGNITION: 0.8, StageId.ONLINE_LEARNING: 0.6,
            StageId.HUMAN_ESCALATION: 0.5, StageId.GAME_SEARCH: 0.3,
            StageId.FAIL_SAFE: 0.0}


def test_arbiter_below_threshold():
    v = arbiter_review(ProposedAction("noop", 0.5, StageId.PATTERN_RECOGNITION),
                       env(), make_guard(thresholds()), make_catalog())
    assert not v.allowed and v.reason == "below_threshold"


def test_arbiter_guardrail_veto():
    v = arbiter_review(ProposedAction("cry_for_help", 0.9, StageId.ONLINE_LEARNING),
                       env(emcon=EmconLevel.SILENT), make_guard(thresholds()),
                       make_catalog())
    assert not v.allowed and v.reason.startswith("guardrail:")


def test_arbiter_accept():
    v = arbiter_review(ProposedAction("noop", 0.9, StageId.PATTERN_RECOGNITION),
                       env(), make_guard(thresholds()), make_catalog())
    assert v.allowed


# -- decide ------------------------------------------------------------------

def test_decide_pattern_hit_wins():
    ctx = make_ctx()
    ctx.pattern_table = PatternTable({KEY: ("quarantine_node", 0.99)})
    d = decide(KEY, Plan(env(), ctx, FailSafeProfile.NO_ACTION))
    assert d.action == "quarantine_node"
    assert d.provenance is StageId.PATTERN_RECOGNITION
    assert d.rejected == ()


def test_decide_falls_through_to_online():
    ctx = make_ctx(policy_action="rotate_address")
    d = decide(KEY, Plan(env(), ctx, FailSafeProfile.NO_ACTION))
    assert d.action == "rotate_address"
    assert d.provenance is StageId.ONLINE_LEARNING
    assert d.rejected == ((StageId.PATTERN_RECOGNITION, "no_proposal"),)


def test_decide_forced_to_failsafe_records_all_rejections():
    # No pattern, no budget for the learner or the game search, no
    # connectivity for escalation.
    ctx = make_ctx()
    d = decide(KEY, Plan(env(connectivity=False, time=0, power=0), ctx,
                         FailSafeProfile.NO_ACTION))
    assert d.action == "noop"
    assert d.provenance is StageId.FAIL_SAFE
    assert len(d.rejected) == 4
    reasons = dict((s, r) for s, r in d.rejected)
    assert reasons[StageId.PATTERN_RECOGNITION] == "no_proposal"
    assert reasons[StageId.ONLINE_LEARNING] == "unavailable"
    assert reasons[StageId.HUMAN_ESCALATION] == "unavailable"
    assert reasons[StageId.GAME_SEARCH] == "unavailable"


def test_decide_operator_timeout_recorded():
    ctx = make_ctx(operator=OperatorConfig("approve_first", 9))
    ctx.policy = FixedPolicy("noop")
    ctx.online_confidence = 0.1  # below theta
    ctx.pattern_table = PatternTable()
    d = decide(KEY, Plan(env(time=9), ctx, FailSafeProfile.NO_ACTION))
    # online learner is attempted first (its cost 1 leaves budget 8),
    # rejected below threshold, then the operator times out.
    reasons = dict(d.rejected)
    assert reasons[StageId.ONLINE_LEARNING] == "below_threshold"
    assert reasons[StageId.HUMAN_ESCALATION] == "operator_timeout"
    # a reply that timed out is no reply, and a threshold is no veto
    assert not d.operator_replied
    assert d.vetoes == ()


def test_decide_reports_guardrail_vetoes_alone():
    # Pattern recognition falls below its threshold and the learner's
    # cry for help needs more autonomy than Silent grants; only the
    # second is a veto.
    ctx = make_ctx(policy_action="cry_for_help")
    ctx.pattern_table = PatternTable({KEY: ("quarantine_node", 0.5)})
    d = decide(KEY, Plan(env(emcon=EmconLevel.SILENT), ctx, FailSafeProfile.NO_ACTION))
    assert (d.action, d.provenance) == ("noop", StageId.FAIL_SAFE)
    assert dict(d.rejected)[StageId.PATTERN_RECOGNITION] == "below_threshold"
    assert d.vetoes == ((StageId.ONLINE_LEARNING, "cry_for_help",
                         "guardrail:autonomy_gate"),)
    assert not d.operator_replied


class SilentPolicy:
    """An online stage that spends its cost and proposes nothing."""

    def choose(self, key):
        return None

    def offer(self, key):
        return "noop"


def test_decide_deducts_spent_budget_before_next_stage():
    # The online stage costs 1 time unit and proposes nothing. The budget
    # equals the operator's latency, so only the online stage's deduction
    # makes the operator time out.
    costs = StageCostsConfig(online_learning=StageCostConfig(1, 0),
                             human_escalation=StageCostConfig(1, 0))
    ctx = make_ctx(operator=OperatorConfig("approve_first", 3), stage_costs=costs)
    ctx.policy = SilentPolicy()
    d = decide(KEY, Plan(env(time=3), ctx, FailSafeProfile.NO_ACTION))
    reasons = dict(d.rejected)
    assert reasons[StageId.ONLINE_LEARNING] == "no_proposal"
    assert reasons[StageId.HUMAN_ESCALATION] == "operator_timeout"
    assert not d.operator_replied
    # with one more unit the operator answers in time
    d = decide(KEY, Plan(env(time=4), ctx, FailSafeProfile.NO_ACTION))
    assert d.provenance is StageId.HUMAN_ESCALATION
    assert d.operator_replied


def test_decide_reads_sealed_thresholds():
    # The arbiter has no threshold table of its own: raising the sealed
    # ruleset's threshold above the learner's confidence rejects the
    # stage, and the same edit is a tamper the digest check reports.
    ctx = make_ctx(policy_action="rotate_address", confidence=0.9)
    d = decide(KEY, Plan(env(), ctx, FailSafeProfile.NO_ACTION))
    assert d.provenance is StageId.ONLINE_LEARNING
    ctx.guard.ruleset.stage_thresholds["online_learning"] = 0.95
    d = decide(KEY, Plan(env(), ctx, FailSafeProfile.NO_ACTION))
    assert dict(d.rejected)[StageId.ONLINE_LEARNING] == "below_threshold"
    assert d.provenance is not StageId.ONLINE_LEARNING
    assert verify_ruleset(ctx.guard, ctx.guard.ruleset.canonical_bytes()) \
        is RulesetCheck.TAMPERED


def stub_ctx_with(availability_pattern, accept_pattern, failsafe_accepted=True):
    """Build a fully stubbed cascade: every stage proposes its own
    name-tagged action; the arbiter accepts per the pattern."""
    catalog = make_catalog()
    proposals = {
        StageId.PATTERN_RECOGNITION: "deploy_dummy_files",
        StageId.ONLINE_LEARNING: "rotate_address",
        StageId.HUMAN_ESCALATION: "quarantine_file",
        StageId.GAME_SEARCH: "restore_known_good",
    }
    accepted = {stage: accept_pattern[i] for i, stage in enumerate(proposals)}
    conf = {stage: (0.9 if accepted[stage] else 0.1) for stage in proposals}

    ctx = make_ctx()
    ctx.pattern_table = PatternTable(
        {KEY: (proposals[StageId.PATTERN_RECOGNITION],
               conf[StageId.PATTERN_RECOGNITION])})
    ctx.policy = FixedPolicy(proposals[StageId.ONLINE_LEARNING])
    ctx.online_confidence = conf[StageId.ONLINE_LEARNING]
    ctx.operator = OperatorConfig(
        "approve_first" if True else "decline", 0)
    # escalation proposes offer(); confidence fixed 1.0, so gate it
    # through the sealed thresholds instead
    theta = thresholds()
    theta[StageId.HUMAN_ESCALATION] = 0.5 if accepted[StageId.HUMAN_ESCALATION] else 1.1
    ctx.policy.offer = lambda key: proposals[StageId.HUMAN_ESCALATION]
    gs_action = proposals[StageId.GAME_SEARCH]
    ctx.game_model = TabularToyModel(
        [KEY], {KEY: [gs_action]}, {(KEY, gs_action): ((1.0, KEY, 1.0),)})
    theta[StageId.GAME_SEARCH] = 0.3 if accepted[StageId.GAME_SEARCH] else 1.1
    theta[StageId.FAIL_SAFE] = 0.0 if failsafe_accepted else 1.1
    ctx.guard = make_guard(theta)
    avail = {stage: availability_pattern[i] for i, stage in enumerate(proposals)}
    avail[StageId.FAIL_SAFE] = True
    ctx.availability = lambda stage, c: avail[stage]
    return ctx, proposals, accepted, avail


@pytest.mark.parametrize("availability", list(itertools.product([False, True], repeat=4)))
@pytest.mark.parametrize("accepts", [(True, True, True, True),
                                     (False, True, False, True),
                                     (False, False, False, False)])
def test_decide_minimality_over_stub_grid(availability, accepts):
    ctx, proposals, accepted, avail = stub_ctx_with(availability, accepts)
    d = decide(KEY, Plan(env(), ctx, FailSafeProfile.NO_ACTION))
    runnable = [stage for stage in proposals if avail[stage] and accepted[stage]]
    if runnable:
        assert d.provenance == min(runnable)
        assert d.action == proposals[d.provenance]
    else:
        assert d.provenance is StageId.FAIL_SAFE
        assert d.action == "noop"


# -- plan reuse --------------------------------------------------------------

# noop and rotate_address pass every gate; quarantine_node (impact 4.0)
# meets the impact budget of 2.0, cry_for_help the Restricted gate and,
# at Silent, the emission block.
PLAN_ACTIONS = ("noop", "quarantine_node", "cry_for_help", "rotate_address")
PLAN_KEYS = [StateKey(t, 0, h, False) for t in range(3) for h in range(2)]


class StreamPolicy:
    """Chooses and offers from a seeded stream; chooses nothing sometimes."""

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def choose(self, key):
        return self.rng.choice(PLAN_ACTIONS + (None,))

    def offer(self, key):
        return self.rng.choice(PLAN_ACTIONS)


@st.composite
def plan_cases(draw):
    actions, confidences = st.sampled_from(PLAN_ACTIONS), st.sampled_from((0.5, 0.7, 0.9))
    cfg = ScenarioConfig()
    ruleset = build_ruleset(cfg.guardrails, cfg.cascade.thresholds)
    ruleset.budget.max_impact_per_action = draw(st.sampled_from((2.0, 5.0)))
    # a Silent gate above Reflex lets the emission check be the one that vetoes
    ruleset.autonomy_gates[EmconLevel.SILENT] = draw(st.sampled_from(AutonomyLevel))
    ruleset.stage_thresholds["fail_safe"] = draw(st.sampled_from((0.0, 1.1)))
    guard = GuardrailSet.seal(ruleset)
    table = PatternTable(draw(st.dictionaries(st.sampled_from(PLAN_KEYS),
                                              st.tuples(actions, confidences))))
    searched = draw(st.sets(st.sampled_from(PLAN_KEYS)))  # others are incomplete
    game_action = draw(actions)
    model = TabularToyModel(list(searched), {key: [game_action] for key in searched},
                            {(key, game_action): ((1.0, key, 1.0),) for key in searched})
    stub = draw(st.none() | st.tuples(*[st.booleans()] * 5))
    budgets = st.sampled_from((0, 1, 5, 10))  # none, and the default stage costs
    operator = OperatorConfig(draw(st.sampled_from(("approve_first", "decline"))),
                              draw(budgets))
    c = env(draw(st.booleans()), draw(budgets), draw(budgets),
            draw(st.sampled_from(EmconLevel)))
    online_confidence = draw(confidences)

    def make(policy):
        ctx = StageContext(catalog=make_catalog(), guard=guard, policy=policy,
                           online_confidence=online_confidence, pattern_table=table,
                           operator=operator, game_model=model)
        if stub is not None:
            ctx.availability = lambda stage, remaining: stub[stage]
        return ctx

    return (make, c, draw(st.sampled_from(FailSafeProfile)), draw(st.integers(0, 2**32)),
            draw(st.lists(st.sampled_from(PLAN_KEYS), min_size=1, max_size=30)))


@settings(max_examples=400, deadline=None)
@given(plan_cases())
def test_reused_plan_decides_as_a_fresh_plan_per_call(case):
    # A plan keeps the arbiter's verdict per proposal and the decision per
    # run of the stages' results; neither may carry one key's answer to
    # another.
    make, c, profile, seed, keys = case
    plan = Plan(c, make(StreamPolicy(seed)), profile)
    reused = [decide(key, plan) for key in keys]
    fresh_ctx = make(StreamPolicy(seed))
    assert reused == [decide(key, Plan(c, fresh_ctx, profile)) for key in keys]
