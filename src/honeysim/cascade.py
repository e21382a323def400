"""Staged decision flow: cheap mechanisms first, a guaranteed
fail-safe last, every proposal reviewed by an arbiter.

Stages run in a fixed order of increasing intensity. A stage is
skipped when the environment cannot pay for it (connectivity, time,
power, emissions posture); an attempted stage consumes its cost from
the per-decision budget. The first proposal the arbiter accepts wins;
if nothing is accepted the fail-safe profile decides, and a plain
no-op is the unvetoable floor, so decide() is total. The arbiter's
per-stage confidence thresholds are those of the sealed ruleset, so
the digest the harness re-verifies every tick covers them.

Only the proposals depend on the percept's state key. A `Plan` works
out the rest once per posture: which stages can propose, the budget
each sees, and the rejections fixed around them; it then keeps the
arbiter's verdict on each proposal and the resulting Decision, which
hold while the ruleset stays sealed. decide() runs a plan's proposers
for one key.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

from . import guardrails as gr
from .actions import ActionCatalog
from .agent import StateKey
from .config import OperatorConfig, StageCostConfig, StageCostsConfig
from .constraints import EmconLevel, EnvConstraints, FailSafeProfile, Labelled
from .errors import ModelIncomplete, OperatorTimeout
from .trace import dumps, sha256_hex


class StageId(Labelled):
    """Runtime stages in evaluation order."""

    PATTERN_RECOGNITION = 0
    ONLINE_LEARNING = 1
    HUMAN_ESCALATION = 2
    GAME_SEARCH = 3
    FAIL_SAFE = 4


STAGE_LABELS = StageId.labels()
_NO_FLOOR = float("-inf")  # the floor of a stage the ruleset has no threshold for


class ProposedAction(NamedTuple):
    action: str
    confidence: float
    stage: StageId


class Decision(NamedTuple):
    action: str
    provenance: StageId
    rejected: tuple  # ((StageId, reason), ...) in evaluation order
    vetoes: tuple  # ((StageId, action, reason), ...) the guardrails rejected
    operator_replied: bool  # whether the operator answered an escalation


UNAVAILABLE = "unavailable"
NO_PROPOSAL = "no_proposal"
BELOW_THRESHOLD = "below_threshold"
OPERATOR_TIMEOUT = "operator_timeout"
MODEL_INCOMPLETE = "model_incomplete"


def stage_available(stage: StageId, c: EnvConstraints,
                    cost: StageCostConfig | None = None) -> bool:
    """Whether the environment can pay for a stage right now.

    `cost` is the stage's cost; None takes the stage's default cost.
    Relaxing any constraint never removes a stage from the available
    set; the fail-safe and pattern lookup are always available.
    """
    if stage is StageId.FAIL_SAFE or stage is StageId.PATTERN_RECOGNITION:
        return True
    if cost is None:
        cost = getattr(StageCostsConfig(), stage.label)
    if stage is StageId.HUMAN_ESCALATION:
        return (c.connectivity and c.time_budget >= cost.time
                and c.emcon_level is not EmconLevel.SILENT)
    return c.time_budget >= cost.time and c.power_budget >= cost.power


@dataclass
class PatternTable:
    """Immutable-at-runtime map from discretized percept signature to
    (action, confidence), read from the scenario's `pattern_table` file."""

    entries: dict = field(default_factory=dict)  # StateKey -> (action, conf)

    def best_entry(self):
        """Highest-confidence entry, ties broken by action id then key."""
        if not self.entries:
            return None
        return min(((-conf, action, key.encode())
                    for key, (action, conf) in self.entries.items()))

    def digest(self) -> str:
        """SHA-256 of the canonical JSON of the entries, each keyed by its
        encoded state."""
        entries = {key.encode(): list(entry) for key, entry in self.entries.items()}
        return sha256_hex(dumps(entries).encode("utf-8"))

    @classmethod
    def from_dict(cls, data: dict) -> "PatternTable":
        entries = {StateKey.decode(text): (action, conf)
                   for text, (action, conf) in data["entries"].items()}
        return cls(entries)


def pattern_match(table: PatternTable, key: StateKey):
    """Exact signature lookup; None on a miss."""
    hit = table.entries.get(key)
    if hit is None:
        return None
    action, confidence = hit
    return ProposedAction(action, confidence, StageId.PATTERN_RECOGNITION)


def escalate(operator: OperatorConfig, option: str, time_budget: int):
    """Offer one option to the scripted stand-in for a human operator.

    The reply consumes its latency from the decision's time budget;
    a latency above the remaining budget is a timeout.
    """
    if operator.latency > time_budget:
        raise OperatorTimeout(
            f"operator latency {operator.latency} exceeds budget {time_budget}")
    if operator.behavior == "decline":
        return None
    return ProposedAction(option, 1.0, StageId.HUMAN_ESCALATION)


def _expected_value(model, state, action, horizon):
    total = 0.0
    for prob, next_state, payoff in model.outcomes(state, action):
        future = _best_value(model, next_state, horizon - 1)
        total += prob * (payoff + future)
    return total


def _best_value(model, state, horizon):
    if horizon == 0:
        return 0.0
    best = None
    for action in sorted(model.actions(state)):
        value = _expected_value(model, state, action, horizon)
        if best is None or value > best:
            best = value
    if best is None:
        raise ModelIncomplete(f"no actions defined for state {state!r}")
    return best


def game_search(model, state, horizon: int, confidence: float = 1.0) -> ProposedAction:
    """Expectimax over defender-max / attacker-chance levels.

    Returns the root action maximizing expected cumulative payoff,
    ties broken to the lowest action id. The model must define
    outcomes for every reachable (state, action); a missing pair
    raises ModelIncomplete (models signal it with KeyError).
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    try:
        actions = sorted(model.actions(state))
        if not actions:
            raise ModelIncomplete(f"no actions defined for state {state!r}")
        best_action, best_value = None, None
        for action in actions:
            value = _expected_value(model, state, action, horizon)
            if best_value is None or value > best_value:
                best_action, best_value = action, value
        return ProposedAction(best_action, confidence, StageId.GAME_SEARCH)
    except KeyError as exc:
        raise ModelIncomplete(f"model has no outcomes for {exc}") from exc


class QValueModel:
    """Outcome model backed by learned action values: myopic payoffs,
    state assumed stable over the short search horizon."""

    def __init__(self, qtable):
        self.qtable = qtable

    def actions(self, state):
        return self.qtable.actions

    def outcomes(self, state, action):
        return ((1.0, state, self.qtable.get(state, action)),)


def failsafe(profile: FailSafeProfile, table: PatternTable | None = None) -> ProposedAction:
    """The preloaded terminal behaviour; always yields a proposal."""
    if profile is FailSafeProfile.TERMINATE:
        return ProposedAction("terminate_self", 1.0, StageId.FAIL_SAFE)
    if profile is FailSafeProfile.LOW_THRESHOLD_ACT and table is not None:
        best = table.best_entry()
        if best is not None:
            neg_conf, action, _key = best
            return ProposedAction(action, -neg_conf, StageId.FAIL_SAFE)
    return ProposedAction("noop", 1.0, StageId.FAIL_SAFE)


def arbiter_review(p: ProposedAction, c: EnvConstraints, guard: gr.GuardrailSet,
                   catalog: ActionCatalog) -> gr.Verdict:
    """Accept iff confidence clears the sealed ruleset's threshold for
    the stage, if it has one, and the guardrails allow the action; the
    first failure is the reason."""
    if p.confidence < guard.ruleset.stage_thresholds.get(STAGE_LABELS[p.stage], _NO_FLOOR):
        return gr.Verdict(False, BELOW_THRESHOLD)
    verdict = gr.check(catalog.get(p.action), c, guard)
    if not verdict.allowed:
        return gr.Verdict(False, f"guardrail:{verdict.reason}")
    return gr.ALLOW


@dataclass
class StageContext:
    """Initialized stage handles plus the shared review machinery.

    The online stage proposes policy.choose(key) at online_confidence;
    escalation offers the operator policy.offer(key).
    """

    catalog: ActionCatalog
    guard: gr.GuardrailSet
    policy: object
    online_confidence: float = 0.9
    pattern_table: PatternTable = field(default_factory=PatternTable)
    operator: OperatorConfig = field(default_factory=OperatorConfig)
    game_model: object | None = None
    game_horizon: int = 2
    stage_costs: StageCostsConfig = field(default_factory=StageCostsConfig)
    availability: object = None  # test hook; defaults to stage_available


# The stages a plan weighs before the fail-safe, in evaluation order,
# each with its label.
_CASCADE = tuple((stage, stage.label) for stage in StageId
                 if stage is not StageId.FAIL_SAFE)


def _proposer(stage: StageId, ctx: StageContext, time_budget: int):
    """The stage's proposer: key -> its ProposedAction, or the stage's
    (stage, reason) rejection when it makes none. Escalation gets the
    time budget it sees."""
    if stage is StageId.PATTERN_RECOGNITION:
        table = ctx.pattern_table
        return lambda key: pattern_match(table, key) or (stage, NO_PROPOSAL)
    if stage is StageId.ONLINE_LEARNING:
        choose, confidence = ctx.policy.choose, ctx.online_confidence

        def online(key):
            action = choose(key)
            if action is None:
                return stage, NO_PROPOSAL
            return ProposedAction(action, confidence, stage)
        return online
    if stage is StageId.HUMAN_ESCALATION:
        operator, offer = ctx.operator, ctx.policy.offer
        return lambda key: escalate(operator, offer(key), time_budget)
    model, horizon = ctx.game_model, ctx.game_horizon

    def search(key):
        try:
            return game_search(model, key, horizon)
        except ModelIncomplete:
            return stage, MODEL_INCOMPLETE
    return search


class Plan:
    """The cascade's key-independent work for one posture (constraints,
    stage context, fail-safe profile), done once.

    Which stages can still propose, the rejections fixed before each
    (unavailable stages, a pattern stage with an empty table, an operator
    who declines or times out) and the budget each sees follow from the
    constraints alone: each stage the environment can pay for spends its
    cost, escalation max(its time, the operator's latency) unless it
    times out. The plan also keeps the arbiter's verdict on each
    distinct proposal and the Decision of each distinct run of the
    proposing stages' results. Both read the sealed ruleset, so they
    hold while it stays sealed: the harness verifies it before every
    decision, terminates the agent within the tick on a tamper, and
    builds a new plan when the posture changes.
    """

    def __init__(self, c: EnvConstraints, ctx: StageContext, profile: FailSafeProfile):
        self.c, self.guard, self.catalog = c, ctx.guard, ctx.catalog
        self.failsafe = failsafe(profile, ctx.pattern_table)
        availability = ctx.availability
        remaining = c
        fixed = []  # the rejections fixed since the last proposing stage
        replied = False
        proposers, steps = [], []
        for stage, label in _CASCADE:
            cost = getattr(ctx.stage_costs, label)
            if availability is None:
                available = stage_available(stage, remaining, cost)
            else:
                available = availability(stage, remaining)
            if not available:
                fixed.append((stage, UNAVAILABLE))
                continue
            spent_time = cost.time
            failure = None
            if stage is StageId.PATTERN_RECOGNITION and not ctx.pattern_table.entries:
                failure = NO_PROPOSAL
            elif stage is StageId.HUMAN_ESCALATION:
                # The operator's answer depends on the key only through
                # the option offered.
                try:
                    reply = escalate(ctx.operator, None, remaining.time_budget)
                except OperatorTimeout:
                    failure = OPERATOR_TIMEOUT
                else:
                    spent_time = max(spent_time, ctx.operator.latency)
                    replied = True
                    if reply is None:
                        failure = NO_PROPOSAL
            if failure is None:
                proposers.append(_proposer(stage, ctx, remaining.time_budget))
                steps.append((tuple(fixed), replied))
                fixed = []
            else:
                fixed.append((stage, failure))
            if spent_time or cost.power:
                remaining = replace(
                    remaining,
                    time_budget=max(remaining.time_budget - spent_time, 0),
                    power_budget=max(remaining.power_budget - cost.power, 0))
        self.proposers = tuple(proposers)
        self.steps = tuple(steps)  # per proposer: (rejections fixed before it, replied)
        self.tail = tuple(fixed)
        self.replied = replied
        self.verdicts = {}  # ProposedAction -> the arbiter's Verdict
        self.decisions = {}  # the proposing stages' results -> Decision

    def verdict(self, proposal: ProposedAction) -> gr.Verdict:
        """The arbiter's verdict on `proposal` under this posture."""
        verdict = self.verdicts.get(proposal)
        if verdict is None:
            verdict = self.verdicts[proposal] = arbiter_review(
                proposal, self.c, self.guard, self.catalog)
        return verdict

    def decision(self, results: tuple) -> Decision:
        """The Decision of the proposing stages' results in evaluation
        order, each a ProposedAction or a (stage, reason) rejection,
        which end at the first accepted proposal or hold none."""
        decision = self.decisions.get(results)
        if decision is None:
            decision = self.decisions[results] = self._assemble(results)
        return decision

    def _assemble(self, results: tuple) -> Decision:
        rejected, vetoes = [], []
        for result, (before, replied) in zip(results, self.steps):
            rejected += before
            if type(result) is not ProposedAction:
                rejected.append(result)
            elif self._review(result, rejected, vetoes):
                return Decision(result.action, result.stage, tuple(rejected),
                                tuple(vetoes), replied)
        rejected += self.tail
        proposal = self.failsafe
        # Unvetoable floor: doing nothing needs no budget, no emissions.
        action = proposal.action if self._review(proposal, rejected, vetoes) else "noop"
        return Decision(action, StageId.FAIL_SAFE, tuple(rejected), tuple(vetoes),
                        self.replied)

    def _review(self, proposal: ProposedAction, rejected: list, vetoes: list) -> bool:
        """Whether the arbiter accepts `proposal`; a rejection is recorded
        in `rejected`, and in `vetoes` too when the guardrails made it."""
        verdict = self.verdict(proposal)
        if verdict.allowed:
            return True
        rejected.append((proposal.stage, verdict.reason))
        if verdict.reason.startswith("guardrail:"):
            vetoes.append((proposal.stage, proposal.action, verdict.reason))
        return False


def decide(key: StateKey, plan: Plan) -> Decision:
    """Run the cascade for the percept's state key to the first
    accepted proposal.

    Only the plan's proposing stages run, in evaluation order, so a
    policy sees the calls it would see stage by stage. Total by
    construction: every skipped or rejected stage is recorded with its
    reason, and the fail-safe path cannot fail (a vetoed fail-safe
    proposal degrades to a no-op with fail-safe provenance). The
    decision also carries each guardrail veto and whether the operator
    replied, which the caller records.
    """
    results = ()
    for propose in plan.proposers:
        result = propose(key)
        results += (result,)
        if type(result) is ProposedAction and plan.verdict(result).allowed:
            break
    return plan.decision(results)
