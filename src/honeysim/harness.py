"""Scenario runner, trainer, evaluator and replayer.

This is the only layer allowed to see ground truth: it computes the
reward from truth-tagged events and classifies cries for help, while
the agent works purely from percepts. One run is the per-tick loop

    verify ruleset -> step world -> tally -> score -> decide -> apply ->
    comms -> (each window boundary) reward sample + TD update

whose facts go to two consumers: the accountant, and a trace chosen
once per run that writes a byte-deterministic record or nothing. The
percept is a `WindowTally` of the last `window` ticks; `Moments` scores it.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import asdict, dataclass, field

from . import trace as trace_mod
from . import _kernels
from ._kernels import codes
from .actions import ActionCatalog, ActionEffect, build_catalog
from .agent import (EVENT_REWARD_CLASS, HONEY_EVENT, SECURITY_EVENT, QTable,
                    RewardInputs, RewardParams, StateKey, discretize,
                    period_reward_inputs, q_update, reward, reward_terms,
                    select_action)
from .cascade import (STAGE_LABELS, FailSafeProfile, PatternTable, Plan,
                      QValueModel, StageContext, decide)
from .comms import Message, MessageKind, send
from .config import ScenarioConfig
from .constraints import EmconLevel, EnvConstraints
from .errors import (ConfigInvalid, IllegalTransition, InsufficientResources,
                     NoSuchNode, TraceCorrupt, WindowOutOfRange)
from .guardrails import GuardrailSet, RulesetCheck, build_ruleset, verify_sealed
from .sensing import Moments, WindowTally
from .world import (EVENT_LABELS, EventKind, ExecutedAction, STREAM_AGENT, WorldEvent,
                    WorldState, apply_action, derive_seed, init_world, step_world)


# ---------------------------------------------------------------------------
# policies: each has the `name` the trace header records; `bind(stream,
# catalog)` gives it the run's agent stream and actions before the first
# tick, the online stage proposes `choose(key)` and escalation offers the
# operator `offer(key)`

class RandomPolicy:
    """The seed-paired uniform-random baseline over the selectable set."""

    name = "random"

    def bind(self, stream, catalog: ActionCatalog) -> None:
        self.actions = catalog.selectable_ids
        self.stream = stream

    def choose(self, key):
        return self.actions[self.stream.randrange(len(self.actions))]

    def offer(self, key):
        return self.actions[0]


class QPolicy:
    """Epsilon-greedy policy over a Q table; epsilon 0 when evaluating.
    It offers the greedy action: the highest value, ties to the lowest id."""

    name = "q"

    def __init__(self, qtable: QTable, epsilon: float = 0.0):
        self.qtable = qtable
        self.epsilon = epsilon
        self.stream = None

    def bind(self, stream, catalog: ActionCatalog) -> None:
        _check_selectable("Q table", self.qtable.actions, catalog)
        self.stream = stream

    def choose(self, key):
        return select_action(self.qtable, key, self.epsilon, self.stream)

    def offer(self, key):
        return self.qtable.best_action(key)


# ---------------------------------------------------------------------------
# metrics

@dataclass
class MetricsReport:
    ticks: int
    cumulative_reward: float = 0.0
    honey_term_total: float = 0.0
    resource_term_total: float = 0.0
    cfh_term_total: float = 0.0
    real_server_compromises: int = 0
    honeypot_engagements: int = 0
    cfh_justified: int = 0
    cfh_cry_wolf: int = 0
    cfh_precision: float | None = None
    messages_sent: int = 0
    messages_suppressed: int = 0
    stage_histogram: dict = field(default_factory=dict)
    vetoes_by_reason: dict = field(default_factory=dict)
    agent_terminated_at: int | None = None

    def to_dict(self) -> dict:
        out = asdict(self)
        for name in ("stage_histogram", "vetoes_by_reason"):
            out[name] = dict(sorted(out[name].items()))
        return out


_EVENT_KINDS_BY_LABEL = {kind.label: kind for kind in EventKind}
_MESSAGE_KINDS_BY_VALUE = {kind.value: kind for kind in MessageKind}
_CRY_FOR_HELP = MessageKind.CRY_FOR_HELP.value


class Accountant:
    """Metrics and reward-period accounting, fed one fact at a time.

    The live run calls one method per fact with its fields, and replay
    calls the same method with the same fields read off the fact's trace
    record. Both therefore derive the report, each period's reward inputs
    and each cry-for-help label the same way. Ground truth reaches it only
    through the truth tags of events. The open period is kept as running
    counts.
    """

    def __init__(self, ticks: int, window: int):
        self.window = window
        self.metrics = MetricsReport(ticks)
        self.period_honey = 0
        self.period_security = 0
        self.period_justified = 0
        self.period_cry_wolf = 0
        # (action, available_before, delta_resources) of the period's last
        # executed action, None while the period has none
        self.last_executed: tuple | None = None
        # the last `window` distinct ticks that had a truth-tagged event
        self.truth_ticks: deque = deque(maxlen=window)

    def event(self, tick: int, kind: EventKind | None, truth: bool) -> None:
        """A world event; `kind` is None for a kind this build lacks."""
        cls = EVENT_REWARD_CLASS.get(kind)
        if cls == HONEY_EVENT:
            self.period_honey += 1
            if kind is EventKind.HONEY_TOUCH:
                self.metrics.honeypot_engagements += 1
        if truth:
            if cls == SECURITY_EVENT:
                self.period_security += 1
            truth_ticks = self.truth_ticks
            if not truth_ticks or truth_ticks[-1] != tick:
                truth_ticks.append(tick)
            if kind is EventKind.UNAUTHORIZED_ACCESS:
                self.metrics.real_server_compromises += 1

    def decision(self, provenance: str) -> None:
        histogram = self.metrics.stage_histogram
        histogram[provenance] = histogram.get(provenance, 0) + 1

    def veto(self, reason: str) -> None:
        vetoes = self.metrics.vetoes_by_reason
        vetoes[reason] = vetoes.get(reason, 0) + 1

    def executed(self, action: str, available_before: int, delta: int) -> None:
        self.last_executed = (action, available_before, delta)

    def message(self, sent: bool, message_kind: MessageKind | None,
                label: str | None) -> None:
        """A message sent or suppressed; `label` is a sent cry's
        classification. `message_kind` is None for a kind this build lacks."""
        m = self.metrics
        if not sent:
            m.messages_suppressed += 1
            return
        m.messages_sent += 1
        if message_kind is MessageKind.CRY_FOR_HELP:
            if label == "justified":
                self.period_justified += 1
                m.cfh_justified += 1
            else:
                self.period_cry_wolf += 1
                m.cfh_cry_wolf += 1

    def terminated(self, tick: int) -> None:
        self.metrics.agent_terminated_at = tick

    def classify_cfh(self, tick: int, evidence_start: int, evidence_end: int) -> str:
        """Ground-truth label of a cry for help sent at `tick`: "justified"
        when a truth-tagged event falls inside its inclusive evidence
        window, else "cry_wolf". The window must lie within the ticks held
        at `tick`, the last `window` of them."""
        oldest = max(0, tick - self.window + 1)
        if evidence_start < oldest or evidence_end > tick:
            raise WindowOutOfRange(
                f"evidence [{evidence_start}, {evidence_end}] outside held "
                f"ticks [{oldest}, {tick}]")
        # The held ticks ascend, so the newest one not after the window's
        # end decides: it lies in the window or none does.
        for t in reversed(self.truth_ticks):
            if t <= evidence_end:
                return "justified" if t >= evidence_start else "cry_wolf"
        return "cry_wolf"

    def close_period(self, params: RewardParams, available: int) -> tuple:
        """Tally the open reward period into the report and start the
        next one; returns (reward, (honey, resource, cfh) terms,
        RewardInputs, credited action id or None) of the period's reward
        sample.

        The resource figures and the credited action come from the
        period's last executed action; `available` stands in only for a
        period without one, which happens after the agent is terminated.
        """
        credited, delta = None, 0
        if self.last_executed is not None:
            credited, available, delta = self.last_executed
        inputs = period_reward_inputs(self.period_honey, self.period_security,
                                      self.period_justified, self.period_cry_wolf,
                                      available, delta)
        self.period_honey = self.period_security = 0
        self.period_justified = self.period_cry_wolf = 0
        self.last_executed = None
        value = reward(params, inputs)
        terms = honey, resource, cfh = reward_terms(params, inputs)
        m = self.metrics
        m.cumulative_reward += value
        m.honey_term_total += honey
        m.resource_term_total += resource
        m.cfh_term_total += cfh
        return value, terms, inputs, credited

    def report(self) -> MetricsReport:
        m = self.metrics
        total_cfh = m.cfh_justified + m.cfh_cry_wolf
        m.cfh_precision = (m.cfh_justified / total_cfh) if total_cfh else None
        return m


def _reward_sample_payload(value: float, terms: tuple, inputs: RewardInputs,
                           credited: str | None) -> dict:
    """The reward_sample record the live run writes and replay expects."""
    # a frozen dataclass's instance dict holds its fields in order
    return trace_mod.payload("reward_sample", value, *terms, *vars(inputs).values(),
                             credited)


# ---------------------------------------------------------------------------
# target resolution (agent view only: Compromised looks like Running)

_SUSPICIOUS_KINDS = (EventKind.IDS_ALERT, EventKind.ANTI_MALWARE_ALERT,
                     EventKind.UNAUTHORIZED_ACCESS,
                     EventKind.FILE_INTEGRITY_VIOLATION)

# Effects whose target is the most suspicious of their candidates.
_RANKED = (ActionEffect.STOP_REAL_VM, ActionEffect.QUARANTINE_NODE,
           ActionEffect.ROTATE_ADDRESS, ActionEffect.QUARANTINE_FILE,
           ActionEffect.RESTORE_KNOWN_GOOD)


def resolve_target(effect: ActionEffect, world: WorldState, window_events):
    """Bind an effect to a concrete node using only agent-visible state.

    Suspicion ranking counts alert-type events per node in the current
    window; ties and empty rankings fall back to the lowest node id.
    Returns None when no legal candidate exists. Candidates are read off
    the kernel's integer kind and status codes of the resident nodes.
    """
    core = world.core
    ids = world.node_ids
    kinds = core.kinds
    statuses = core.statuses
    n = len(ids)
    honeypot, stopped = codes.HONEYPOT, codes.STOPPED
    # The agent cannot tell Compromised from Running: both look up.
    up = (codes.RUNNING, codes.COMPROMISED)

    if effect is ActionEffect.STOP_HONEYPOT:
        # a stopped honeypot is retired, so no resident one is stopped
        return min((ids[i] for i in range(n) if kinds[i] == honeypot), default=None)
    if effect is ActionEffect.START_REAL_VM:
        return min((ids[i] for i in range(n)
                    if kinds[i] != honeypot and statuses[i] == stopped), default=None)
    if effect is ActionEffect.DEPLOY_DUMMY_FILES:
        ranked = [(core.decoys[i], ids[i]) for i in range(n) if statuses[i] in up]
        return min(ranked)[1] if ranked else None
    if effect not in _RANKED:
        return None

    if effect is ActionEffect.QUARANTINE_FILE:
        candidates = [ids[i] for i in range(n) if statuses[i] != stopped]
    elif effect is ActionEffect.RESTORE_KNOWN_GOOD:
        candidates = [ids[i] for i in range(n)
                      if kinds[i] != honeypot and statuses[i] != stopped]
    else:  # STOP_REAL_VM, QUARANTINE_NODE, ROTATE_ADDRESS
        candidates = [ids[i] for i in range(n)
                      if kinds[i] != honeypot and statuses[i] in up]
    if not candidates:
        return None
    suspicion: dict = {}
    for ev in window_events:
        if ev.kind in _SUSPICIOUS_KINDS:
            suspicion[ev.node] = suspicion.get(ev.node, 0) + 1
    return min(candidates, key=lambda node_id: (-suspicion.get(node_id, 0), node_id))


_TARGETLESS = (ActionEffect.NOOP, ActionEffect.START_HONEYPOT,
               ActionEffect.RESTRICT_COMMS_INBOUND,
               ActionEffect.RESTRICT_COMMS_OUTBOUND,
               ActionEffect.CRY_FOR_HELP, ActionEffect.SHARE_BLOCKLIST,
               ActionEffect.TERMINATE_SELF)


# ---------------------------------------------------------------------------
# scenario execution

def _check_selectable(what: str, actions, catalog: ActionCatalog) -> None:
    unknown = sorted(set(actions) - set(catalog.selectable_ids))
    if unknown:
        raise ConfigInvalid(f"{what} names actions outside the scenario's "
                            f"selectable set: {unknown}")


_ERROR_LABELS = {
    InsufficientResources: "insufficient_resources",
    NoSuchNode: "no_such_node",
    IllegalTransition: "illegal_transition",
}


# Values of the enums a trace writes, by member, beside the label tables
# of EventKind and StageId.
_EFFECT_VALUES = {effect: effect.value for effect in ActionEffect}
_MESSAGE_KIND_VALUES = {kind: kind.value for kind in MessageKind}


class _Trace:
    """A traced run's trace: alone turns each fact into its TraceWriter
    record.

    Per templated kind it keeps the `again` that the kind's first record
    returned, keyed by the facts that the layout's shared fields come
    from, so a run encodes each such fragment once.
    """

    def __init__(self, header: dict):
        self.writer = trace_mod.TraceWriter(header)
        self.event_writers, self.percept_writers, self.decision_writers = {}, {}, {}
        self.veto_writers, self.executed_writers, self.message_writers = {}, {}, {}
        self.status(0, "active", "episode_start")

    def events(self, tick: int, events) -> None:
        writers = self.event_writers
        for event_tick, kind, node, severity, load, truth in events:
            again = writers.get((kind, node, truth))
            if again is None:
                writers[kind, node, truth] = self.writer.event(
                    tick, event_tick, EVENT_LABELS[kind], node, severity, load, truth)
            else:
                again(tick, event_tick, severity, load)

    def percept(self, tick: int, score: float, key: StateKey, fv) -> None:
        again = self.percept_writers.get(key)
        if again is None:
            self.percept_writers[key] = self.writer.percept(tick, score, key.encode(), *fv)
        else:
            again(tick, score, *fv)

    def decision(self, tick: int, decision) -> None:
        key = decision.action, decision.provenance, decision.rejected
        again = self.decision_writers.get(key)
        if again is None:
            rejected = [(STAGE_LABELS[stage], reason) for stage, reason in decision.rejected]
            self.decision_writers[key] = self.writer.decision(
                tick, decision.action, STAGE_LABELS[decision.provenance], rejected)
        else:
            again(tick)

    def veto(self, tick: int, stage, action: str, reason: str) -> None:
        again = self.veto_writers.get((stage, action, reason))
        if again is None:
            self.veto_writers[stage, action, reason] = self.writer.veto(
                tick, action, STAGE_LABELS[stage], reason)
        else:
            again(tick)

    def executed(self, tick: int, action: str, effect: ActionEffect, target,
                 applied: bool, error, delta: int, available_before: int, pool) -> None:
        key = action, effect, applied, error
        again = self.executed_writers.get(key)
        if again is None:
            self.executed_writers[key] = self.writer.executed_action(
                tick, action, _EFFECT_VALUES[effect], target, applied, error,
                delta, available_before, pool.used, pool.available)
        else:
            again(tick, target, delta, available_before, pool.used, pool.available)

    def message(self, tick: int, msg: Message, rec, label: str | None) -> None:
        key = msg.kind, rec.sent, rec.reason, label, msg.entries, msg.action_taken
        again = self.message_writers.get(key)
        if again is None:
            self.message_writers[key] = self.writer.message(
                tick, _MESSAGE_KIND_VALUES[msg.kind], "sent" if rec.sent else "suppressed",
                rec.reason, label, msg.evidence_start, msg.evidence_end, msg.entries,
                msg.action_taken)
        else:
            again(tick, msg.evidence_start, msg.evidence_end)

    def status(self, tick: int, status: str, reason: str) -> None:
        self.writer.record("agent_status", tick,
                           trace_mod.payload("agent_status", status, reason))

    def reward_sample(self, tick: int, sample: tuple) -> None:
        self.writer.record("reward_sample", tick, _reward_sample_payload(*sample))

    def finish(self) -> list:
        return self.writer.finish()


class _NoTrace:
    """The trace of an untraced run: every fact is dropped unbuilt."""

    def _drop(self, *fact) -> None:
        pass

    events = percept = decision = veto = executed = message = status = \
        reward_sample = _drop

    def finish(self) -> list:
        return []


def run_scenario(config: ScenarioConfig, seed: int, policy,
                 *, learn: bool = False, with_trace: bool = True):
    """Execute one episode; returns (MetricsReport, trace lines).

    `policy` is a policy object or a bare QTable, run greedy. Trace
    lines are [] when with_trace is False (training runs skip record
    serialization for speed). The same (config, seed, policy) always
    yields byte-identical lines.
    """
    world = init_world(config, seed)
    catalog = build_catalog(config.agent.actions)
    window = config.agent.window
    rp = config.agent.reward
    params = RewardParams(rp.a, rp.b, rp.c, rp.denominator_floor)

    if isinstance(policy, QTable):
        policy = QPolicy(policy)
    policy.bind(_kernels.Stream(derive_seed(seed, STREAM_AGENT)), catalog)
    if learn and not isinstance(policy, QPolicy):
        raise ConfigInvalid("learning runs need a QPolicy")

    ruleset = build_ruleset(config.guardrails, config.cascade.thresholds)
    guard = GuardrailSet.seal(ruleset)
    if config.cascade.pattern_table:
        pattern_table = load_pattern_table(config.cascade.pattern_table)
        _check_selectable("pattern table",
                          (action for action, _ in pattern_table.entries.values()),
                          catalog)
    else:
        pattern_table = PatternTable()
    qtable_for_model = policy.qtable if isinstance(policy, QPolicy) \
        else QTable(catalog.selectable_ids)
    profile = FailSafeProfile(config.cascade.failsafe_profile)

    ctx = StageContext(
        catalog=catalog,
        guard=guard,
        policy=policy,
        online_confidence=config.cascade.online_confidence,
        pattern_table=pattern_table,
        operator=config.cascade.operator,
        game_model=QValueModel(qtable_for_model),
        game_horizon=config.cascade.game_horizon,
        stage_costs=config.cascade.stage_costs,
    )

    accountant = Accountant(config.episode_ticks, window)
    trace = _Trace(trace_mod.header(
        seed, config.episode_ticks, window, policy.name, params.a, params.b, params.c,
        params.denominator_floor, config.digest(),
        pattern_table.digest() if config.cascade.pattern_table else None,
    )) if with_trace else _NoTrace()

    # The schedule starts at tick 0 and its ticks strictly increase, so
    # each entry's constraints hold from its tick until the next entry.
    env_cfg = config.env
    env_from_tick = {
        entry.tick: EnvConstraints(connectivity=env_cfg.connectivity,
                                   time_budget=env_cfg.time_budget,
                                   power_budget=env_cfg.power_budget,
                                   emcon_level=EmconLevel.from_name(entry.level))
        for entry in env_cfg.emcon_schedule}

    moments = Moments()  # the anomaly baseline, updated in place
    window_tally = WindowTally(window)
    # last `window` ticks of events, one list per tick; read only to rank
    # targets by suspicion
    buckets: deque = deque(maxlen=window)

    agent_active = True
    tamper_tick = config.guardrails.tamper_tick
    bins = config.agent.bins
    heartbeat_every = config.comms.heartbeat_every
    alert_after_actions = config.comms.alert_after_actions

    for t in range(config.episode_ticks):
        if t in env_from_tick:
            # Per posture: the cascade's plan, and what send gives each
            # message kind, which reads nothing else of the message. Both
            # hold while the ruleset verified below stays sealed.
            env = env_from_tick[t]
            plan = Plan(env, ctx, profile)
            send_records = {}

        if tamper_tick == t:
            ruleset.budget.max_impact_per_action += 1.0

        if agent_active and verify_sealed(guard) is RulesetCheck.TAMPERED:
            agent_active = False
            accountant.terminated(t)
            trace.status(t, "terminated", "ruleset_tampered")

        events = step_world(world)
        window_tally.push(events)
        buckets.append(events)
        for ev in events:
            accountant.event(t, ev.kind, ev.truth_malicious)
        trace.events(t, events)

        key = None
        if agent_active:
            fv = window_tally.features()
            score = moments.score_and_update(fv)
            key = discretize(fv, world.honeypots_active(), bins, score)
            trace.percept(t, score, key, fv)  # the accountant reads no percept

            decision = decide(key, plan)
            if decision.operator_replied:
                reply = WorldEvent(t, EventKind.OPERATOR_REPLY, "operator", 0, 0.0, False)
                accountant.event(t, reply.kind, reply.truth_malicious)
                trace.events(t, (reply,))
            accountant.decision(decision.provenance.label)
            trace.decision(t, decision)
            for stage, action_id, reason in decision.vetoes:
                accountant.veto(reason)
                trace.veto(t, stage, action_id, reason)

            spec = catalog.get(decision.action)
            targetless = spec.effect in _TARGETLESS
            target = None
            if not targetless:
                window_events = [ev for b in buckets for ev in b] \
                    if spec.effect in _RANKED else ()
                target = resolve_target(spec.effect, world, window_events)
            available_before = world.pool.available
            applied, error, delta = False, None, 0
            if targetless or target is not None:
                try:
                    outcome = apply_action(world, ExecutedAction(decision.action,
                                                                 spec.effect, target))
                    applied, delta = True, outcome.delta_resources
                    if outcome.node is not None:
                        target = outcome.node
                except (InsufficientResources, NoSuchNode, IllegalTransition) as exc:
                    error = _ERROR_LABELS[type(exc)]
            else:
                error = "no_target"
            accountant.executed(decision.action, available_before, delta)
            trace.executed(t, decision.action, spec.effect, target, applied, error,
                           delta, available_before, world.pool)

            messages = []
            if applied:
                if spec.effect is ActionEffect.CRY_FOR_HELP:
                    messages.append(Message(MessageKind.CRY_FOR_HELP,
                                            evidence_start=max(0, t - window + 1),
                                            evidence_end=t))
                elif spec.effect is ActionEffect.SHARE_BLOCKLIST:
                    core = world.core
                    blocked = tuple(sorted(
                        address for address, status in zip(core.addresses, core.statuses)
                        if status == codes.QUARANTINED))
                    messages.append(Message(MessageKind.SHARE_BLOCKLIST, entries=blocked))
                elif spec.effect is ActionEffect.TERMINATE_SELF:
                    agent_active = False
                    accountant.terminated(t)
                    trace.status(t, "terminated", "self_terminated")
                elif alert_after_actions and spec.effect is not ActionEffect.NOOP:
                    messages.append(Message(MessageKind.ALERT, action_taken=decision.action))
            if agent_active and heartbeat_every and t % heartbeat_every == 0:
                messages.append(Message(MessageKind.HEARTBEAT))

            for msg in messages:
                rec = send_records.get(msg.kind)
                if rec is None:
                    rec = send_records[msg.kind] = send(msg, env.emcon_level, guard)
                label = None
                if rec.sent and msg.kind is MessageKind.CRY_FOR_HELP:
                    label = accountant.classify_cfh(t, msg.evidence_start, msg.evidence_end)
                accountant.message(rec.sent, msg.kind, label)
                trace.message(t, msg, rec, label)

        if (t + 1) % window == 0:
            sample = accountant.close_period(params, world.pool.available)
            trace.reward_sample(t, sample)
            # An agent still active here acted this tick, so the credited
            # action is this tick's decision, taken in state `key`.
            if learn and agent_active:
                q_update(policy.qtable, key, decision.action, sample[0], key)

    return accountant.report(), trace.finish()


# ---------------------------------------------------------------------------
# training / evaluation

@dataclass
class TrainResult:
    qtable: QTable
    reward_curve: list


def epsilon_for_episode(episode: int, episodes: int, start: float, end: float) -> float:
    """Linear anneal; a single-episode schedule uses the end value."""
    if episodes <= 1:
        return end
    return start + (end - start) * episode / (episodes - 1)


def train_agent(config: ScenarioConfig, episodes: int, seeds=None) -> TrainResult:
    """Run learning episodes and return the table plus reward curve."""
    if episodes < 1:
        raise ConfigInvalid("episodes must be >= 1")
    catalog = build_catalog(config.agent.actions)
    lc = config.agent.learning
    qtable = QTable(catalog.selectable_ids, alpha=lc.alpha, gamma=lc.gamma)
    curve = []
    for ep in range(episodes):
        if seeds:
            seed = seeds[ep % len(seeds)]
        else:
            seed = derive_seed(config.seed, 1000 + ep)
        eps = epsilon_for_episode(ep, episodes, lc.epsilon_start, lc.epsilon_end)
        policy = QPolicy(qtable, epsilon=eps)
        report, _ = run_scenario(config, seed, policy, learn=True, with_trace=False)
        curve.append(report.cumulative_reward)
    return TrainResult(qtable, curve)


def evaluate(config: ScenarioConfig, policy_spec, seeds) -> list:
    """Greedy untraced runs over a seed list; reports are seed-ordered."""
    if not seeds:
        raise ConfigInvalid("evaluation needs at least one seed")
    return [run_scenario(config, seed, policy_spec, with_trace=False)[0]
            for seed in seeds]


# ---------------------------------------------------------------------------
# replay

def replay(lines) -> MetricsReport:
    """Recompute the metrics purely from trace records.

    Gives every record's fields to the Accountant method the live run
    calls for its fact. Each sent cry for help's classification and each
    reward sample must equal what the accountant derives from the records
    before it and the stated reward parameters. Each executed action's
    pool figures must follow from its own resource delta, its `applied`
    flag must say whether it failed, and the pool's capacity (used plus
    available) must not change. A mismatch raises TraceCorrupt.

    Each record is checked, accounted and dropped as `trace.walk` reads
    it, so memory does not grow with the trace. A fault is reported as
    `trace.parse` would report it, and a mismatch only if the trace has
    none: one found early is held until the walk has checked the rest.
    """
    records = trace_mod.walk(lines)
    header = next(records)
    rw = header["reward"]
    params = RewardParams(rw["a"], rw["b"], rw["c"], rw["floor"])
    accountant = Accountant(header["episode_ticks"], header["window"])
    capacity = None
    tick = 0  # the tick of the record before this one
    try:
        for rec in records:
            kind = rec["kind"]
            if kind == "event":
                ev = rec["event"]
                accountant.event(rec["tick"], _EVENT_KINDS_BY_LABEL.get(ev["kind"]),
                                 ev["truth_malicious"])
            elif kind == "message":
                sent = rec["status"] == "sent"
                if sent and rec["message_kind"] == _CRY_FOR_HELP:
                    try:
                        label = accountant.classify_cfh(tick, rec["evidence_start"],
                                                        rec["evidence_end"])
                    except WindowOutOfRange as exc:
                        raise TraceCorrupt(f"seq {rec['seq']}: {exc}") from exc
                    _expect(rec, {"classification": label})
                accountant.message(sent, _MESSAGE_KINDS_BY_VALUE.get(rec["message_kind"]),
                                   rec["classification"])
            elif kind == "reward_sample":
                _expect(rec, _reward_sample_payload(*accountant.close_period(
                    params, rec["inputs"]["total_resources"])))
            elif kind == "executed_action":
                if capacity is None:
                    capacity = rec["pool_used"] + rec["pool_available"]
                _expect(rec, {
                    "pool_available": rec["available_before"] + rec["delta_resources"],
                    "pool_used": capacity - rec["pool_available"],
                    "applied": rec["error"] is None,
                })
                accountant.executed(rec["action"], rec["available_before"],
                                    rec["delta_resources"])
            elif kind == "decision":
                accountant.decision(rec["provenance"])
            elif kind == "veto":
                accountant.veto(rec["reason"])
            elif kind == "agent_status" and rec["status"] == "terminated":
                accountant.terminated(rec["tick"])
            tick = rec["tick"]
    except TraceCorrupt:
        for _ in records:  # raises any fault the rest of the trace holds
            pass
        raise
    return accountant.report()


def _expect(rec: dict, derived: dict) -> None:
    for name, value in derived.items():
        if rec[name] != value:
            raise TraceCorrupt(
                f"{rec['kind']} at seq {rec['seq']}: {name}={rec[name]!r} "
                f"but records imply {value!r}")


# ---------------------------------------------------------------------------
# artifact io

def save_qtable(table: QTable, path) -> None:
    """Write a Q table as the JSON of its to_dict."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(table.to_dict(), fh, sort_keys=True, indent=1)
        fh.write("\n")


def _load_table(path, what: str, from_dict):
    """(JSON of `path`, `from_dict` of it); ConfigInvalid if either fails."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
            return data, from_dict(data)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ConfigInvalid(f"{path} is not {what}: {exc!r}") from exc


def load_qtable(path) -> QTable:
    """Read a table written by save_qtable; ConfigInvalid when the file
    is not JSON, lacks a field of that layout, or holds a field of
    another type: actions must be a non-empty list of strings, and
    alpha, gamma and every entry value finite numbers."""
    data, table = _load_table(path, "a Q table", QTable.from_dict)
    actions = data["actions"]
    if type(actions) is not list or not actions or any(type(a) is not str for a in actions):
        raise ConfigInvalid(f"{path} is not a Q table: actions {actions!r} "
                            f"is not a non-empty list of action ids")
    for name, value in (("alpha", table.alpha), ("gamma", table.gamma),
                        *data["entries"].items()):
        if type(value) not in (int, float) or not math.isfinite(value):
            raise ConfigInvalid(f"{path} is not a Q table: {name} = {value!r} "
                                f"is not a finite number")
    return table


def load_pattern_table(path) -> PatternTable:
    """Read a pattern table, the JSON object {"entries": {encoded StateKey:
    [action id, confidence]}}; ConfigInvalid when the file is not JSON,
    lacks that layout, or holds a confidence that is not a finite number
    in [0, 1]."""
    _, table = _load_table(path, "a pattern table", PatternTable.from_dict)
    for action, conf in table.entries.values():
        if type(action) is not str or type(conf) not in (int, float) \
                or not 0 <= conf <= 1:
            raise ConfigInvalid(f"{path} is not a pattern table: entry "
                                f"[{action!r}, {conf!r}] is not [action, "
                                f"confidence in [0, 1]]")
    return table
