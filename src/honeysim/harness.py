"""Scenario runner, trainer, evaluator and replayer.

This is the only layer allowed to see ground truth: it computes the
reward from truth-tagged events and classifies cries for help, while
the agent works purely from percepts. One run is the per-tick loop

    verify ruleset -> step world -> collect -> decide -> apply ->
    comms -> (each window boundary) reward sample + TD update

and everything it does is recorded in a byte-deterministic trace.
Each tick's events are tallied once, as they arrive; the percept is
the rolling sum of the last `window` per-tick tallies.
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
                    RewardInputs, RewardParams, StateKey, WorldSummary,
                    discretize, period_reward_inputs, q_update, reward,
                    reward_terms, select_action)
from .cascade import (FailSafeProfile, PatternTable, QValueModel,
                      StageContext, decide)
from .comms import Message, MessageKind, send
from .config import ScenarioConfig
from .constraints import EmconLevel, EnvConstraints
from .errors import (ConfigInvalid, EmptyCorpus, IllegalTransition,
                     InsufficientResources, NoSuchNode, TraceCorrupt,
                     WindowOutOfRange)
from .guardrails import GuardrailSet, RulesetCheck, build_ruleset, verify_sealed
from .sensing import Baseline, WindowTally, score_and_update
from .world import (EventKind, ExecutedAction, STREAM_AGENT, WorldEvent,
                    WorldState, apply_action, derive_seed, init_world,
                    step_world)


# ---------------------------------------------------------------------------
# policies

class RandomPolicy:
    """Marker for the seed-paired uniform-random baseline."""


class _BoundRandomPolicy:
    def __init__(self, actions, stream):
        self.actions = tuple(sorted(actions))
        self.stream = stream

    def choose(self, key):
        return self.actions[self.stream.randrange(len(self.actions))]

    def rank(self, key):
        return list(self.actions)


class QPolicy:
    """Epsilon-greedy policy over a Q table; epsilon 0 when evaluating."""

    def __init__(self, qtable: QTable, epsilon: float = 0.0):
        self.qtable = qtable
        self.epsilon = epsilon
        self.stream = None

    def bind(self, stream):
        self.stream = stream

    def choose(self, key):
        return select_action(self.qtable, key, self.epsilon, self.stream)

    def rank(self, key):
        return sorted(self.qtable.actions,
                      key=lambda a: (-self.qtable.get(key, a), a))


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

    The live run calls one method per fact with its fields; replay reads
    the same fields off the trace records through `feed`. Both therefore
    derive the report, each period's reward inputs and each cry-for-help
    label the same way. Ground truth reaches it only through the truth
    tags of events. The open period is kept as running counts.
    """

    def __init__(self, ticks: int, window: int):
        self.window = window
        self.tick = 0
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
        self.tick = tick
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

    def decision(self, tick: int, provenance: str) -> None:
        self.tick = tick
        histogram = self.metrics.stage_histogram
        histogram[provenance] = histogram.get(provenance, 0) + 1

    def veto(self, tick: int, reason: str) -> None:
        self.tick = tick
        vetoes = self.metrics.vetoes_by_reason
        vetoes[reason] = vetoes.get(reason, 0) + 1

    def executed(self, tick: int, action: str, available_before: int,
                 delta: int) -> None:
        self.tick = tick
        self.last_executed = (action, available_before, delta)

    def message(self, tick: int, sent: bool, message_kind: MessageKind | None,
                label: str | None) -> None:
        """A message sent or suppressed; `label` is a sent cry's
        classification. `message_kind` is None for a kind this build lacks."""
        self.tick = tick
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

    def sampled(self, tick: int, value: float, honey: float, resource: float,
                cfh: float) -> None:
        """A period's reward sample and its three terms."""
        self.tick = tick
        m = self.metrics
        m.cumulative_reward += value
        m.honey_term_total += honey
        m.resource_term_total += resource
        m.cfh_term_total += cfh

    def terminated(self, tick: int) -> None:
        self.tick = tick
        self.metrics.agent_terminated_at = tick

    def feed(self, kind: str, tick: int, payload: dict) -> None:
        """Unpack one trace record into the method for its fact."""
        if kind == "event":
            ev = payload["event"]
            self.event(tick, _EVENT_KINDS_BY_LABEL.get(ev["kind"]),
                       ev["truth_malicious"])
        elif kind == "executed_action":
            self.executed(tick, payload["action"], payload["available_before"],
                          payload["delta_resources"])
        elif kind == "decision":
            self.decision(tick, payload["provenance"])
        elif kind == "veto":
            self.veto(tick, payload["reason"])
        elif kind == "message":
            self.message(tick, payload["status"] == "sent",
                         _MESSAGE_KINDS_BY_VALUE.get(payload["message_kind"]),
                         payload["classification"])
        elif kind == "reward_sample":
            terms = payload["terms"]
            self.sampled(tick, payload["value"], terms["honey"],
                         terms["resource"], terms["cfh"])
        elif kind == "agent_status" and payload["status"] == "terminated":
            self.terminated(tick)
        else:
            self.tick = tick

    def classify_cfh(self, evidence_start: int, evidence_end: int) -> str:
        """Ground-truth label of a cry for help: "justified" when a
        truth-tagged event falls inside its inclusive evidence window,
        else "cry_wolf". The window must lie within the held ticks."""
        oldest = max(0, self.tick - self.window + 1)
        if evidence_start < oldest or evidence_end > self.tick:
            raise WindowOutOfRange(
                f"evidence [{evidence_start}, {evidence_end}] outside held "
                f"ticks [{oldest}, {self.tick}]")
        # The held ticks ascend, so the newest one not after the window's
        # end decides: it lies in the window or none does.
        for t in reversed(self.truth_ticks):
            if t <= evidence_end:
                return "justified" if t >= evidence_start else "cry_wolf"
        return "cry_wolf"

    def close_period(self, params: RewardParams, available: int) -> tuple:
        """Tally the open reward period and start the next one; returns
        (reward, (honey, resource, cfh) terms, RewardInputs, credited
        action id or None) of the period's reward sample.

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
        return reward(params, inputs), reward_terms(params, inputs), inputs, credited

    def report(self) -> MetricsReport:
        m = self.metrics
        total_cfh = m.cfh_justified + m.cfh_cry_wolf
        m.cfh_precision = (m.cfh_justified / total_cfh) if total_cfh else None
        return m


def _reward_sample_payload(value: float, terms: tuple, inputs: RewardInputs,
                           credited: str | None) -> dict:
    """The reward_sample record the live run writes and replay expects."""
    honey, resource, cfh = terms
    return {"value": value,
            "terms": {"honey": honey, "resource": resource, "cfh": cfh},
            "inputs": asdict(inputs),
            "credited_action": credited}


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

def make_catalog(config: ScenarioConfig) -> ActionCatalog:
    return build_catalog(config.agent.actions)


def _bind_policy(policy, catalog: ActionCatalog, stream):
    if isinstance(policy, QTable):
        policy = QPolicy(policy, epsilon=0.0)
    if policy is RandomPolicy or isinstance(policy, RandomPolicy) \
            or policy == "random":
        return _BoundRandomPolicy(catalog.selectable_ids, stream), "random"
    if isinstance(policy, QPolicy):
        _check_selectable("Q table", policy.qtable.actions, catalog)
        policy.bind(stream)
        return policy, "q"
    if hasattr(policy, "choose") and hasattr(policy, "rank"):
        if hasattr(policy, "bind"):
            policy.bind(stream)
        return policy, getattr(policy, "name", "custom")
    raise ConfigInvalid(f"unsupported policy object {policy!r}")


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


def run_scenario(config: ScenarioConfig, seed: int, policy,
                 *, learn: bool = False, with_trace: bool = True):
    """Execute one episode; returns (MetricsReport, trace lines).

    trace lines are [] when with_trace is False (training runs skip
    record serialization for speed). The same (config, seed, policy)
    always yields byte-identical lines.
    """
    world = init_world(config, seed)
    catalog = make_catalog(config)
    window = config.agent.window
    rp = config.agent.reward
    params = RewardParams(rp.a, rp.b, rp.c, rp.denominator_floor)

    agent_stream = _kernels.Stream(derive_seed(seed, STREAM_AGENT))
    policy_obj, policy_label = _bind_policy(policy, catalog, agent_stream)
    if learn and not isinstance(policy_obj, QPolicy):
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
    qtable_for_model = policy_obj.qtable if isinstance(policy_obj, QPolicy) \
        else QTable(catalog.selectable_ids)
    profile = FailSafeProfile.from_name(config.cascade.failsafe_profile)

    ctx = StageContext(
        catalog=catalog,
        guard=guard,
        policy=policy_obj,
        online_confidence=config.cascade.online_confidence,
        pattern_table=pattern_table,
        operator=config.cascade.operator,
        game_model=QValueModel(qtable_for_model),
        game_horizon=config.cascade.game_horizon,
        escalation_options=config.cascade.escalation_options,
        stage_costs=config.cascade.stage_costs,
    )

    writer = None
    if with_trace:
        writer = trace_mod.TraceWriter({
            "seed": seed,
            "episode_ticks": config.episode_ticks,
            "window": window,
            "policy": policy_label,
            "reward": {"a": params.a, "b": params.b, "c": params.c,
                       "floor": params.denominator_floor},
            "config_digest": config.digest(),
        })

    # The schedule starts at tick 0 and its ticks strictly increase, so
    # each entry's constraints hold from its tick until the next entry.
    env_cfg = config.env
    env_from_tick = {
        entry.tick: EnvConstraints(connectivity=env_cfg.connectivity,
                                   time_budget=env_cfg.time_budget,
                                   power_budget=env_cfg.power_budget,
                                   emcon_level=EmconLevel.from_name(entry.level))
        for entry in env_cfg.emcon_schedule}
    env = env_from_tick[0]

    accountant = Accountant(config.episode_ticks, window)
    baseline = Baseline()
    window_tally = WindowTally(window)
    # last `window` ticks of events, one list per tick; read only to rank
    # targets by suspicion
    buckets: deque = deque(maxlen=window)

    # The accountant is told each fact's fields; the trace record of the
    # fact is built only when a trace is written.
    agent_active = True
    current_tick = [0]
    tamper_tick = config.guardrails.tamper_tick
    bins = config.agent.bins
    heartbeat_every = config.comms.heartbeat_every
    alert_after_actions = config.comms.alert_after_actions

    def operator_replied():
        t = current_tick[0]
        accountant.event(t, EventKind.OPERATOR_REPLY, False)
        if writer is not None:
            ev = WorldEvent(t, EventKind.OPERATOR_REPLY, "operator", 0, 0.0, False)
            writer.record("event", t, {"event": ev.to_dict()})

    ctx.on_operator_reply = operator_replied

    def send_message(msg, emcon):
        t = current_tick[0]
        rec = send(msg, emcon, guard)
        label = None
        if rec.sent and msg.kind is MessageKind.CRY_FOR_HELP:
            label = accountant.classify_cfh(msg.evidence_start, msg.evidence_end)
        accountant.message(t, rec.sent, msg.kind, label)
        if writer is not None:
            writer.record("message", t, {
                "message_kind": msg.kind.value,
                "status": "sent" if rec.sent else "suppressed",
                "reason": rec.reason,
                "classification": label,
                "evidence_start": msg.evidence_start,
                "evidence_end": msg.evidence_end,
                "entries": list(msg.entries),
                "action_taken": msg.action_taken,
            })

    def terminate(reason):
        t = current_tick[0]
        accountant.terminated(t)
        if writer is not None:
            writer.record("agent_status", t, {"status": "terminated",
                                              "reason": reason})

    if writer is not None:
        writer.record("agent_status", 0, {"status": "active",
                                          "reason": "episode_start"})

    for t in range(config.episode_ticks):
        current_tick[0] = t
        env = env_from_tick.get(t, env)
        emcon = env.emcon_level

        if tamper_tick == t:
            ruleset.budget.max_impact_per_action += 1.0

        if agent_active:
            if verify_sealed(guard) is RulesetCheck.TAMPERED:
                agent_active = False
                terminate("ruleset_tampered")

        events = step_world(world)
        window_tally.push(events)
        buckets.append(events)
        for ev in events:
            accountant.event(t, ev.kind, ev.truth_malicious)
        if writer is not None:
            for ev in events:
                writer.record("event", t, {"event": ev.to_dict()})

        key = None
        if agent_active:
            fv = window_tally.features()
            score, baseline = score_and_update(baseline, fv)
            summary = WorldSummary(world.honeypots_active(), world.pool.available)
            key = discretize(fv, summary, bins, score)
            if writer is not None:  # the accountant reads no percept
                writer.record("percept", t, {"features": fv._asdict(),
                                             "anomaly": score,
                                             "state": key.encode()})

            decision = decide(key, env, ctx, profile)
            provenance = decision.provenance.label
            accountant.decision(t, provenance)
            if writer is not None:
                writer.record("decision", t, {
                    "action": decision.action,
                    "provenance": provenance,
                    "rejected": [[stage.label, reason]
                                 for stage, reason in decision.rejected],
                })
            for stage, action_id, reason in ctx.audit:
                if reason.startswith("guardrail:"):
                    accountant.veto(t, reason)
                    if writer is not None:
                        writer.record("veto", t, {"action": action_id,
                                                  "stage": stage.label,
                                                  "reason": reason})

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
            accountant.executed(t, decision.action, available_before, delta)
            if writer is not None:
                writer.record("executed_action", t, {
                    "action": decision.action,
                    "effect": spec.effect.value,
                    "target": target,
                    "applied": applied,
                    "error": error,
                    "delta_resources": delta,
                    "available_before": available_before,
                    "pool_used": world.pool.used,
                    "pool_available": world.pool.available,
                })

            if applied:
                if spec.effect is ActionEffect.CRY_FOR_HELP:
                    send_message(Message(MessageKind.CRY_FOR_HELP, tick=t,
                                         evidence_start=max(0, t - window + 1),
                                         evidence_end=t), emcon)
                elif spec.effect is ActionEffect.SHARE_BLOCKLIST:
                    core = world.core
                    blocked = tuple(sorted(
                        address for address, status in zip(core.addresses, core.statuses)
                        if status == codes.QUARANTINED))
                    send_message(Message(MessageKind.SHARE_BLOCKLIST, tick=t,
                                         entries=blocked), emcon)
                elif spec.effect is ActionEffect.TERMINATE_SELF:
                    agent_active = False
                    terminate("self_terminated")
                elif alert_after_actions and spec.effect is not ActionEffect.NOOP:
                    send_message(Message(MessageKind.ALERT, tick=t,
                                         action_taken=decision.action), emcon)

            if agent_active and heartbeat_every and t % heartbeat_every == 0:
                send_message(Message(MessageKind.HEARTBEAT, tick=t), emcon)

        if (t + 1) % window == 0:
            value, terms, inputs, credited = accountant.close_period(
                params, world.pool.available)
            accountant.sampled(t, value, *terms)
            if writer is not None:
                writer.record("reward_sample", t, _reward_sample_payload(
                    value, terms, inputs, credited))
            # An agent still active here acted this tick, so the credited
            # action is this tick's decision, taken in state `key`.
            if learn and agent_active:
                q_update(policy_obj.qtable, key, decision.action, value, key)

    lines = writer.finish() if writer is not None else []
    return accountant.report(), lines


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
    catalog = make_catalog(config)
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


def evaluate(config: ScenarioConfig, policy_spec, seeds, with_trace: bool = False):
    """Greedy evaluation over a seed list; reports are seed-ordered."""
    reports = []
    for seed in seeds:
        report, lines = run_scenario(config, seed, policy_spec, with_trace=with_trace)
        reports.append((seed, report, lines))
    return reports


# ---------------------------------------------------------------------------
# offline pattern training

def offline_train(corpus, min_support: int = 5) -> PatternTable:
    """Condense (state, action, success) triples into a pattern table.

    States seen fewer than min_support times are dropped; each kept
    state maps to the action with the best empirical success rate
    (ties: more samples, then lowest id), at that rate as confidence.
    """
    corpus = list(corpus)
    if not corpus:
        raise EmptyCorpus("no experience triples to train on")
    per_state: dict = {}
    for state, action, success in corpus:
        stats = per_state.setdefault(state, {})
        wins, total = stats.get(action, (0, 0))
        stats[action] = (wins + (1 if success else 0), total + 1)
    table = PatternTable()
    for state, stats in per_state.items():
        seen = sum(total for _, total in stats.values())
        if seen < min_support:
            continue
        best = min(stats.items(),
                   key=lambda kv: (-(kv[1][0] / kv[1][1]), -kv[1][1], kv[0]))
        action, (wins, total) = best
        table.entries[state] = (action, wins / total)
    return table


def experience_from_trace(lines, window: int | None = None):
    """Extract (StateKey, action, success) triples from a trace.

    A decision is marked successful when the reward sample closing its
    accounting period is positive.
    """
    header, records = trace_mod.parse(lines)
    window = window or header["window"]
    decisions = []
    state_by_tick = {}
    triples = []
    for rec in records:
        if rec["kind"] == "percept":
            state_by_tick[rec["tick"]] = StateKey.decode(rec["state"])
        elif rec["kind"] == "decision":
            state = state_by_tick.get(rec["tick"])
            if state is not None:
                decisions.append((rec["tick"], state, rec["action"]))
        elif rec["kind"] == "reward_sample":
            success = rec["value"] > 0
            tick = rec["tick"]
            for dt, state, action in decisions:
                if tick - window < dt <= tick:
                    triples.append((state, action, success))
            decisions = [d for d in decisions if d[0] > tick]
    return triples


# ---------------------------------------------------------------------------
# replay

def replay(lines) -> MetricsReport:
    """Recompute the metrics purely from trace records.

    Feeds every record's fields to the Accountant the live run uses. Each sent
    cry for help's classification and each reward sample must equal what
    the accountant derives from the records before it and the stated
    reward parameters. Each executed action's pool figures must follow
    from its own resource delta, its `applied` flag must say whether it
    failed, and the pool's capacity (used plus available) must not
    change. A mismatch raises TraceCorrupt.
    """
    header, records = trace_mod.parse(lines)
    rw = header["reward"]
    params = RewardParams(rw["a"], rw["b"], rw["c"], rw["floor"])
    accountant = Accountant(header["episode_ticks"], header["window"])
    capacity = None
    for rec in records:
        kind = rec["kind"]
        if kind == "message" and rec["status"] == "sent" \
                and rec["message_kind"] == _CRY_FOR_HELP:
            try:
                label = accountant.classify_cfh(rec["evidence_start"],
                                                rec["evidence_end"])
            except WindowOutOfRange as exc:
                raise TraceCorrupt(f"seq {rec['seq']}: {exc}") from exc
            _expect(rec, {"classification": label})
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
        accountant.feed(kind, rec["tick"], rec)
    return accountant.report()


def _expect(rec: dict, derived: dict) -> None:
    for name, value in derived.items():
        if rec[name] != value:
            raise TraceCorrupt(
                f"{rec['kind']} at seq {rec['seq']}: {name}={rec[name]!r} "
                f"but records imply {value!r}")


# ---------------------------------------------------------------------------
# artifact io

def save_qtable(qtable: QTable, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(qtable.to_dict(), fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_qtable(path) -> QTable:
    """Read a table written by save_qtable; ConfigInvalid when the file
    is not JSON, lacks a field of that layout, or holds a field of
    another type: actions must be a list of strings, and alpha, gamma
    and every entry value finite numbers."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
            table = QTable.from_dict(data)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ConfigInvalid(f"{path} is not a Q table: {exc!r}") from exc
    actions = data["actions"]
    if type(actions) is not list or any(type(a) is not str for a in actions):
        raise ConfigInvalid(f"{path} is not a Q table: actions {actions!r} "
                            f"is not a list of action ids")
    for name, value in (("alpha", table.alpha), ("gamma", table.gamma),
                        *data["entries"].items()):
        if type(value) not in (int, float) or not math.isfinite(value):
            raise ConfigInvalid(f"{path} is not a Q table: {name} = {value!r} "
                                f"is not a finite number")
    return table


def save_pattern_table(table: PatternTable, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(table.to_dict(), fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_pattern_table(path) -> PatternTable:
    """Read a table written by save_pattern_table; ConfigInvalid when the
    file is not JSON or lacks the layout of PatternTable.to_dict."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            table = PatternTable.from_dict(json.load(fh))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ConfigInvalid(f"{path} is not a pattern table: {exc!r}") from exc
    for action, conf in table.entries.values():
        if type(action) is not str or type(conf) not in (int, float):
            raise ConfigInvalid(f"{path} is not a pattern table: entry "
                                f"[{action!r}, {conf!r}] is not [action, confidence]")
    return table
