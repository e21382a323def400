"""Scenario configuration: a strict, fully-defaulted key/value tree.

Every tunable constant in the simulator lives here rather than in
code. A scenario file is YAML; unknown keys are rejected so a typo
cannot silently fall back to a default. A (config, seed) pair fully
determines a run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field

import yaml

from .errors import ConfigInvalid

EMCON_LEVELS = ("open", "restricted", "silent")
AUTONOMY_LEVELS = ("reflex", "previsioned", "collaborative", "delegated")
FAILSAFE_PROFILES = ("no_action", "low_threshold_act", "terminate")
OPERATOR_BEHAVIORS = ("approve_first", "decline")


@dataclass
class NodeGroupConfig:
    count: int = 0
    cost: int = 10


@dataclass
class CampaignConfig:
    id: str = "apt-0"
    intensity: float = 0.6
    activation_tick: int = 0
    # Node ids whose initial addresses the campaign starts out knowing.
    known_nodes: tuple = ()


@dataclass
class WorldConfig:
    capacity: int = 140
    database: NodeGroupConfig = field(default_factory=lambda: NodeGroupConfig(count=3))
    application: NodeGroupConfig = field(default_factory=lambda: NodeGroupConfig(count=3))
    web: NodeGroupConfig = field(default_factory=lambda: NodeGroupConfig(count=3))
    honeypot: NodeGroupConfig = field(default_factory=lambda: NodeGroupConfig(count=1))
    honeypot_decoys: int = 2
    dummy_files_per_deploy: int = 3
    campaigns: tuple = field(default_factory=lambda: (CampaignConfig(),))
    p_detect: float = 0.7
    p_decoy_touch: float = 0.5
    p_dummy_process: float = 0.3
    p_integrity_alert: float = 0.2
    p_antimalware_alert: float = 0.1
    p_false_ids: float = 0.02
    p_false_antimalware: float = 0.01
    p_false_unauthorized: float = 0.02
    p_logline: float = 0.3
    load_noise: float = 0.1
    hits_to_compromise: int = 3


@dataclass
class RewardConfig:
    a: float = 1.0
    b: float = 1.0
    c: float = 1.0
    denominator_floor: int = 1


@dataclass
class LearningConfig:
    alpha: float = 0.1
    gamma: float = 0.9
    epsilon_start: float = 0.3
    epsilon_end: float = 0.05


@dataclass
class BinsConfig:
    threat: tuple = (0.5, 1.5, 3.0)
    load: tuple = (0.25, 0.5, 0.75)
    honeypots: tuple = (1, 2, 4)


@dataclass
class ActionOverride:
    impact: float | None = None
    emission_cost: int | None = None
    autonomy: str | None = None
    enabled: bool | None = None


@dataclass
class AgentConfig:
    window: int = 20
    reward: RewardConfig = field(default_factory=RewardConfig)
    learning: LearningConfig = field(default_factory=LearningConfig)
    bins: BinsConfig = field(default_factory=BinsConfig)
    actions: dict = field(default_factory=dict)


@dataclass
class StageCostConfig:
    time: int = 0
    power: int = 0


# The field names of StageCostsConfig and ThresholdsConfig are the
# cascade's stage labels (StageId.label); the cascade reads them by label.
@dataclass
class StageCostsConfig:
    pattern_recognition: StageCostConfig = field(default_factory=StageCostConfig)
    online_learning: StageCostConfig = field(default_factory=lambda: StageCostConfig(time=1, power=5))
    human_escalation: StageCostConfig = field(default_factory=lambda: StageCostConfig(time=5, power=1))
    game_search: StageCostConfig = field(default_factory=lambda: StageCostConfig(time=10, power=10))


@dataclass
class ThresholdsConfig:
    pattern_recognition: float = 0.8
    online_learning: float = 0.6
    human_escalation: float = 0.5
    game_search: float = 0.3
    fail_safe: float = 0.0


@dataclass
class OperatorConfig:
    behavior: str = "approve_first"
    latency: int = 1


@dataclass
class CascadeConfig:
    thresholds: ThresholdsConfig = field(default_factory=ThresholdsConfig)
    stage_costs: StageCostsConfig = field(default_factory=StageCostsConfig)
    online_confidence: float = 0.9
    failsafe_profile: str = "no_action"
    operator: OperatorConfig = field(default_factory=OperatorConfig)
    game_horizon: int = 2
    escalation_options: int = 3
    pattern_table: str | None = None


# Field names are the EMCON level labels (EmconLevel.label).
@dataclass
class AutonomyGatesConfig:
    open: str = "delegated"
    restricted: str = "previsioned"
    silent: str = "reflex"


@dataclass
class GuardrailConfig:
    max_impact_per_action: float = 5.0
    mission_need: float = 8.0
    autonomy_gates: AutonomyGatesConfig = field(default_factory=AutonomyGatesConfig)
    # Test hook: mutate the live ruleset at this tick to exercise the
    # tamper-kill contract. None in normal scenarios.
    tamper_tick: int | None = None


@dataclass
class CommsConfig:
    heartbeat_every: int = 0
    alert_after_actions: bool = False


@dataclass
class EmconEntry:
    tick: int = 0
    level: str = "open"


@dataclass
class EnvConfig:
    connectivity: bool = True
    time_budget: int = 10
    power_budget: int = 10
    emcon_schedule: tuple = field(default_factory=lambda: (EmconEntry(),))


@dataclass
class ScenarioConfig:
    world: WorldConfig = field(default_factory=WorldConfig)
    agent: AgentConfig = field(default_factory=AgentConfig)
    cascade: CascadeConfig = field(default_factory=CascadeConfig)
    guardrails: GuardrailConfig = field(default_factory=GuardrailConfig)
    comms: CommsConfig = field(default_factory=CommsConfig)
    env: EnvConfig = field(default_factory=EnvConfig)
    episode_ticks: int = 2000
    seed: int = 1

    def to_dict(self):
        return _as_plain(self)

    def canonical_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def digest(self):
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()


# -- strict construction ----------------------------------------------------

_TUPLE_ITEM_TYPES = {
    ("WorldConfig", "campaigns"): CampaignConfig,
    ("EnvConfig", "emcon_schedule"): EmconEntry,
}


def _as_plain(obj):
    if dataclasses.is_dataclass(obj):
        return {f.name: _as_plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, (list, tuple)):
        return [_as_plain(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _as_plain(v) for k, v in obj.items()}
    return obj


def _build(cls, data, path):
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigInvalid(f"{path}: expected a mapping, got {type(data).__name__}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(data) - set(fields)
    if unknown:
        raise ConfigInvalid(f"{path}: unknown keys {sorted(unknown)}")
    kwargs = {}
    for name, value in data.items():
        f = fields[name]
        sub = f"{path}.{name}" if path else name
        item_cls = _TUPLE_ITEM_TYPES.get((cls.__name__, name))
        if item_cls is not None:
            if not isinstance(value, (list, tuple)):
                raise ConfigInvalid(f"{sub}: expected a list")
            kwargs[name] = tuple(_build(item_cls, v, f"{sub}[{i}]")
                                 for i, v in enumerate(value))
        elif dataclasses.is_dataclass(_field_default_type(f)):
            kwargs[name] = _build(_field_default_type(f), value, sub)
        elif name == "actions":
            if not isinstance(value, dict):
                raise ConfigInvalid(f"{sub}: expected a mapping of action overrides")
            kwargs[name] = {k: _build(ActionOverride, v, f"{sub}.{k}")
                            for k, v in value.items()}
        elif isinstance(value, list):
            kwargs[name] = tuple(value)
        else:
            kwargs[name] = value
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigInvalid(f"{path}: {exc}") from exc


def _field_default_type(f):
    # Nested sections are recognised by their default_factory product.
    if f.default_factory is not dataclasses.MISSING:  # type: ignore[misc]
        probe = f.default_factory()
        if dataclasses.is_dataclass(probe):
            return type(probe)
    return None


def _check(cond, msg):
    if not cond:
        raise ConfigInvalid(msg)


def _is_finite_number(value) -> bool:
    return type(value) is int or (type(value) is float and math.isfinite(value))


# What each annotated field type accepts, by the annotation's text (the
# dataclasses above are defined under `from __future__ import annotations`).
# A bool is an int to Python, but not to a scenario.
_FIELD_TYPES = {
    "int": (lambda v: type(v) is int, "an integer"),
    "float": (_is_finite_number, "a finite number"),
    "bool": (lambda v: type(v) is bool, "true or false"),
    "str": (lambda v: type(v) is str, "a string"),
    "tuple": (lambda v: type(v) is tuple, "a list"),
}


def _check_types(obj, path: str) -> None:
    """Reject a value whose type is not its field's; `X | None` also
    takes null. Nested sections, list items and action overrides are
    checked in turn."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        sub = f"{path}.{f.name}" if path else f.name
        if dataclasses.is_dataclass(value):
            _check_types(value, sub)
            continue
        want, _, optional = f.type.partition(" | ")
        if want in _FIELD_TYPES and not (optional == "None" and value is None):
            accepts, what = _FIELD_TYPES[want]
            _check(accepts(value), f"{sub} must be {what}, got {value!r}")
        if type(value) is tuple:  # campaigns, emcon_schedule
            for i, item in enumerate(value):
                if dataclasses.is_dataclass(item):
                    _check_types(item, f"{sub}[{i}]")
        elif type(value) is dict:  # agent.actions
            for key, item in value.items():
                if dataclasses.is_dataclass(item):
                    _check_types(item, f"{sub}.{key}")


def _check_prob(value, name):
    _check(0.0 <= value <= 1.0,
           f"{name} must be a probability in [0, 1], got {value!r}")


def validate(config: ScenarioConfig) -> ScenarioConfig:
    _check_types(config, "")
    w = config.world
    for group in ("database", "application", "web", "honeypot"):
        g = getattr(w, group)
        _check(g.count >= 0,
               f"world.{group}.count must be a non-negative integer")
        _check(g.cost >= 0,
               f"world.{group}.cost must be a non-negative integer")
    _check(w.capacity >= 0,
           "world.capacity must be a non-negative integer")
    _check(w.hits_to_compromise >= 1, "world.hits_to_compromise must be >= 1")
    _check(w.honeypot_decoys >= 0, "world.honeypot_decoys must be >= 0")
    _check(w.dummy_files_per_deploy >= 1, "world.dummy_files_per_deploy must be >= 1")
    for name in ("p_detect", "p_decoy_touch", "p_dummy_process",
                 "p_integrity_alert", "p_antimalware_alert", "p_false_ids",
                 "p_false_antimalware", "p_false_unauthorized", "p_logline"):
        _check_prob(getattr(w, name), f"world.{name}")
    _check(0.0 <= w.load_noise <= 1.0, "world.load_noise must be in [0, 1]")
    seen_ids = set()
    for i, camp in enumerate(w.campaigns):
        _check_prob(camp.intensity, f"world.campaigns[{i}].intensity")
        _check(camp.activation_tick >= 0,
               f"world.campaigns[{i}].activation_tick must be >= 0")
        _check(camp.id not in seen_ids, f"duplicate campaign id {camp.id!r}")
        seen_ids.add(camp.id)

    a = config.agent
    _check(a.window >= 1, "agent.window must be >= 1")
    _check(a.reward.denominator_floor >= 1,
           "agent.reward.denominator_floor must be >= 1")
    _check(0.0 <= a.learning.alpha <= 1.0, "agent.learning.alpha must be in [0, 1]")
    _check(0.0 <= a.learning.gamma < 1.0, "agent.learning.gamma must be in [0, 1)")
    _check_prob(a.learning.epsilon_start, "agent.learning.epsilon_start")
    _check_prob(a.learning.epsilon_end, "agent.learning.epsilon_end")
    for name in ("threat", "load", "honeypots"):
        bins = getattr(a.bins, name)
        _check(len(bins) == 3 and all(map(_is_finite_number, bins))
               and list(bins) == sorted(bins),
               f"agent.bins.{name} must be three ascending thresholds")
    for action, ov in a.actions.items():
        if ov.autonomy is not None:
            _check(ov.autonomy in AUTONOMY_LEVELS,
                   f"agent.actions.{action}.autonomy must be one of {AUTONOMY_LEVELS}")

    c = config.cascade
    for f in dataclasses.fields(c.thresholds):
        _check_prob(getattr(c.thresholds, f.name), f"cascade.thresholds.{f.name}")
    for f in dataclasses.fields(c.stage_costs):
        cost = getattr(c.stage_costs, f.name)
        _check(cost.time >= 0 and cost.power >= 0,
               f"cascade.stage_costs.{f.name} must be non-negative")
    _check_prob(c.online_confidence, "cascade.online_confidence")
    _check(c.failsafe_profile in FAILSAFE_PROFILES,
           f"cascade.failsafe_profile must be one of {FAILSAFE_PROFILES}")
    _check(c.operator.behavior in OPERATOR_BEHAVIORS,
           f"cascade.operator.behavior must be one of {OPERATOR_BEHAVIORS}")
    _check(c.operator.latency >= 0, "cascade.operator.latency must be >= 0")
    _check(c.game_horizon >= 1, "cascade.game_horizon must be >= 1")
    _check(c.escalation_options >= 1, "cascade.escalation_options must be >= 1")

    g = config.guardrails
    _check(g.max_impact_per_action >= 0, "guardrails.max_impact_per_action must be >= 0")
    _check(g.mission_need >= 0, "guardrails.mission_need must be >= 0")
    _check(g.max_impact_per_action <= g.mission_need,
           "guardrails.max_impact_per_action must not exceed mission_need")
    gates = g.autonomy_gates
    for level in EMCON_LEVELS:
        _check(getattr(gates, level) in AUTONOMY_LEVELS,
               f"guardrails.autonomy_gates.{level} must be one of {AUTONOMY_LEVELS}")
    ranks = {name: i for i, name in enumerate(AUTONOMY_LEVELS)}
    _check(ranks[gates.open] >= ranks[gates.restricted] >= ranks[gates.silent],
           "guardrails.autonomy_gates must be monotone: open >= restricted >= silent")
    if g.tamper_tick is not None:
        _check(g.tamper_tick >= 0, "guardrails.tamper_tick must be >= 0")

    _check(config.comms.heartbeat_every >= 0, "comms.heartbeat_every must be >= 0")

    e = config.env
    _check(e.time_budget >= 0, "env.time_budget must be >= 0")
    _check(e.power_budget >= 0, "env.power_budget must be >= 0")
    _check(len(e.emcon_schedule) >= 1, "env.emcon_schedule must not be empty")
    _check(e.emcon_schedule[0].tick == 0, "env.emcon_schedule must start at tick 0")
    last = -1
    for i, entry in enumerate(e.emcon_schedule):
        _check(entry.level in EMCON_LEVELS,
               f"env.emcon_schedule[{i}].level must be one of {EMCON_LEVELS}")
        _check(entry.tick > last or (i == 0 and entry.tick == 0),
               "env.emcon_schedule ticks must be strictly increasing")
        last = entry.tick

    _check(config.episode_ticks >= 1, "episode_ticks must be >= 1")
    _check(config.seed >= 0,
           "seed must be a non-negative integer")
    return config


def from_mapping(data: dict) -> ScenarioConfig:
    return validate(_build(ScenarioConfig, data, ""))


def load_file(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigInvalid(f"{path}: not valid YAML: {exc}") from exc
        except ValueError as exc:  # a scalar Python cannot convert
            raise ConfigInvalid(f"{path}: a value YAML cannot convert: {exc}") from exc
    if data is None:
        data = {}
    return from_mapping(data)
