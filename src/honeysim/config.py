"""Scenario configuration: a strict, fully-defaulted key/value tree.

Every tunable constant in the simulator lives here rather than in
code. A scenario file is YAML; unknown keys are rejected so a typo
cannot silently fall back to a default. A (config, seed) pair fully
determines a run.

The dataclass annotations below are the schema: each field's type, the
item type of each list and map, as a `Literal` the choice set of each
closed set of names, and, as `Annotated` with `Bounds`, the range of
each bounded number. `from_mapping` builds a scenario and checks every
value's type and range in one walk over them; `validate` then checks
every other rule a run relies on, so a scenario that loads also starts.
The annotations are evaluated when each class is made, not postponed,
so the walk reads them as types.
"""

import dataclasses
import functools
import math
import types
import typing
from dataclasses import dataclass, field
from typing import Annotated, Literal

import yaml

from .actions import AutonomyLevel, build_catalog
from .constraints import EmconLevel, FailSafeProfile
from .errors import ConfigInvalid
from .trace import MAX_EXACT_INT, dumps, sha256_hex


def _names(enum):
    """The Literal of an enum's labels, the names a scenario gives it."""
    return Literal[tuple(enum.labels().values())]


Emcon = _names(EmconLevel)
Autonomy = _names(AutonomyLevel)
FailsafeProfile = _names(FailSafeProfile)
OperatorBehavior = Literal["approve_first", "decline"]


@dataclass(frozen=True)
class Bounds:
    """The closed range [low, high] of a number field."""
    low: float
    high: float = math.inf

    def __contains__(self, value) -> bool:
        return self.low <= value <= self.high

    def __str__(self):
        if self.high == math.inf:
            return f">= {self.low}"
        return f"in [{self.low}, {self.high}]"


Probability = Annotated[float, Bounds(0.0, 1.0)]
NonNegative = Annotated[int, Bounds(0)]
Positive = Annotated[int, Bounds(1)]
NonNegativeNumber = Annotated[float, Bounds(0.0)]
# A reward coefficient: at most 2^53 in size, like every count it
# multiplies, so each reward, period total and Q value stays finite.
Coefficient = Annotated[float, Bounds(-MAX_EXACT_INT, MAX_EXACT_INT)]
# The largest float below 1, so that a closed range states gamma < 1.
_BELOW_ONE = math.nextafter(1.0, 0.0)


# WorldConfig's node groups, each named by its node kind's label, with
# the prefix of their node ids.
NODE_GROUPS = {"database": "db", "application": "app", "web": "web", "honeypot": "hp"}


def node_id(group: str, index: int) -> str:
    return f"{NODE_GROUPS[group]}-{index}"


@dataclass
class NodeGroupConfig:
    # Bounded so that a load stays quick, since `validate` names every
    # initial node: 10,000 per group is a thousand times the reference's.
    count: Annotated[int, Bounds(0, 10_000)] = 0
    cost: NonNegative = 10


@dataclass
class CampaignConfig:
    id: str = "apt-0"
    intensity: Probability = 0.6
    activation_tick: NonNegative = 0
    # Node ids whose initial addresses the campaign starts out knowing.
    known_nodes: tuple[str, ...] = ()


@dataclass
class WorldConfig:
    capacity: NonNegative = 140
    database: NodeGroupConfig = field(default_factory=lambda: NodeGroupConfig(count=3))
    application: NodeGroupConfig = field(default_factory=lambda: NodeGroupConfig(count=3))
    web: NodeGroupConfig = field(default_factory=lambda: NodeGroupConfig(count=3))
    honeypot: NodeGroupConfig = field(default_factory=lambda: NodeGroupConfig(count=1))
    honeypot_decoys: NonNegative = 2
    dummy_files_per_deploy: Positive = 3
    campaigns: tuple[CampaignConfig, ...] = field(default_factory=lambda: (CampaignConfig(),))
    p_detect: Probability = 0.7
    p_decoy_touch: Probability = 0.5
    p_dummy_process: Probability = 0.3
    p_integrity_alert: Probability = 0.2
    p_antimalware_alert: Probability = 0.1
    p_false_ids: Probability = 0.02
    p_false_antimalware: Probability = 0.01
    p_false_unauthorized: Probability = 0.02
    p_logline: Probability = 0.3
    load_noise: Probability = 0.1
    hits_to_compromise: Positive = 3


@dataclass
class RewardConfig:
    a: Coefficient = 1.0
    b: Coefficient = 1.0
    c: Coefficient = 1.0
    denominator_floor: Positive = 1


@dataclass
class LearningConfig:
    alpha: Probability = 0.1
    gamma: Annotated[float, Bounds(0.0, _BELOW_ONE)] = 0.9
    epsilon_start: Probability = 0.3
    epsilon_end: Probability = 0.05


@dataclass
class BinsConfig:
    threat: tuple[float, ...] = (0.5, 1.5, 3.0)
    load: tuple[float, ...] = (0.25, 0.5, 0.75)
    honeypots: tuple[float, ...] = (1, 2, 4)


@dataclass
class ActionOverride:
    impact: float | None = None
    emission_cost: int | None = None
    autonomy: Autonomy | None = None
    enabled: bool | None = None


@dataclass
class AgentConfig:
    window: Positive = 20
    reward: RewardConfig = field(default_factory=RewardConfig)
    learning: LearningConfig = field(default_factory=LearningConfig)
    bins: BinsConfig = field(default_factory=BinsConfig)
    actions: dict[str, ActionOverride] = field(default_factory=dict)


@dataclass
class StageCostConfig:
    time: NonNegative = 0
    power: NonNegative = 0


# The field names of StageCostsConfig and ThresholdsConfig are the
# cascade's stage labels (StageId.label); the cascade reads them by label.
# The operator and game search propose at confidence 1.0: no threshold.
@dataclass
class StageCostsConfig:
    pattern_recognition: StageCostConfig = field(default_factory=StageCostConfig)
    online_learning: StageCostConfig = field(default_factory=lambda: StageCostConfig(time=1, power=5))
    human_escalation: StageCostConfig = field(default_factory=lambda: StageCostConfig(time=5, power=1))
    game_search: StageCostConfig = field(default_factory=lambda: StageCostConfig(time=10, power=10))


@dataclass
class ThresholdsConfig:
    pattern_recognition: Probability = 0.8
    online_learning: Probability = 0.6
    fail_safe: Probability = 0.0


@dataclass
class OperatorConfig:
    behavior: OperatorBehavior = "approve_first"
    latency: NonNegative = 1


@dataclass
class CascadeConfig:
    thresholds: ThresholdsConfig = field(default_factory=ThresholdsConfig)
    stage_costs: StageCostsConfig = field(default_factory=StageCostsConfig)
    online_confidence: Probability = 0.9
    failsafe_profile: FailsafeProfile = "no_action"
    operator: OperatorConfig = field(default_factory=OperatorConfig)
    game_horizon: Positive = 2
    pattern_table: str | None = None


# Field names are the EMCON level labels (EmconLevel.label).
@dataclass
class AutonomyGatesConfig:
    open: Autonomy = "delegated"
    restricted: Autonomy = "previsioned"
    silent: Autonomy = "reflex"


@dataclass
class GuardrailConfig:
    max_impact_per_action: NonNegativeNumber = 5.0
    mission_need: NonNegativeNumber = 8.0
    autonomy_gates: AutonomyGatesConfig = field(default_factory=AutonomyGatesConfig)
    # Test hook: mutate the live ruleset at this tick to exercise the
    # tamper-kill contract. None in normal scenarios.
    tamper_tick: NonNegative | None = None


@dataclass
class CommsConfig:
    heartbeat_every: NonNegative = 0
    alert_after_actions: bool = False


@dataclass
class EmconEntry:
    tick: int = 0
    level: Emcon = "open"


@dataclass
class EnvConfig:
    connectivity: bool = True
    time_budget: NonNegative = 10
    power_budget: NonNegative = 10
    emcon_schedule: tuple[EmconEntry, ...] = field(default_factory=lambda: (EmconEntry(),))


@dataclass
class ScenarioConfig:
    world: WorldConfig = field(default_factory=WorldConfig)
    agent: AgentConfig = field(default_factory=AgentConfig)
    cascade: CascadeConfig = field(default_factory=CascadeConfig)
    guardrails: GuardrailConfig = field(default_factory=GuardrailConfig)
    comms: CommsConfig = field(default_factory=CommsConfig)
    env: EnvConfig = field(default_factory=EnvConfig)
    episode_ticks: Positive = 2000
    seed: NonNegative = 1

    def to_dict(self):
        return _as_plain(self)

    def canonical_json(self):
        return dumps(self.to_dict())

    def digest(self):
        return sha256_hex(self.canonical_json().encode("utf-8"))


# -- strict construction ----------------------------------------------------

def _as_plain(obj):
    if dataclasses.is_dataclass(obj):
        return {f.name: _as_plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, (list, tuple)):
        return [_as_plain(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _as_plain(v) for k, v in obj.items()}
    return obj


def _check(cond, msg):
    if not cond:
        raise ConfigInvalid(msg)


def _is_finite_number(value) -> bool:
    return type(value) is int or (type(value) is float and math.isfinite(value))


# What each scalar type accepts. A bool is an int to Python, but not to
# a scenario. An int must be one the trace holds exactly; a float field
# takes a finite float or any int, kept as written.
_SCALARS = {
    int: (lambda v: type(v) is int and -MAX_EXACT_INT <= v <= MAX_EXACT_INT,
          f"an integer within ±{MAX_EXACT_INT}"),
    float: (_is_finite_number, "a finite number"),
    bool: (lambda v: type(v) is bool, "true or false"),
    str: (lambda v: type(v) is str, "a string"),
}
_UNIONS = (typing.Union, types.UnionType)


@functools.cache  # per section class
def _field_types(section):
    return typing.get_type_hints(section, include_extras=True)


def _build(tp, data, path: str, default=None):
    """Build a value of type `tp` from `data`, the scenario value at
    `path`, checking its type and range on the way down. A section
    keeps each key it is not given from `default`, the value its field
    takes when the section is omitted, or else from its class. Nothing
    is converted but lists to tuples, so a valid value keeps its config
    digest."""
    if dataclasses.is_dataclass(tp):  # a section, from a mapping
        where = path or "scenario"
        if data is None:
            data = {}
        if type(data) is not dict:
            raise ConfigInvalid(f"{where}: expected a mapping, got {type(data).__name__}")
        hints = _field_types(tp)
        unknown = data.keys() - hints.keys()
        if unknown:
            raise ConfigInvalid(f"{where}: unknown keys {sorted(unknown, key=str)}")
        base = tp() if default is None else default
        prefix = f"{path}." if path else ""
        return dataclasses.replace(base, **{
            name: _build(hints[name], value, prefix + name, getattr(base, name))
            for name, value in data.items()})
    origin = typing.get_origin(tp)
    if origin is tuple:  # tuple[X, ...], from a list
        if type(data) not in (list, tuple):
            raise ConfigInvalid(f"{path} must be a list, got {data!r}")
        item = typing.get_args(tp)[0]
        return tuple(_build(item, v, f"{path}[{i}]") for i, v in enumerate(data))
    if origin is dict:  # dict[str, X], from a mapping
        if type(data) is not dict:
            raise ConfigInvalid(f"{path} must be a mapping, got {data!r}")
        item = typing.get_args(tp)[1]
        built = {}
        for key, value in data.items():
            if type(key) is not str:
                raise ConfigInvalid(f"{path}: key {key!r} must be a string")
            built[key] = _build(item, value, f"{path}.{key}")
        return built
    if origin is Annotated:  # a number with Bounds
        inner, bounds = typing.get_args(tp)
        value = _build(inner, data, path)
        if value not in bounds:
            raise ConfigInvalid(f"{path} must be {bounds}, got {value!r}")
        return value
    if origin in _UNIONS:  # X | None
        return None if data is None else _build(typing.get_args(tp)[0], data, path)
    if origin is Literal:  # a closed set of names
        names = typing.get_args(tp)
        if type(data) is not str or data not in names:
            raise ConfigInvalid(f"{path} must be one of {names}, got {data!r}")
        return data
    accepts, what = _SCALARS[tp]
    if not accepts(data):
        raise ConfigInvalid(f"{path} must be {what}, got {data!r}")
    return data


def validate(config: ScenarioConfig) -> ScenarioConfig:
    """Check the rules that relate two fields or the items of a list,
    among them that the initial nodes fit in the capacity and that each
    known node is an initial one, and the action catalog's rules;
    `_build` has checked each field's own type and range."""
    seen_ids = set()
    for camp in config.world.campaigns:
        _check(camp.id not in seen_ids, f"duplicate campaign id {camp.id!r}")
        seen_ids.add(camp.id)

    for name in ("threat", "load", "honeypots"):
        bins = getattr(config.agent.bins, name)
        _check(len(bins) == 3 and list(bins) == sorted(bins),
               f"agent.bins.{name} must be three ascending thresholds")

    g = config.guardrails
    _check(g.max_impact_per_action <= g.mission_need,
           "guardrails.max_impact_per_action must not exceed mission_need")
    gates = g.autonomy_gates
    rank = AutonomyLevel.from_name
    _check(rank(gates.open) >= rank(gates.restricted) >= rank(gates.silent),
           "guardrails.autonomy_gates must be monotone: open >= restricted >= silent")

    ticks = [entry.tick for entry in config.env.emcon_schedule]
    _check(len(ticks) >= 1, "env.emcon_schedule must not be empty")
    _check(ticks[0] == 0, "env.emcon_schedule must start at tick 0")
    _check(all(a < b for a, b in zip(ticks, ticks[1:])),
           "env.emcon_schedule ticks must be strictly increasing")

    w = config.world
    groups = {name: getattr(w, name) for name in NODE_GROUPS}
    used = sum(group.count * group.cost for group in groups.values())
    _check(used <= w.capacity,
           f"initial running nodes need {used} units but capacity is {w.capacity}")
    initial = {node_id(name, k) for name, group in groups.items() for k in range(group.count)}
    for camp in w.campaigns:
        for known in camp.known_nodes:
            _check(known in initial, f"campaign {camp.id!r} references unknown node {known!r}")
    build_catalog(config.agent.actions)
    return config


def check_seed(seed) -> int:
    """`seed` if a scenario's `seed` field takes it; else ConfigInvalid."""
    return _build(_field_types(ScenarioConfig)["seed"], seed, "seed")


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
