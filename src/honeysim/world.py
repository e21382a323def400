"""Deterministic discrete-event model of the defended cloud.

A WorldState owns the only randomness in a run: a master seed split
into fixed per-subsystem streams (benign traffic, detection sweep,
one per attacker campaign, one reserved for the agent's policy), so
adding a subsystem never perturbs another's draws.

Critical invariants:
  * used == sum of costs over non-Stopped nodes at every tick. A
    node's consumption must never depend on Compromised vs Running,
    otherwise pool telemetry would leak ground truth to the agent.
  * truth_malicious is True exactly when the event's causal chain
    starts in an attacker campaign.
  * After an address rotation the stale token maps to no node, so a
    campaign holding it makes no progress until recon re-observes.
  * A node transition to Compromised always emits one truth-tagged
    UnauthorizedAccess event; traces can recount compromises from
    event records alone.
  * A stopped honeypot can never run again, so stopping one retires
    it: it leaves the kernel arrays and node_ids, and only its id is
    kept in WorldState.retired. Nothing that scans or draws from
    the nodes selects a Stopped honeypot, so retiring it changes no
    draw and no event; per-tick cost and memory follow the resident
    nodes, not the number of honeypots ever started.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import NamedTuple

from . import _kernels
from ._kernels import CoreWorld, codes
from .config import ScenarioConfig
from .errors import ConfigInvalid, IllegalTransition, InsufficientResources, NoSuchNode
from .actions import ActionEffect

_DERIVE_SALT = 0xD1B54A32D192ED03
_MASK = (1 << 64) - 1

# Fixed derivation order for per-subsystem streams.
STREAM_BENIGN = 0
STREAM_DETECT = 1
STREAM_AGENT = 2
STREAM_SCRATCH = 3
STREAM_CAMPAIGN_BASE = 16


def derive_seed(master: int, index: int) -> int:
    """Derive the state of subsystem stream `index` from the master seed."""
    return _kernels.mix64((master + (index + 1) * _DERIVE_SALT) & _MASK)


class NodeKind(IntEnum):
    DATABASE = codes.DATABASE
    APPLICATION = codes.APPLICATION
    WEB = codes.WEB
    HONEYPOT = codes.HONEYPOT

    @property
    def label(self) -> str:
        return self.name.lower()


class NodeStatus(IntEnum):
    RUNNING = codes.RUNNING
    STOPPED = codes.STOPPED
    COMPROMISED = codes.COMPROMISED
    QUARANTINED = codes.QUARANTINED

    @property
    def label(self) -> str:
        return self.name.lower()


class CampaignPhase(IntEnum):
    RECON = codes.RECON
    EXPLOIT = codes.EXPLOIT
    LATERAL = codes.LATERAL
    DORMANT = codes.DORMANT

    @property
    def label(self) -> str:
        return self.name.lower()


class EventKind(IntEnum):
    IDS_ALERT = codes.IDS_ALERT
    ANTI_MALWARE_ALERT = codes.ANTI_MALWARE_ALERT
    UNAUTHORIZED_ACCESS = codes.UNAUTHORIZED_ACCESS
    HONEY_TOUCH = codes.HONEY_TOUCH
    DUMMY_FILE_ACCESS = codes.DUMMY_FILE_ACCESS
    DUMMY_PROCESS_ALERT = codes.DUMMY_PROCESS_ALERT
    FILE_INTEGRITY_VIOLATION = codes.FILE_INTEGRITY_VIOLATION
    LOAD_SAMPLE = codes.LOAD_SAMPLE
    LOG_LINE = codes.LOG_LINE
    OPERATOR_REPLY = codes.OPERATOR_REPLY

    @property
    def label(self) -> str:
        return _EVENT_LABELS[self]


_EVENT_LABELS = {kind: kind.name.lower() for kind in EventKind}
# EventKind by kernel code (raises at import if the codes have a gap).
_EVENT_KINDS = tuple(EventKind(code) for code in range(len(EventKind)))


class WorldEvent(NamedTuple):
    """One observable occurrence. truth_malicious is ground truth and
    must never reach agent percepts; it flows only to the harness."""

    tick: int
    kind: EventKind
    node: str
    severity: int
    load: float
    truth_malicious: bool

    def to_dict(self) -> dict:
        return {
            "tick": self.tick,
            "kind": _EVENT_LABELS[self.kind],
            "node": self.node,
            "severity": self.severity,
            "load": self.load,
            "truth_malicious": self.truth_malicious,
        }


@dataclass(frozen=True)
class Node:
    """Read-only snapshot of one virtual machine."""

    id: str
    kind: NodeKind
    status: NodeStatus
    address: int
    cost: int
    integrity_ok: bool
    decoy_files: int


@dataclass
class ResourcePool:
    capacity: int
    used: int

    @property
    def available(self) -> int:
        return self.capacity - self.used


@dataclass(frozen=True)
class ExecutedAction:
    """An action instance bound to a concrete target, ready to apply."""

    action_id: str
    effect: ActionEffect
    target: str | None = None


@dataclass(frozen=True)
class ActionOutcome:
    delta_resources: int
    node: str | None = None


_KIND_TO_GROUP = {
    NodeKind.DATABASE: ("database", "db"),
    NodeKind.APPLICATION: ("application", "app"),
    NodeKind.WEB: ("web", "web"),
    NodeKind.HONEYPOT: ("honeypot", "hp"),
}


@dataclass
class WorldState:
    config: ScenarioConfig
    backend_name: str
    core: CoreWorld
    node_ids: list = field(default_factory=list)
    kind_costs: tuple = ()  # a node's cost, by its kind code
    pool: ResourcePool = None
    campaign_ids: list = field(default_factory=list)
    retired: set = field(default_factory=set)  # ids of stopped honeypots
    _next_hp: int = 0

    def node(self, node_id: str) -> Node:
        """Snapshot of a resident node; a retired honeypot has none."""
        if node_id not in self.node_ids:
            raise NoSuchNode(f"no resident node with id {node_id!r}")
        return self._snapshot(self.node_ids.index(node_id))

    def _snapshot(self, i: int) -> Node:
        core = self.core
        kind = core.kinds[i]
        return Node(
            id=self.node_ids[i],
            kind=NodeKind(kind),
            status=NodeStatus(core.statuses[i]),
            address=core.addresses[i],
            cost=self.kind_costs[kind],
            integrity_ok=bool(core.integrity[i]),
            decoy_files=core.decoys[i],
        )

    def nodes(self):
        """Snapshots of the resident nodes in index order; retired
        honeypots are not listed."""
        return [self._snapshot(i) for i in range(len(self.node_ids))]

    def _retire(self, i: int) -> None:
        self.retired.add(self.node_ids[i])
        self.core.remove_node(i)
        del self.node_ids[i]

    def campaign_phase(self, campaign_id: str) -> CampaignPhase:
        ci = self.campaign_ids.index(campaign_id)
        return CampaignPhase(self.core.c_phase[ci])

    def campaign_known_tokens(self, campaign_id: str) -> frozenset:
        ci = self.campaign_ids.index(campaign_id)
        return frozenset(self.core.c_known[ci])

    def honeypots_active(self) -> int:
        statuses = self.core.statuses
        return sum(1 for i, kind in enumerate(self.core.kinds)
                   if kind == codes.HONEYPOT and statuses[i] == codes.RUNNING)

    def check_invariants(self) -> None:
        """Raise AssertionError when a structural invariant is broken."""
        core = self.core
        nodes = list(zip(core.kinds, core.statuses, core.addresses))
        expected = sum(self.kind_costs[kind] for kind, status, _ in nodes
                       if status != codes.STOPPED)
        assert self.pool.used == expected, (
            f"pool.used={self.pool.used} but non-stopped costs sum to {expected}")
        assert 0 <= self.pool.used <= self.pool.capacity
        running = [address for _, status, address in nodes if status == codes.RUNNING]
        assert len(running) == len(set(running)), "duplicate running addresses"
        assert len(self.node_ids) == len(set(self.node_ids)) == len(nodes)
        assert not any(kind == codes.HONEYPOT and status == codes.STOPPED
                       for kind, status, _ in nodes), "stopped honeypot left resident"
        assert self.retired.isdisjoint(self.node_ids), "retired node resident"


def _world_params(w) -> tuple:
    return (w.p_detect, w.p_decoy_touch, w.p_dummy_process,
            w.p_integrity_alert, w.p_antimalware_alert, w.p_false_ids,
            w.p_false_antimalware, w.p_false_unauthorized, w.p_logline,
            w.load_noise, w.hits_to_compromise)


def init_world(config: ScenarioConfig, seed: int) -> WorldState:
    """Instantiate the platform; identical (config, seed) pairs yield
    structurally identical states."""
    w = config.world

    # Kind codes run 0..3 in declaration order, so a kind's code indexes
    # its cost in kind_costs.
    kinds, node_ids, decoys, kind_costs = [], [], [], []
    for kind in NodeKind:
        group_name, prefix = _KIND_TO_GROUP[kind]
        group = getattr(w, group_name)
        kind_costs.append(group.cost)
        for k in range(group.count):
            node_ids.append(f"{prefix}-{k}")
            kinds.append(int(kind))
            decoys.append(w.honeypot_decoys if kind is NodeKind.HONEYPOT else 0)

    used = sum(kind_costs[kind] for kind in kinds)
    if used > w.capacity:
        raise ConfigInvalid(
            f"initial running nodes need {used} units but capacity is {w.capacity}")

    addresses = list(range(len(node_ids)))

    known_sets, intensities, activations, campaign_ids, campaign_seeds = [], [], [], [], []
    for ci, camp in enumerate(w.campaigns):
        tokens = set()
        for node_id in camp.known_nodes:
            if node_id not in node_ids:
                raise ConfigInvalid(
                    f"campaign {camp.id!r} references unknown node {node_id!r}")
            tokens.add(addresses[node_ids.index(node_id)])
        known_sets.append(tokens)
        intensities.append(camp.intensity)
        activations.append(camp.activation_tick)
        campaign_ids.append(camp.id)
        campaign_seeds.append(derive_seed(seed, STREAM_CAMPAIGN_BASE + ci))

    core = CoreWorld(
        kinds, [codes.RUNNING] * len(kinds), addresses, decoys,
        [1] * len(kinds), len(kinds), intensities, activations, known_sets,
        campaign_seeds, derive_seed(seed, STREAM_BENIGN),
        derive_seed(seed, STREAM_DETECT), _world_params(w))

    return WorldState(
        config=config, backend_name=_kernels.BACKEND, core=core,
        node_ids=node_ids, kind_costs=tuple(kind_costs),
        pool=ResourcePool(capacity=w.capacity, used=used),
        campaign_ids=campaign_ids, _next_hp=w.honeypot.count)


def step_world(world: WorldState) -> list:
    """Advance one tick: benign traffic, attacker moves, detection rolls."""
    tick = world.core.clock
    raw = world.core.step(world.pool.used, world.pool.capacity)
    ids = world.node_ids
    kinds = _EVENT_KINDS
    return [WorldEvent(tick, kinds[kind], ids[i], severity, load, bool(truth))
            for kind, i, severity, load, truth in raw]


def _require_target(world: WorldState, action: ExecutedAction) -> int:
    if action.target is None:
        raise NoSuchNode(f"{action.action_id} requires a target node")
    try:
        return world.node_ids.index(action.target)
    except ValueError:
        # Every targeted effect is illegal on a stopped honeypot.
        if action.target in world.retired:
            raise IllegalTransition(f"{action.target} is a stopped honeypot") from None
        raise NoSuchNode(f"no node with id {action.target!r}") from None


def apply_action(world: WorldState, action: ExecutedAction) -> ActionOutcome:
    """Mutate the world per the catalog effect.

    Raises InsufficientResources, NoSuchNode or IllegalTransition; the
    caller is responsible for having run guardrail review already.
    Legality never depends on Running vs Compromised, which the agent
    cannot distinguish.
    """
    core = world.core
    pool = world.pool
    effect = action.effect
    w = world.config.world

    if effect is ActionEffect.NOOP or effect is ActionEffect.CRY_FOR_HELP \
            or effect is ActionEffect.SHARE_BLOCKLIST \
            or effect is ActionEffect.RESTRICT_COMMS_OUTBOUND \
            or effect is ActionEffect.TERMINATE_SELF:
        return ActionOutcome(delta_resources=0)

    if effect is ActionEffect.START_HONEYPOT:
        cost = w.honeypot.cost
        if cost > pool.available:
            raise InsufficientResources(
                f"honeypot needs {cost} units, only {pool.available} available")
        node_id = f"hp-{world._next_hp}"
        world._next_hp += 1
        core.add_node(codes.HONEYPOT, codes.RUNNING, w.honeypot_decoys)
        world.node_ids.append(node_id)
        pool.used += cost
        return ActionOutcome(delta_resources=-cost, node=node_id)

    if effect is ActionEffect.RESTRICT_COMMS_INBOUND:
        core.inbound_restricted = True
        return ActionOutcome(delta_resources=0)

    i = _require_target(world, action)
    status = core.statuses[i]
    kind = core.kinds[i]

    if effect is ActionEffect.STOP_HONEYPOT:
        # A stopped honeypot is retired, so a resident one is never stopped.
        if kind != codes.HONEYPOT:
            raise IllegalTransition(f"{action.target} is not a honeypot")
        cost = world.kind_costs[kind]
        pool.used -= cost
        world._retire(i)
        return ActionOutcome(delta_resources=cost, node=action.target)

    if effect is ActionEffect.START_REAL_VM:
        if kind == codes.HONEYPOT:
            raise IllegalTransition(f"{action.target} is a honeypot")
        if status != codes.STOPPED:
            raise IllegalTransition(f"{action.target} is not stopped")
        cost = world.kind_costs[kind]
        if cost > pool.available:
            raise InsufficientResources(
                f"restart needs {cost} units, only {pool.available} available")
        core.set_status(i, codes.RUNNING)
        pool.used += cost
        return ActionOutcome(delta_resources=-cost, node=action.target)

    if effect is ActionEffect.STOP_REAL_VM:
        if kind == codes.HONEYPOT:
            raise IllegalTransition(f"{action.target} is a honeypot")
        if status == codes.STOPPED:
            raise IllegalTransition(f"{action.target} is already stopped")
        core.set_status(i, codes.STOPPED)
        core.progress[i] = 0
        cost = world.kind_costs[kind]
        pool.used -= cost
        return ActionOutcome(delta_resources=cost, node=action.target)

    if effect is ActionEffect.DEPLOY_DUMMY_FILES:
        if status == codes.STOPPED or status == codes.QUARANTINED:
            raise IllegalTransition(f"{action.target} is not reachable")
        core.decoys[i] += w.dummy_files_per_deploy
        return ActionOutcome(delta_resources=0, node=action.target)

    if effect is ActionEffect.QUARANTINE_FILE:
        if status == codes.STOPPED:
            raise IllegalTransition(f"{action.target} is stopped")
        core.integrity[i] = 1
        return ActionOutcome(delta_resources=0, node=action.target)

    if effect is ActionEffect.QUARANTINE_NODE:
        if status == codes.STOPPED or status == codes.QUARANTINED:
            raise IllegalTransition(f"{action.target} cannot be quarantined")
        core.set_status(i, codes.QUARANTINED)
        return ActionOutcome(delta_resources=0, node=action.target)

    if effect is ActionEffect.RESTORE_KNOWN_GOOD:
        if status == codes.STOPPED:
            raise IllegalTransition(f"cannot restore stopped node {action.target}")
        core.set_status(i, codes.RUNNING)
        core.integrity[i] = 1
        core.progress[i] = 0
        return ActionOutcome(delta_resources=0, node=action.target)

    if effect is ActionEffect.ROTATE_ADDRESS:
        if status == codes.STOPPED:
            raise IllegalTransition(f"cannot rotate stopped node {action.target}")
        core.rotate_address(i)
        return ActionOutcome(delta_resources=0, node=action.target)

    raise IllegalTransition(f"unhandled effect {effect!r}")
