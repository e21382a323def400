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
from .config import ScenarioConfig, node_id
from .constraints import Labelled
from .errors import IllegalTransition, InsufficientResources, NoSuchNode
from .actions import ActionEffect

_DERIVE_SALT = 0xD1B54A32D192ED03
_MASK = (1 << 64) - 1

# Fixed derivation order for per-subsystem streams.
STREAM_BENIGN = 0
STREAM_DETECT = 1
STREAM_AGENT = 2
STREAM_CAMPAIGN_BASE = 16


def derive_seed(master: int, index: int) -> int:
    """Derive the state of subsystem stream `index` from the master seed."""
    return _kernels.mix64((master + (index + 1) * _DERIVE_SALT) & _MASK)


class NodeKind(Labelled):
    DATABASE = codes.DATABASE
    APPLICATION = codes.APPLICATION
    WEB = codes.WEB
    HONEYPOT = codes.HONEYPOT


class NodeStatus(IntEnum):
    RUNNING = codes.RUNNING
    STOPPED = codes.STOPPED
    COMPROMISED = codes.COMPROMISED
    QUARANTINED = codes.QUARANTINED


class EventKind(Labelled):
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


EVENT_LABELS = EventKind.labels()
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


class ExecutedAction(NamedTuple):
    """An action instance bound to a concrete target, ready to apply."""

    action_id: str
    effect: ActionEffect
    target: str | None = None


class ActionOutcome(NamedTuple):
    delta_resources: int
    node: str | None = None


@dataclass
class WorldState:
    config: ScenarioConfig
    backend_name: str
    core: CoreWorld
    node_ids: list = field(default_factory=list)
    kind_costs: tuple = ()  # a node's cost, by its kind code
    pool: ResourcePool = None
    retired: set = field(default_factory=set)  # ids of stopped honeypots
    _next_hp: int = 0

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

    def honeypots_active(self) -> int:
        """The number of Running honeypots, as the kernel keeps it."""
        return self.core.honeypots_running

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
        serving = [i for i, (kind, status, _) in enumerate(nodes)
                   if kind != codes.HONEYPOT
                   and status in (codes.RUNNING, codes.COMPROMISED)]
        assert core.serving == serving, f"kept serving {core.serving} != {serving}"
        honeypots = sum(1 for kind, status, _ in nodes
                        if kind == codes.HONEYPOT and status == codes.RUNNING)
        assert core.honeypots_running == honeypots, (
            f"kept honeypot count {core.honeypots_running} != {honeypots}")
        assert all(core.statuses[i] == codes.COMPROMISED
                   for i, owner in enumerate(core.owners) if owner != -1), \
            "owned node not compromised"


def _world_params(w) -> tuple:
    return (w.p_detect, w.p_decoy_touch, w.p_dummy_process,
            w.p_integrity_alert, w.p_antimalware_alert, w.p_false_ids,
            w.p_false_antimalware, w.p_false_unauthorized, w.p_logline,
            w.load_noise, w.hits_to_compromise)


def init_world(config: ScenarioConfig, seed: int) -> WorldState:
    """Instantiate the platform from a validated config; identical
    (config, seed) pairs yield structurally identical states."""
    w = config.world

    # Kind codes run 0..3 in declaration order, so a kind's code indexes
    # its cost in kind_costs; its label names its node group.
    kinds, node_ids, decoys, kind_costs = [], [], [], []
    for kind in NodeKind:
        group = getattr(w, kind.label)
        kind_costs.append(group.cost)
        for k in range(group.count):
            node_ids.append(node_id(kind.label, k))
            kinds.append(int(kind))
            decoys.append(w.honeypot_decoys if kind is NodeKind.HONEYPOT else 0)

    used = sum(kind_costs[kind] for kind in kinds)
    addresses = list(range(len(node_ids)))

    known_sets, intensities, activations, campaign_seeds = [], [], [], []
    for ci, camp in enumerate(w.campaigns):
        known_sets.append({addresses[node_ids.index(known)] for known in camp.known_nodes})
        intensities.append(camp.intensity)
        activations.append(camp.activation_tick)
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
        _next_hp=w.honeypot.count)


def step_world(world: WorldState) -> list:
    """Advance one tick: benign traffic, attacker moves, detection rolls."""
    tick = world.core.clock
    raw = world.core.step(world.pool.used, world.pool.capacity)
    ids = world.node_ids
    kinds = _EVENT_KINDS
    return [WorldEvent(tick, kinds[kind], ids[i], severity, load, bool(truth))
            for kind, i, severity, load, truth in raw]


# The effects that act on no resident node; every other effect needs a
# target. A tuple, since a scan of plain-Enum members is cheaper than a
# hash of one.
TARGETLESS = (ActionEffect.NOOP, ActionEffect.CRY_FOR_HELP, ActionEffect.SHARE_BLOCKLIST,
              ActionEffect.RESTRICT_COMMS_OUTBOUND, ActionEffect.TERMINATE_SELF,
              ActionEffect.START_HONEYPOT, ActionEffect.RESTRICT_COMMS_INBOUND)


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

    if effect in TARGETLESS:
        if effect is ActionEffect.START_HONEYPOT:
            cost = w.honeypot.cost
            if cost > pool.available:
                raise InsufficientResources(
                    f"honeypot needs {cost} units, only {pool.available} available")
            new_id = node_id("honeypot", world._next_hp)
            world._next_hp += 1
            core.add_node(codes.HONEYPOT, codes.RUNNING, w.honeypot_decoys)
            world.node_ids.append(new_id)
            pool.used += cost
            return ActionOutcome(delta_resources=-cost, node=new_id)
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
