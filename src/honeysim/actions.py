"""The agent's action catalog.

Each entry carries the fields the rest of the system keys off: the
physical effect, an impact score in guardrail currency, an emission
cost, and the autonomy level required to run it. An action's resource
delta is not a catalog field: the world reports it when the action is
applied, from the cost of the node kind it starts or stops.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from .constraints import Labelled
from .errors import ConfigInvalid


class AutonomyLevel(Labelled):
    """Ordered from least to most autonomous; a gate admits its level and below."""

    REFLEX = 0
    PREVISIONED = 1
    COLLABORATIVE = 2
    DELEGATED = 3


class ActionEffect(Enum):
    NOOP = "noop"
    START_HONEYPOT = "start_honeypot"
    STOP_HONEYPOT = "stop_honeypot"
    START_REAL_VM = "start_real_vm"
    STOP_REAL_VM = "stop_real_vm"
    DEPLOY_DUMMY_FILES = "deploy_dummy_files"
    QUARANTINE_FILE = "quarantine_file"
    QUARANTINE_NODE = "quarantine_node"
    RESTORE_KNOWN_GOOD = "restore_known_good"
    ROTATE_ADDRESS = "rotate_address"
    RESTRICT_COMMS_INBOUND = "restrict_comms_inbound"
    RESTRICT_COMMS_OUTBOUND = "restrict_comms_outbound"
    CRY_FOR_HELP = "cry_for_help"
    SHARE_BLOCKLIST = "share_blocklist"
    TERMINATE_SELF = "terminate_self"


@dataclass(frozen=True)
class ActionSpec:
    id: str
    effect: ActionEffect
    impact: float
    emission_cost: int
    autonomy_level: AutonomyLevel
    # selectable=False keeps an action out of the learned policies'
    # choice set without removing it from the catalog (the fail-safe
    # and guardrails still reference it).
    selectable: bool = True
    enabled: bool = True


def _default_entries():
    A = AutonomyLevel
    E = ActionEffect
    return [
        ActionSpec("cry_for_help", E.CRY_FOR_HELP, 0.0, 1, A.COLLABORATIVE),
        ActionSpec("deploy_dummy_files", E.DEPLOY_DUMMY_FILES, 1.0, 0, A.REFLEX),
        ActionSpec("noop", E.NOOP, 0.0, 0, A.REFLEX),
        ActionSpec("quarantine_file", E.QUARANTINE_FILE, 1.0, 0, A.REFLEX),
        ActionSpec("quarantine_node", E.QUARANTINE_NODE, 4.0, 0, A.PREVISIONED),
        ActionSpec("restore_known_good", E.RESTORE_KNOWN_GOOD, 2.0, 0, A.PREVISIONED),
        ActionSpec("restrict_comms_inbound", E.RESTRICT_COMMS_INBOUND, 3.0, 0, A.PREVISIONED),
        ActionSpec("restrict_comms_outbound", E.RESTRICT_COMMS_OUTBOUND, 3.0, 0, A.PREVISIONED),
        ActionSpec("rotate_address", E.ROTATE_ADDRESS, 1.0, 0, A.REFLEX),
        ActionSpec("share_blocklist", E.SHARE_BLOCKLIST, 0.0, 1, A.COLLABORATIVE),
        ActionSpec("start_honeypot", E.START_HONEYPOT, 1.0, 0, A.PREVISIONED),
        ActionSpec("start_real_vm", E.START_REAL_VM, 2.0, 0, A.COLLABORATIVE, enabled=False),
        ActionSpec("stop_honeypot", E.STOP_HONEYPOT, 1.0, 0, A.PREVISIONED),
        ActionSpec("stop_real_vm", E.STOP_REAL_VM, 6.0, 0, A.COLLABORATIVE, enabled=False),
        ActionSpec("terminate_self", E.TERMINATE_SELF, 0.0, 0, A.REFLEX, selectable=False),
    ]


class ActionCatalog:
    """Immutable id -> ActionSpec map with deterministic ordering."""

    def __init__(self, entries):
        self._by_id = {spec.id: spec for spec in entries}
        if len(self._by_id) != len(entries):
            raise ConfigInvalid("duplicate action ids in catalog")
        self.ids = tuple(sorted(self._by_id))
        self.selectable_ids = tuple(
            i for i in self.ids if self._by_id[i].enabled and self._by_id[i].selectable)
        _validate_entries(self._by_id)
        if not self.selectable_ids:
            raise ConfigInvalid("agent.actions must leave at least one selectable action enabled")

    def get(self, action_id: str) -> ActionSpec:
        return self._by_id[action_id]


def _validate_entries(by_id):
    term = by_id.get("terminate_self")
    if term is not None:
        if term.impact != 0 or term.autonomy_level is not AutonomyLevel.REFLEX:
            raise ConfigInvalid("terminate_self must have zero impact and reflex autonomy")
    for msg_action in ("cry_for_help", "share_blocklist"):
        spec = by_id.get(msg_action)
        if spec is not None and spec.emission_cost <= 0:
            raise ConfigInvalid(f"{msg_action} must have a positive emission cost")


def build_catalog(overrides: dict | None = None) -> ActionCatalog:
    """Build the catalog, applying per-action config overrides."""
    entries = []
    overrides = dict(overrides or {})
    for spec in _default_entries():
        ov = overrides.pop(spec.id, None)
        if ov is not None:
            changes = {}
            if ov.impact is not None:
                changes["impact"] = float(ov.impact)
            if ov.emission_cost is not None:
                changes["emission_cost"] = int(ov.emission_cost)
            if ov.autonomy is not None:
                changes["autonomy_level"] = AutonomyLevel.from_name(ov.autonomy)
            if ov.enabled is not None:
                changes["enabled"] = bool(ov.enabled)
            spec = replace(spec, **changes)
        entries.append(spec)
    if overrides:
        raise ConfigInvalid(f"action overrides for unknown ids {sorted(overrides)}")
    return ActionCatalog(entries)
