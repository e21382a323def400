"""Hard limits on agent behaviour: impact budget, autonomy gating by
emissions level, and tamper detection over the sealed ruleset.

The ruleset (budget, gates, stage thresholds) is hashed at load time.
The harness re-verifies the digest every tick before the agent may
act; a mismatch must terminate the agent within the same tick. The
self-termination action itself is never vetoed, so the kill switch
stays reachable under any gate configuration.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from enum import Enum

from .actions import ActionSpec, ActionEffect, AutonomyLevel
from .constraints import EmconLevel, EnvConstraints
from .errors import ConfigInvalid


@dataclass
class ImpactBudget:
    max_impact_per_action: float
    mission_need: float

    def __post_init__(self):
        if self.max_impact_per_action > self.mission_need:
            raise ConfigInvalid("impact budget must not exceed mission need")


@dataclass
class Ruleset:
    """The mutable rule data sealed by the digest. Tamper tests mutate
    an instance of this after sealing."""

    budget: ImpactBudget
    autonomy_gates: dict  # EmconLevel -> AutonomyLevel
    stage_thresholds: dict = field(default_factory=dict)  # stage name -> theta

    def canonical_bytes(self) -> bytes:
        """Sorted-key compact JSON of every sealed field, rebuilt from
        the live fields on each call so that any edit changes it."""
        payload = {
            "budget": {
                "max_impact_per_action": self.budget.max_impact_per_action,
                "mission_need": self.budget.mission_need,
            },
            "autonomy_gates": {_EMCON_LABELS[level]: _AUTONOMY_LABELS[gate]
                               for level, gate in self.autonomy_gates.items()},
            "stage_thresholds": self.stage_thresholds,
        }
        return _ENCODER.encode(payload).encode("utf-8")


# Both enums are IntEnums whose members compare equal across the two
# types, so each has its own table.
_EMCON_LABELS = {level: level.label for level in EmconLevel}
_AUTONOMY_LABELS = {gate: gate.label for gate in AutonomyLevel}
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def ruleset_digest(rules_bytes: bytes) -> str:
    return hashlib.sha256(rules_bytes).hexdigest()


@dataclass
class GuardrailSet:
    ruleset: Ruleset
    expected_digest: str

    @property
    def budget(self) -> ImpactBudget:
        return self.ruleset.budget

    @property
    def autonomy_gates(self) -> dict:
        return self.ruleset.autonomy_gates

    @classmethod
    def seal(cls, ruleset: Ruleset) -> "GuardrailSet":
        _validate_gates(ruleset.autonomy_gates)
        return cls(ruleset=ruleset,
                   expected_digest=ruleset_digest(ruleset.canonical_bytes()))


def _validate_gates(gates: dict) -> None:
    for level in EmconLevel:
        if level not in gates:
            raise ConfigInvalid(f"autonomy gate missing for EMCON {level.label}")
    if not (gates[EmconLevel.OPEN] >= gates[EmconLevel.RESTRICTED]
            >= gates[EmconLevel.SILENT]):
        raise ConfigInvalid("autonomy gates must be monotone in EMCON strictness")


@dataclass(frozen=True)
class Verdict:
    allowed: bool
    reason: str | None = None


ALLOW = Verdict(True)

IMPACT_EXCEEDED = "impact_exceeded"
AUTONOMY_GATE = "autonomy_gate"
EMISSION_BLOCKED = "emission_blocked"


def check(action: ActionSpec, c: EnvConstraints, g: GuardrailSet) -> Verdict:
    """Review one action against the guardrails.

    Checks run in a fixed order (impact, autonomy gate, emission) and
    the first failure is reported. terminate_self is exempt by design.
    """
    if action.effect is ActionEffect.TERMINATE_SELF:
        return ALLOW
    if action.impact > g.budget.max_impact_per_action:
        return Verdict(False, IMPACT_EXCEEDED)
    if action.autonomy_level > g.autonomy_gates[c.emcon_level]:
        return Verdict(False, AUTONOMY_GATE)
    if action.emission_cost > 0 and c.emcon_level is EmconLevel.SILENT:
        return Verdict(False, EMISSION_BLOCKED)
    return ALLOW


class RulesetCheck(Enum):
    OK = "ok"
    TAMPERED = "tampered"


def verify_ruleset(g: GuardrailSet, current_rules: bytes) -> RulesetCheck:
    """Recompute the digest over the live rules. On TAMPERED the caller
    must transition the agent to Terminated within the same tick."""
    if ruleset_digest(current_rules) != g.expected_digest:
        return RulesetCheck.TAMPERED
    return RulesetCheck.OK


def build_ruleset(guard_config, thresholds_config) -> Ruleset:
    """Assemble the live ruleset from scenario configuration. The
    config's gate and threshold field names are the EMCON and stage
    labels."""
    gates = {level: AutonomyLevel.from_name(getattr(guard_config.autonomy_gates,
                                                    level.label))
             for level in EmconLevel}
    return Ruleset(
        budget=ImpactBudget(guard_config.max_impact_per_action,
                            guard_config.mission_need),
        autonomy_gates=gates,
        stage_thresholds=asdict(thresholds_config),
    )
