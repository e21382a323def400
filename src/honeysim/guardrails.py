"""Hard limits on agent behaviour: impact budget, autonomy gating by
emissions level, and tamper detection over the sealed ruleset.

The ruleset (budget, gates, stage thresholds) is hashed at load time,
and the sealed key and value objects themselves are kept beside the
digest, with the size of each sealed mapping. Every tick, before the
agent may act, the harness checks the live ruleset against them
(verify_sealed): when every mapping has its sealed size and every live
key and value is its sealed object, the ruleset is untouched, because
an immutable scalar that is the same object has the same type, sign
and bits, so it encodes to the same bytes. Any other state re-encodes
the ruleset and recomputes the digest, and the digest alone decides
TAMPERED; a mismatch must terminate the agent within the same tick. A
ruleset holding a key or value of any type but exactly int, float,
bool, str, EmconLevel or AutonomyLevel (a list can change in place and
stay the same object) keeps no objects, so the digest decides every
tick. The self-termination action itself is never vetoed, so the kill
switch stays reachable under any gate configuration.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from enum import Enum
from operator import is_

from .actions import ActionSpec, ActionEffect, AutonomyLevel
from .constraints import EmconLevel, EnvConstraints
from .trace import dumps, sha256_hex


@dataclass
class ImpactBudget:
    max_impact_per_action: float
    mission_need: float


@dataclass
class Ruleset:
    """The mutable rule data sealed by the digest. Tamper tests mutate
    an instance of this after sealing."""

    budget: ImpactBudget
    autonomy_gates: dict  # EmconLevel -> AutonomyLevel
    stage_thresholds: dict = field(default_factory=dict)  # stage name -> theta

    def sealed_fields(self) -> dict:
        """Every sealed field by its name in canonical_bytes, each a
        mapping of names to numbers. canonical_bytes walks this, and
        _sealed_objects walks the same fields."""
        budget = self.budget
        return {
            "budget": {
                "max_impact_per_action": budget.max_impact_per_action,
                "mission_need": budget.mission_need,
            },
            "autonomy_gates": self.autonomy_gates,
            "stage_thresholds": self.stage_thresholds,
        }

    def canonical_bytes(self) -> bytes:
        """The canonical JSON (`trace.dumps`) of every sealed field,
        rebuilt from the live fields on each call so that any edit
        changes it. Gates encode as their EMCON and autonomy labels."""
        payload = self.sealed_fields()
        payload["autonomy_gates"] = {
            _EMCON_LABELS[level]: _AUTONOMY_LABELS[gate]
            for level, gate in payload["autonomy_gates"].items()}
        return dumps(payload).encode("utf-8")


# Both enums are IntEnums whose members compare equal across the two
# types, so each has its own table.
_EMCON_LABELS = EmconLevel.labels()
_AUTONOMY_LABELS = AutonomyLevel.labels()
# Immutable scalars whose object fixes their bytes; bool and the enums
# are listed apart from int because identity is checked on exact types.
_IDENTITY_TYPES = frozenset({int, float, bool, str, EmconLevel, AutonomyLevel})


def _sealed_objects(ruleset: Ruleset):
    """(the sizes of the gate and threshold mappings, every sealed value
    and every key not fixed by the code, as the objects themselves), or
    None when either mapping is not a dict. It walks the fields of
    Ruleset.sealed_fields, whose budget names are constants."""
    budget = ruleset.budget
    gates = ruleset.autonomy_gates
    thresholds = ruleset.stage_thresholds
    if type(gates) is not dict or type(thresholds) is not dict:
        return None
    return ((len(gates), len(thresholds)),
            [budget.max_impact_per_action, budget.mission_need,
             *gates, *gates.values(), *thresholds, *thresholds.values()])


@dataclass
class GuardrailSet:
    ruleset: Ruleset
    expected_digest: str
    # _sealed_objects(ruleset) at seal time, or None when an object's
    # identity does not fix its bytes
    sealed: tuple | None

    @classmethod
    def seal(cls, ruleset: Ruleset) -> "GuardrailSet":
        sealed = _sealed_objects(ruleset)
        if sealed is not None and not _IDENTITY_TYPES.issuperset(map(type, sealed[1])):
            sealed = None
        return cls(ruleset=ruleset,
                   expected_digest=sha256_hex(ruleset.canonical_bytes()),
                   sealed=sealed)


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
    if action.impact > g.ruleset.budget.max_impact_per_action:
        return Verdict(False, IMPACT_EXCEEDED)
    if action.autonomy_level > g.ruleset.autonomy_gates[c.emcon_level]:
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
    if sha256_hex(current_rules) != g.expected_digest:
        return RulesetCheck.TAMPERED
    return RulesetCheck.OK


def verify_sealed(g: GuardrailSet) -> RulesetCheck:
    """The per-tick check of g's own ruleset: OK while each of its
    mappings is a dict of the sealed size whose keys and values are the
    sealed objects, which implies its bytes are the sealed ones;
    otherwise verify_ruleset over its re-encoded bytes decides."""
    sealed = g.sealed
    if sealed is not None:
        live = _sealed_objects(g.ruleset)
        if live is not None and live[0] == sealed[0] \
                and all(map(is_, live[1], sealed[1])):
            return RulesetCheck.OK
    return verify_ruleset(g, g.ruleset.canonical_bytes())


def build_ruleset(guard_config, thresholds_config) -> Ruleset:
    """Assemble the live ruleset from scenario configuration. The
    config's gate and threshold field names are the EMCON and stage
    labels; `config.validate` has checked the budget and the gates."""
    gates = {level: AutonomyLevel.from_name(getattr(guard_config.autonomy_gates,
                                                    level.label))
             for level in EmconLevel}
    return Ruleset(
        budget=ImpactBudget(guard_config.max_impact_per_action,
                            guard_config.mission_need),
        autonomy_gates=gates,
        stage_thresholds=asdict(thresholds_config),
    )
