import itertools
import json

import pytest

from honeysim.actions import ActionEffect, ActionSpec, AutonomyLevel, build_catalog
from honeysim.config import ScenarioConfig
from honeysim.constraints import EmconLevel, EnvConstraints
from honeysim.errors import ConfigInvalid
from honeysim.guardrails import (AUTONOMY_GATE, EMISSION_BLOCKED,
                                 IMPACT_EXCEEDED, GuardrailSet, ImpactBudget,
                                 RulesetCheck, build_ruleset, check,
                                 ruleset_digest, verify_ruleset)


def make_guard(max_impact=5.0, need=8.0):
    cfg = ScenarioConfig()
    ruleset = build_ruleset(cfg.guardrails, cfg.cascade.thresholds)
    ruleset.budget.max_impact_per_action = max_impact
    ruleset.budget.mission_need = need
    return GuardrailSet.seal(ruleset)


def env(emcon=EmconLevel.OPEN):
    return EnvConstraints(emcon_level=emcon)


def spec(impact=0.0, emission=0, autonomy=AutonomyLevel.REFLEX,
         effect=ActionEffect.NOOP, action_id="probe"):
    return ActionSpec(action_id, effect, 0, impact, emission, autonomy)


def test_impact_over_budget_vetoed():
    v = check(spec(impact=9.0), env(), make_guard(max_impact=5.0))
    assert not v.allowed and v.reason == IMPACT_EXCEEDED


def test_emission_blocked_at_silent():
    catalog = build_catalog(10, 10)
    v = check(catalog.get("cry_for_help"), env(EmconLevel.SILENT), make_guard())
    assert not v.allowed
    # Collaborative-level messaging already trips the autonomy gate at
    # Silent; with a permissive gate the emission check itself fires.
    cfg = ScenarioConfig()
    ruleset = build_ruleset(cfg.guardrails, cfg.cascade.thresholds)
    ruleset.autonomy_gates[EmconLevel.SILENT] = AutonomyLevel.DELEGATED
    ruleset.autonomy_gates[EmconLevel.RESTRICTED] = AutonomyLevel.DELEGATED
    ruleset.autonomy_gates[EmconLevel.OPEN] = AutonomyLevel.DELEGATED
    g = GuardrailSet.seal(ruleset)
    v = check(catalog.get("cry_for_help"), env(EmconLevel.SILENT), g)
    assert not v.allowed and v.reason == EMISSION_BLOCKED


def test_autonomy_gate_applies_before_emission():
    v = check(spec(emission=1, autonomy=AutonomyLevel.COLLABORATIVE),
              env(EmconLevel.SILENT), make_guard())
    assert v.reason == AUTONOMY_GATE


def test_noop_always_allowed():
    for emcon in EmconLevel:
        assert check(spec(), env(emcon), make_guard()).allowed


def test_check_order_impact_first():
    v = check(spec(impact=9.0, emission=1, autonomy=AutonomyLevel.DELEGATED),
              env(EmconLevel.SILENT), make_guard())
    assert v.reason == IMPACT_EXCEEDED


def test_terminate_self_never_vetoed():
    catalog = build_catalog(10, 10)
    term = catalog.get("terminate_self")
    for emcon in EmconLevel:
        for max_impact in (0.0, 5.0):
            g = make_guard(max_impact=max_impact, need=max_impact)
            assert check(term, env(emcon), g).allowed


def test_gate_allowed_sets_downward_closed():
    # For every action: allowed EMCON levels form a prefix toward Open.
    catalog = build_catalog(10, 10)
    g = make_guard()
    for action in catalog:
        allowed = [check(action, env(e), g).allowed for e in EmconLevel]
        for stricter, looser in itertools.combinations(range(3), 2):
            if allowed[looser]:
                assert allowed[stricter]


def test_budget_invariant():
    with pytest.raises(ConfigInvalid):
        ImpactBudget(max_impact_per_action=9.0, mission_need=5.0)


def test_gate_monotonicity_enforced():
    cfg = ScenarioConfig()
    ruleset = build_ruleset(cfg.guardrails, cfg.cascade.thresholds)
    ruleset.autonomy_gates[EmconLevel.SILENT] = AutonomyLevel.DELEGATED
    with pytest.raises(ConfigInvalid):
        GuardrailSet.seal(ruleset)


def test_verify_unmodified_rules_ok():
    cfg = ScenarioConfig()
    ruleset = build_ruleset(cfg.guardrails, cfg.cascade.thresholds)
    g = GuardrailSet.seal(ruleset)
    assert verify_ruleset(g, ruleset.canonical_bytes()) is RulesetCheck.OK


def test_verify_detects_any_mutation():
    cfg = ScenarioConfig()
    ruleset = build_ruleset(cfg.guardrails, cfg.cascade.thresholds)
    g = GuardrailSet.seal(ruleset)
    ruleset.budget.max_impact_per_action += 1.0
    assert verify_ruleset(g, ruleset.canonical_bytes()) is RulesetCheck.TAMPERED


def test_verify_detects_byte_flip():
    cfg = ScenarioConfig()
    ruleset = build_ruleset(cfg.guardrails, cfg.cascade.thresholds)
    g = GuardrailSet.seal(ruleset)
    raw = bytearray(ruleset.canonical_bytes())
    raw[7] ^= 0x01
    assert verify_ruleset(g, bytes(raw)) is RulesetCheck.TAMPERED


def test_canonical_serialization_round_trip():
    # An equal ruleset rebuilt from the same config re-serializes to
    # the same bytes, so re-loading is not a false tamper signal.
    cfg = ScenarioConfig()
    a = build_ruleset(cfg.guardrails, cfg.cascade.thresholds)
    b = build_ruleset(cfg.guardrails, cfg.cascade.thresholds)
    assert a.canonical_bytes() == b.canonical_bytes()
    assert ruleset_digest(a.canonical_bytes()) == ruleset_digest(b.canonical_bytes())
    g = GuardrailSet.seal(a)
    assert verify_ruleset(g, b.canonical_bytes()) is RulesetCheck.OK


def test_digest_is_hex_sha256():
    digest = ruleset_digest(b"anything")
    assert len(digest) == 64
    assert digest == digest.lower()
    assert all(c in "0123456789abcdef" for c in digest)



def _set_gate(level, gate):
    def mutate(r):
        r.autonomy_gates[level] = gate
    return mutate


def _bump_threshold(name):
    def mutate(r):
        r.stage_thresholds[name] += 0.01
    return mutate


def _bump_budget(name):
    def mutate(r):
        setattr(r.budget, name, getattr(r.budget, name) + 0.5)
    return mutate


# One mutation per sealed field. Default gates: open delegated,
# restricted previsioned, silent reflex.
TAMPERS = {
    "gate_open": _set_gate(EmconLevel.OPEN, AutonomyLevel.COLLABORATIVE),
    "gate_restricted": _set_gate(EmconLevel.RESTRICTED, AutonomyLevel.REFLEX),
    "gate_silent": _set_gate(EmconLevel.SILENT, AutonomyLevel.PREVISIONED),
    "budget_max_impact": _bump_budget("max_impact_per_action"),
    "budget_mission_need": _bump_budget("mission_need"),
    "threshold_added": lambda r: r.stage_thresholds.update(extra=0.5),
    "threshold_removed": lambda r: r.stage_thresholds.pop("game_search"),
    **{f"threshold_{name}": _bump_threshold(name)
       for name in ("pattern_recognition", "online_learning", "human_escalation",
                    "game_search", "fail_safe")},
}


@pytest.mark.parametrize("case", sorted(TAMPERS))
def test_every_sealed_field_is_tamper_checked(case):
    cfg = ScenarioConfig()
    ruleset = build_ruleset(cfg.guardrails, cfg.cascade.thresholds)
    g = GuardrailSet.seal(ruleset)
    assert verify_ruleset(g, ruleset.canonical_bytes()) is RulesetCheck.OK
    TAMPERS[case](ruleset)
    assert verify_ruleset(g, ruleset.canonical_bytes()) is RulesetCheck.TAMPERED

def test_canonical_bytes_are_sorted_compact_json():
    cfg = ScenarioConfig()
    ruleset = build_ruleset(cfg.guardrails, cfg.cascade.thresholds)
    ruleset.stage_thresholds["fail_safe"] = -0.0
    ruleset.budget.mission_need = 1e-7
    payload = {
        "budget": {"max_impact_per_action": ruleset.budget.max_impact_per_action,
                   "mission_need": ruleset.budget.mission_need},
        "autonomy_gates": {level.name.lower(): gate.name.lower()
                           for level, gate in ruleset.autonomy_gates.items()},
        "stage_thresholds": dict(ruleset.stage_thresholds),
    }
    assert ruleset.canonical_bytes() == json.dumps(
        payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
