import itertools

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
