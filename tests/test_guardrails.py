import itertools
import json
import math
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_config
from honeysim import config as config_mod
from honeysim.actions import ActionEffect, ActionSpec, AutonomyLevel, build_catalog
from honeysim.config import ScenarioConfig
from honeysim.constraints import EmconLevel, EnvConstraints
from honeysim.guardrails import (AUTONOMY_GATE, EMISSION_BLOCKED,
                                 IMPACT_EXCEEDED, GuardrailSet, Ruleset,
                                 RulesetCheck, build_ruleset, check,
                                 verify_ruleset, verify_sealed)
from honeysim.harness import RandomPolicy, run_scenario
from honeysim.trace import sha256_hex


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
    return ActionSpec(action_id, effect, impact, emission, autonomy)


def test_impact_over_budget_vetoed():
    v = check(spec(impact=9.0), env(), make_guard(max_impact=5.0))
    assert not v.allowed and v.reason == IMPACT_EXCEEDED


def test_emission_blocked_at_silent():
    catalog = build_catalog()
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
    catalog = build_catalog()
    term = catalog.get("terminate_self")
    for emcon in EmconLevel:
        for max_impact in (0.0, 5.0):
            g = make_guard(max_impact=max_impact, need=max_impact)
            assert check(term, env(emcon), g).allowed


def test_gate_allowed_sets_downward_closed():
    # For every action: allowed EMCON levels form a prefix toward Open.
    catalog = build_catalog()
    g = make_guard()
    for action in map(catalog.get, catalog.ids):
        allowed = [check(action, env(e), g).allowed for e in EmconLevel]
        for stricter, looser in itertools.combinations(range(3), 2):
            if allowed[looser]:
                assert allowed[stricter]


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
    assert sha256_hex(a.canonical_bytes()) == sha256_hex(b.canonical_bytes())
    g = GuardrailSet.seal(a)
    assert verify_ruleset(g, b.canonical_bytes()) is RulesetCheck.OK


def test_digest_is_hex_sha256():
    digest = sha256_hex(b"anything")
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
    "threshold_removed": lambda r: r.stage_thresholds.pop("fail_safe"),
    **{f"threshold_{name}": _bump_threshold(name)
       for name in ("pattern_recognition", "online_learning", "fail_safe")},
}


@pytest.mark.parametrize("case", sorted(TAMPERS))
def test_every_sealed_field_is_tamper_checked(case):
    cfg = ScenarioConfig()
    ruleset = build_ruleset(cfg.guardrails, cfg.cascade.thresholds)
    g = GuardrailSet.seal(ruleset)
    assert verify_ruleset(g, ruleset.canonical_bytes()) is RulesetCheck.OK
    TAMPERS[case](ruleset)
    assert verify_ruleset(g, ruleset.canonical_bytes()) is RulesetCheck.TAMPERED


@pytest.mark.parametrize("case", sorted(TAMPERS))
def test_every_sealed_field_is_tamper_checked_per_tick(case):
    cfg = ScenarioConfig()
    ruleset = build_ruleset(cfg.guardrails, cfg.cascade.thresholds)
    g = GuardrailSet.seal(ruleset)
    assert verify_sealed(g) is RulesetCheck.OK
    TAMPERS[case](ruleset)
    assert verify_sealed(g) is RulesetCheck.TAMPERED


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


# -- the identity-gated per-tick check ------------------------------------

# Pairs that compare equal but encode differently, NaN, an int too large
# for a float, and plain values.
HUGE = 10 ** 400
SCALARS = st.sampled_from([0.0, -0.0, 0, 1, 1.0, True, False, 0.5, 2.0,
                           math.nan, -math.inf, HUGE, HUGE + 1, -HUGE]) \
    | st.floats() | st.integers(-3, 3)
GATES = st.sampled_from(list(AutonomyLevel)) | st.integers(0, 3) \
    | st.sampled_from([0.0, -0.0, 3.0, True, False])
# JSON writes a float key as its repr, so a key's sign shows in the bytes
KEYS = st.sampled_from(["extra", "zz", "a", 0.0, -0.0])


def outcome(check_fn):
    """A check's result, or the type of the error it raised."""
    try:
        return check_fn()
    except Exception as exc:  # both checks must fail the same way
        return type(exc)


def edit(data, ruleset, sealed):
    """Draw and apply one edit to a sealed field; `sealed` is a copy of
    the ruleset as sealed, for the edit that restores every value."""
    thresholds = ruleset.stage_thresholds
    kind = data.draw(st.sampled_from(
        ["budget", "gate", "threshold", "add_key", "remove_key", "rekey",
         "reorder", "restore"]))
    if kind == "budget":
        name = data.draw(st.sampled_from(["max_impact_per_action", "mission_need"]))
        setattr(ruleset.budget, name, data.draw(SCALARS))
    elif kind == "gate":
        ruleset.autonomy_gates[data.draw(st.sampled_from(list(EmconLevel)))] = \
            data.draw(GATES)
    elif kind == "threshold" and thresholds:
        thresholds[data.draw(st.sampled_from(list(thresholds)))] = data.draw(SCALARS)
    elif kind == "add_key":
        thresholds[data.draw(KEYS)] = data.draw(SCALARS)
    elif kind == "remove_key" and thresholds:
        del thresholds[data.draw(st.sampled_from(list(thresholds)))]
    elif kind == "rekey" and thresholds:
        value = thresholds.pop(data.draw(st.sampled_from(list(thresholds))))
        thresholds[data.draw(KEYS)] = value
    elif kind == "reorder":
        items = data.draw(st.permutations(list(thresholds.items())))
        thresholds.clear()
        thresholds.update(items)
    elif kind == "restore":
        # equal values, as fresh objects where the type allows one
        ruleset.budget.max_impact_per_action = \
            float(repr(sealed.budget.max_impact_per_action))
        ruleset.budget.mission_need = sealed.budget.mission_need
        ruleset.autonomy_gates.clear()
        ruleset.autonomy_gates.update(sealed.autonomy_gates)
        thresholds.clear()
        thresholds.update(sealed.stage_thresholds)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_snapshot_gated_check_agrees_with_the_digest(data):
    cfg = ScenarioConfig()
    ruleset = build_ruleset(cfg.guardrails, cfg.cascade.thresholds)
    # seal zeros, NaN and a huge int too, so that sign flips, NaN and
    # values with no float form reach the check
    for name in data.draw(st.lists(st.sampled_from(sorted(ruleset.stage_thresholds)),
                                   unique=True)):
        ruleset.stage_thresholds[name] = data.draw(
            st.sampled_from([0.0, -0.0, math.nan, HUGE]))
    if data.draw(st.booleans()):
        ruleset.budget.max_impact_per_action = 0.0
    if data.draw(st.booleans()):
        ruleset.budget.mission_need = HUGE
    if data.draw(st.integers(0, 4)) == 0:
        ruleset.stage_thresholds = {0.0: 0.5}
    g = GuardrailSet.seal(ruleset)
    sealed = build_ruleset(cfg.guardrails, cfg.cascade.thresholds)
    sealed.budget.max_impact_per_action = ruleset.budget.max_impact_per_action
    sealed.budget.mission_need = ruleset.budget.mission_need
    sealed.stage_thresholds = dict(ruleset.stage_thresholds)
    assert verify_sealed(g) is RulesetCheck.OK
    for _ in range(data.draw(st.integers(1, 4))):
        edit(data, ruleset, sealed)
        gated = outcome(lambda: verify_sealed(g))
        rehashed = outcome(lambda: verify_ruleset(g, ruleset.canonical_bytes()))
        assert gated == rehashed, ruleset


def _move_silent_gate_to_thresholds(r):
    r.stage_thresholds[EmconLevel.SILENT] = r.autonomy_gates.pop(EmconLevel.SILENT)


# (sealed thresholds, edit, tampered): -0.0 == 0.0, 1 == 1.0 and True == 1
# but their bytes differ; a plain int or bool gate encodes to the same
# label; a gate moved into the thresholds changes both mappings' sizes;
# an equal int too large for a float, put back as a new object, is not
# the sealed object, so the digest decides.
SNAPSHOT_CASES = {
    "negative_zero": ({"fail_safe": 0.0},
                      lambda r: r.stage_thresholds.update(fail_safe=-0.0), True),
    "int_for_float": ({}, lambda r: setattr(r.budget, "mission_need", 8), True),
    "bool_for_int": ({"fail_safe": 1}, lambda r: r.stage_thresholds.update(fail_safe=True),
                     True),
    "bool_gate": ({}, lambda r: r.autonomy_gates.update({EmconLevel.RESTRICTED: True}),
                  False),
    "plain_int_gate": ({}, lambda r: r.autonomy_gates.update(
        {EmconLevel.OPEN: int(AutonomyLevel.DELEGATED)}), False),
    "negative_zero_key": ({0.0: 0.5},
                          lambda r: r.stage_thresholds.update({-0.0: r.stage_thresholds.pop(0.0)}),
                          True),
    "gate_moved": ({}, _move_silent_gate_to_thresholds, True),
    "huge_int_kept": ({"fail_safe": HUGE},
                      lambda r: r.stage_thresholds.update(fail_safe=int(str(HUGE))), False),
    "huge_int_bumped": ({"fail_safe": HUGE},
                        lambda r: r.stage_thresholds.update(fail_safe=HUGE + 1), True),
}


@pytest.mark.parametrize("case", sorted(SNAPSHOT_CASES))
def test_snapshot_sees_what_equality_hides(case):
    thresholds, edited, tampered = SNAPSHOT_CASES[case]
    cfg = ScenarioConfig()
    ruleset = build_ruleset(cfg.guardrails, cfg.cascade.thresholds)
    ruleset.stage_thresholds = dict(thresholds)
    ruleset.budget.mission_need = 8.0
    g = GuardrailSet.seal(ruleset)
    edited(ruleset)
    want = RulesetCheck.TAMPERED if tampered else RulesetCheck.OK
    assert verify_sealed(g) is want
    assert verify_ruleset(g, ruleset.canonical_bytes()) is want


def test_list_edited_in_place_is_tampered():
    # A list stays the same object when it is edited in place, so its
    # identity vouches for nothing: the digest decides on every tick.
    cfg = ScenarioConfig()
    ruleset = build_ruleset(cfg.guardrails, cfg.cascade.thresholds)
    ruleset.stage_thresholds["fail_safe"] = [0.5]
    g = GuardrailSet.seal(ruleset)
    assert verify_sealed(g) is RulesetCheck.OK
    ruleset.stage_thresholds["fail_safe"][0] = 0.75
    assert verify_sealed(g) is RulesetCheck.TAMPERED
    assert verify_ruleset(g, ruleset.canonical_bytes()) is RulesetCheck.TAMPERED


def test_identity_check_holds_every_encoded_object():
    # The per-tick walk names the sealed fields itself, so it must hold
    # every key and value that canonical_bytes encodes, bar the budget's
    # names, which are constants of the code.
    cfg = ScenarioConfig()
    ruleset = build_ruleset(cfg.guardrails, cfg.cascade.thresholds)
    fields = ruleset.sealed_fields()
    budget_names = set(fields["budget"])
    encoded = [obj for mapping in fields.values() for item in mapping.items()
               for obj in item if obj not in budget_names]
    held = GuardrailSet.seal(ruleset).sealed[1]
    assert sorted(map(id, encoded)) == sorted(map(id, held))


def test_untampered_run_encodes_the_ruleset_once_at_seal(monkeypatch):
    # Every tick of an untampered run is vouched for by identity, so the
    # ruleset is encoded only to take the sealed digest.
    calls = []
    encode = Ruleset.canonical_bytes

    def counted(self):
        calls.append(self)
        return encode(self)

    monkeypatch.setattr(Ruleset, "canonical_bytes", counted)
    cfg = config_mod.load_file(
        pathlib.Path(__file__).parent.parent / "configs" / "reference.yaml")
    report, _ = run_scenario(cfg, 0, RandomPolicy(), with_trace=False)
    assert report.agent_terminated_at is None
    assert len(calls) == 1


@settings(max_examples=6, deadline=None)
@given(st.sampled_from([0, 1, 39]) | st.integers(0, 39))
def test_tamper_tick_edit_terminates_the_agent_that_tick(tamper_tick):
    cfg = make_config(episode_ticks=40, guardrails={"tamper_tick": tamper_tick})
    report, lines = run_scenario(cfg, 7, RandomPolicy())
    assert report.agent_terminated_at == tamper_tick
    decided = [json.loads(line)["tick"] for line in lines[1:]
               if '"kind":"decision"' in line]
    assert decided == list(range(tamper_tick))
