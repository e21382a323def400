"""Every scenario knob acts on some input.

The leaves of the scenario schema are found by walking the annotations
of `config.ScenarioConfig`, as the scenario fuzzer does, so a new field
is found without an edit here. Each leaf has one witness: a change to
that leaf alone, on a base scenario, seed and run, that changes what
the run writes after the trace header, or for a training run its Q
table or reward curve. A leaf that acts only when a scenario loads is
listed with the rule that reads it instead, and is checked by a value
that rule rejects; a leaf that no input moves yet names the open item
that settles it. This is the config twin of the reachability scan.
"""

import collections
import copy
import dataclasses
import functools
import json
import typing

import pytest

from honeysim import config as config_mod
from honeysim.errors import ConfigInvalid
from honeysim.harness import RandomPolicy, run_scenario, train_agent
from oracles import write_pattern_table
from test_golden import REFERENCE

EPISODE_TICKS = 100
# Stands for the path of a pattern table that proposes QUARANTINE on
# every state at confidence 0.5: below the pattern stage's reference
# threshold of 0.8, above the fail-safe's of 0.
TABLE = "<pattern table>"
QUARANTINE = "quarantine_node"


class Witness(typing.NamedTuple):
    change: dict  # the overrides, on top of `base`, that set the leaf
    base: dict = {}  # overrides on top of the reference scenario
    seed: int = 0
    run: str = "random"  # or "train": two learning episodes


class Rule(typing.NamedTuple):
    rule: str  # what reads the leaf
    change: dict  # overrides on the reference scenario that the rule rejects
    message: str


def _group(group, **values):
    return {"world": {group: values}}


def _emcon(*entries):
    return {"env": {"emcon_schedule": [{"tick": t, "level": lv} for t, lv in entries]}}


def _merge(*overrides):
    """The overrides laid one on another: mappings merge, the rest replaces."""
    out = {}
    for over in overrides:
        for key, value in over.items():
            if type(value) is dict and type(out.get(key)) is dict:
                value = _merge(out[key], value)
            out[key] = copy.deepcopy(value)
    return out


# The learner gets below its threshold, so the operator is asked.
ASK = {"cascade": {"online_confidence": 0.1}}
# ...and declines, with budget left for game search.
SEARCH = _merge(ASK, {"cascade": {"operator": {"behavior": "decline"}},
                      "env": {"time_budget": 30, "power_budget": 30}})
# ...and declines, with no budget left for game search: the fail-safe
# decides every tick.
FAIL_SAFE = _merge(ASK, {"cascade": {"operator": {"behavior": "decline"}}})
PATTERN = {"cascade": {"pattern_table": TABLE}}
OVERRIDE = {"agent": {"actions": {QUARANTINE: {}}}}  # an override that changes nothing
# The campaign knows the honeypot, so it touches it.
HONEYPOT = {"world": {"campaigns": [{"known_nodes": ["hp-0"]}]}}
# The campaign knows a real server and owns it at its first undetected hit.
OWNED = {"world": {"campaigns": [{"known_nodes": ["db-0"], "intensity": 1.0}],
                   "hits_to_compromise": 1, "p_detect": 0.0}}

WITNESSES = {
    "world.capacity": Witness({"world": {"capacity": 100}}),
    **{f"world.{group}.count": Witness(_group(group, count=2))
       for group in config_mod.NODE_GROUPS},
    **{f"world.{group}.cost": Witness(_group(group, cost=11))
       for group in config_mod.NODE_GROUPS},
    "world.honeypot_decoys": Witness({"world": {"honeypot_decoys": 0}}),
    # Dummy files go to the node with the fewest; the honeypot starts
    # with more than one deploy gives, so the deploy size orders them.
    "world.dummy_files_per_deploy": Witness({"world": {"dummy_files_per_deploy": 9}},
                                            base={"world": {"honeypot_decoys": 5}}),
    "world.campaigns[].intensity": Witness({"world": {"campaigns": [{"intensity": 1.0}]}}),
    "world.campaigns[].activation_tick": Witness(
        {"world": {"campaigns": [{"activation_tick": 50}]}}),
    "world.campaigns[].known_nodes": Witness(
        {"world": {"campaigns": [{"known_nodes": ["db-0"]}]}}),
    "world.p_detect": Witness({"world": {"p_detect": 0.0}}),
    "world.p_decoy_touch": Witness({"world": {"p_decoy_touch": 1.0}}, base=HONEYPOT),
    "world.p_dummy_process": Witness({"world": {"p_dummy_process": 1.0}}, base=HONEYPOT),
    "world.p_integrity_alert": Witness({"world": {"p_integrity_alert": 1.0}}, base=OWNED),
    "world.p_antimalware_alert": Witness({"world": {"p_antimalware_alert": 1.0}}, base=OWNED),
    "world.p_false_ids": Witness({"world": {"p_false_ids": 0.5}}),
    "world.p_false_antimalware": Witness({"world": {"p_false_antimalware": 0.5}}),
    "world.p_false_unauthorized": Witness({"world": {"p_false_unauthorized": 0.5}}),
    "world.p_logline": Witness({"world": {"p_logline": 0.0}}),
    "world.load_noise": Witness({"world": {"load_noise": 0.0}}),
    "world.hits_to_compromise": Witness({"world": {"hits_to_compromise": 1}}),
    "agent.window": Witness({"agent": {"window": 10}}),
    "agent.reward.a": Witness({"agent": {"reward": {"a": 2.0}}}, base=HONEYPOT),
    # At seed 1 the honeypots started and stopped free or take resources.
    "agent.reward.b": Witness({"agent": {"reward": {"b": 2.0}}}, seed=1),
    "agent.reward.c": Witness({"agent": {"reward": {"c": 2.0}}}),
    "agent.reward.denominator_floor": Witness({"agent": {"reward": {"denominator_floor": 1000}}}),
    "agent.learning.alpha": Witness({"agent": {"learning": {"alpha": 0.5}}}, run="train"),
    "agent.learning.gamma": Witness({"agent": {"learning": {"gamma": 0.5}}}, run="train"),
    "agent.learning.epsilon_start": Witness({"agent": {"learning": {"epsilon_start": 1.0}}},
                                            run="train"),
    "agent.learning.epsilon_end": Witness({"agent": {"learning": {"epsilon_end": 1.0}}},
                                          run="train"),
    "agent.bins.threat": Witness({"agent": {"bins": {"threat": [0.1, 0.2, 0.3]}}}),
    "agent.bins.load": Witness({"agent": {"bins": {"load": [0.1, 0.2, 0.3]}}}),
    "agent.bins.honeypots": Witness({"agent": {"bins": {"honeypots": [0, 2, 4]}}}),
    "agent.actions{}.impact": Witness({"agent": {"actions": {QUARANTINE: {"impact": 9.0}}}},
                                      base=OVERRIDE),
    "agent.actions{}.emission_cost": Witness(
        {"agent": {"actions": {QUARANTINE: {"emission_cost": 1}}}},
        # In silence, with every gate open, only an emission is vetoed.
        base=_merge(OVERRIDE, _emcon((0, "silent")), {"guardrails": {"autonomy_gates": {
            "restricted": "delegated", "silent": "delegated"}}})),
    "agent.actions{}.autonomy": Witness(
        {"agent": {"actions": {QUARANTINE: {"autonomy": "delegated"}}}},
        base=_merge(OVERRIDE, {"guardrails": {"autonomy_gates": {"open": "collaborative"}}})),
    "agent.actions{}.enabled": Witness({"agent": {"actions": {QUARANTINE: {"enabled": False}}}},
                                       base=OVERRIDE),
    "cascade.thresholds.pattern_recognition": Witness(
        {"cascade": {"thresholds": {"pattern_recognition": 0.5}}}, base=PATTERN),
    "cascade.thresholds.online_learning": Witness(
        {"cascade": {"thresholds": {"online_learning": 0.95}}}),
    "cascade.thresholds.fail_safe": Witness(
        {"cascade": {"thresholds": {"fail_safe": 0.6}}},
        base=_merge(FAIL_SAFE, PATTERN, {"cascade": {"failsafe_profile": "low_threshold_act"}})),
    "cascade.stage_costs.pattern_recognition.time": Witness(
        {"cascade": {"stage_costs": {"pattern_recognition": {"time": 10}}}}),
    "cascade.stage_costs.pattern_recognition.power": Witness(
        {"cascade": {"stage_costs": {"pattern_recognition": {"power": 10}}}}),
    "cascade.stage_costs.online_learning.time": Witness(
        {"cascade": {"stage_costs": {"online_learning": {"time": 11}}}}),
    "cascade.stage_costs.online_learning.power": Witness(
        {"cascade": {"stage_costs": {"online_learning": {"power": 11}}}}),
    "cascade.stage_costs.human_escalation.time": Witness(
        {"cascade": {"stage_costs": {"human_escalation": {"time": 10}}}}, base=ASK),
    "cascade.stage_costs.human_escalation.power": Witness(
        {"cascade": {"stage_costs": {"human_escalation": {"power": 20}}}}, base=SEARCH),
    "cascade.stage_costs.game_search.time": Witness(
        {"cascade": {"stage_costs": {"game_search": {"time": 30}}}}, base=SEARCH),
    "cascade.stage_costs.game_search.power": Witness(
        {"cascade": {"stage_costs": {"game_search": {"power": 30}}}}, base=SEARCH),
    "cascade.online_confidence": Witness({"cascade": {"online_confidence": 0.1}}),
    "cascade.failsafe_profile": Witness({"cascade": {"failsafe_profile": "terminate"}},
                                        base=FAIL_SAFE),
    "cascade.operator.behavior": Witness({"cascade": {"operator": {"behavior": "decline"}}},
                                         base=ASK),
    "cascade.operator.latency": Witness({"cascade": {"operator": {"latency": 10}}}, base=ASK),
    "cascade.pattern_table": Witness(PATTERN),
    "guardrails.max_impact_per_action": Witness({"guardrails": {"max_impact_per_action": 0.5}}),
    "guardrails.autonomy_gates.open": Witness(
        {"guardrails": {"autonomy_gates": {"open": "reflex"}}},
        base={"guardrails": {"autonomy_gates": {"restricted": "reflex"}}}),
    "guardrails.autonomy_gates.restricted": Witness(
        {"guardrails": {"autonomy_gates": {"restricted": "reflex"}}},
        base=_emcon((0, "restricted"))),
    "guardrails.autonomy_gates.silent": Witness(
        {"guardrails": {"autonomy_gates": {"silent": "previsioned"}}},
        base=_emcon((0, "silent"))),
    "guardrails.tamper_tick": Witness({"guardrails": {"tamper_tick": 50}}),
    "comms.heartbeat_every": Witness({"comms": {"heartbeat_every": 5}}),
    "comms.alert_after_actions": Witness({"comms": {"alert_after_actions": True}}),
    "env.connectivity": Witness({"env": {"connectivity": False}}, base=ASK),
    "env.time_budget": Witness({"env": {"time_budget": 0}}),
    "env.power_budget": Witness({"env": {"power_budget": 0}}),
    "env.emcon_schedule[].tick": Witness(_emcon((0, "open"), (50, "silent")),
                                         base=_emcon((0, "open"), (100, "silent"))),
    "env.emcon_schedule[].level": Witness(_emcon((0, "silent"))),
    "episode_ticks": Witness({"episode_ticks": EPISODE_TICKS + 1}),
    "seed": Witness({"seed": 2}, run="train"),
}

# Leaves that act only when a scenario loads, each with the rule that
# reads it.
LOAD_ONLY = {
    "guardrails.mission_need": Rule(
        "bounds guardrails.max_impact_per_action",
        {"guardrails": {"mission_need": 4.0}},
        "guardrails.max_impact_per_action must not exceed mission_need"),
    "world.campaigns[].id": Rule(
        "campaign ids are distinct",
        {"world": {"campaigns": [{"id": "apt-0"}, {"id": "apt-0"}]}},
        "duplicate campaign id 'apt-0'"),
}
# Leaves that also act at run time, with a load rule that reads them.
ALSO_AT_LOAD = {
    "world.web.count": Rule(
        "its bound, so that a load names at most 10,000 nodes per group",
        {"world": {"web": {"count": 10_001, "cost": 0}}},
        "world.web.count must be in [0, 10000], got 10001"),
}
# Leaves that no input moves yet, each with the open item that settles it.
PENDING = {
    "cascade.game_horizon": "ROADMAP item 13: the game search's only model "
                            "makes every horizon pick the greedy action",
}


def _section(hint):
    """('', S) for a section S, ('[]', S) for a list of them, ('{}', S)
    for a map of them, else (None, None)."""
    if dataclasses.is_dataclass(hint):
        return "", hint
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is tuple and dataclasses.is_dataclass(args[0]):
        return "[]", args[0]
    if origin is dict and dataclasses.is_dataclass(args[1]):
        return "{}", args[1]
    return None, None


def schema_leaves(tp=config_mod.ScenarioConfig, prefix=""):
    """The name of each leaf of the schema below section `tp`."""
    for name, hint in config_mod._field_types(tp).items():
        mark, section = _section(hint)
        if section is None:
            yield prefix + name
        else:
            yield from schema_leaves(section, f"{prefix}{name}{mark}.")


def _leaf_values(value, tp=config_mod.ScenarioConfig, prefix=""):
    """(leaf name, (list index or map key, ..., value)) for each leaf
    value of `value`, a `tp` section."""
    for name, hint in config_mod._field_types(tp).items():
        mark, section = _section(hint)
        path, field = prefix + name, getattr(value, name)
        if section is None:
            yield path, (field,)
            continue
        path += mark
        items = (field.items() if mark == "{}" else enumerate(field) if mark == "[]"
                 else [(None, field)])
        for key, item in items:
            for leaf, where in _leaf_values(item, section, path + "."):
                yield leaf, (key, *where)


def changed_leaves(a, b) -> set:
    values = [collections.defaultdict(list) for _ in (a, b)]
    for config, out in zip((a, b), values):
        for leaf, where in _leaf_values(config):
            out[leaf].append(where)
    return {leaf for leaf in values[0].keys() | values[1].keys()
            if values[0][leaf] != values[1][leaf]}


@pytest.fixture(scope="module")
def table_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("knobs") / "pattern.json"
    write_pattern_table(path, {(t, lo, h, r): (QUARANTINE, 0.5) for t in range(4)
                               for lo in range(4) for h in range(4) for r in (False, True)})
    return str(path)


@functools.lru_cache(maxsize=None)
def _reference():
    data = config_mod.load_file(REFERENCE).to_dict()
    data["episode_ticks"] = EPISODE_TICKS
    return data


def scenario(table_path, *overrides):
    data = _merge(_reference(), *overrides)
    if data["cascade"]["pattern_table"] == TABLE:
        data["cascade"]["pattern_table"] = table_path
    return config_mod.from_mapping(data)


@functools.lru_cache(maxsize=None)
def _outcome(table_path, overrides: str, seed: int, run: str):
    """What a run writes after the trace header, or what a training run
    learns; `overrides` is the JSON of the scenario's overrides."""
    config = scenario(table_path, json.loads(overrides))
    if run == "train":
        result = train_agent(config, 2)
        return json.dumps([result.qtable.to_dict(), result.reward_curve], sort_keys=True)
    return run_scenario(config, seed, RandomPolicy())[1][1:]


def outcome(table_path, overrides, witness):
    return _outcome(table_path, json.dumps(overrides, sort_keys=True), witness.seed,
                    witness.run)


def test_every_leaf_has_a_witness_a_load_rule_or_an_open_item():
    leaves = set(schema_leaves())
    listed = [WITNESSES, LOAD_ONLY, PENDING]
    assert sum(map(len, listed)) == len(set().union(*listed)), "a leaf is listed twice"
    assert set().union(*listed, ALSO_AT_LOAD) - leaves == set(), "not a leaf"
    assert leaves - set().union(*listed) == set(), "no witness, load rule or open item"


@pytest.mark.parametrize("leaf", sorted(WITNESSES))
def test_witness_changes_its_leaf_alone_and_the_run(table_path, leaf):
    witness = WITNESSES[leaf]
    changed = _merge(witness.base, witness.change)
    assert changed_leaves(scenario(table_path, witness.base),
                          scenario(table_path, changed)) == {leaf}
    assert outcome(table_path, changed, witness) != outcome(table_path, witness.base, witness)


@pytest.mark.parametrize("leaf", sorted(LOAD_ONLY.keys() | ALSO_AT_LOAD.keys()))
def test_load_rule_rejects_its_value(table_path, leaf):
    rule = LOAD_ONLY.get(leaf) or ALSO_AT_LOAD[leaf]
    with pytest.raises(ConfigInvalid) as info:
        scenario(table_path, rule.change)
    assert str(info.value) == rule.message
