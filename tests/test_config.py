import dataclasses
import json
import math
import sys
import time
import types
import typing
from pathlib import Path

import pytest
import yaml

from honeysim import cli
from honeysim import config as config_mod
from honeysim.errors import ConfigInvalid

REPO = Path(__file__).resolve().parent.parent


def test_defaults_are_valid():
    cfg = config_mod.from_mapping({})
    assert cfg.episode_ticks == 2000
    assert cfg.world.capacity == 140


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigInvalid, match="unknown keys"):
        config_mod.from_mapping({"worl": {}})


def test_unknown_keys_of_mixed_types_rejected():
    # YAML keys need not be strings; the message must still list them.
    with pytest.raises(ConfigInvalid, match=r"unknown keys \[1, 'zz'\]"):
        config_mod.from_mapping({1: 2, "zz": 3})


def test_unknown_nested_key_rejected():
    with pytest.raises(ConfigInvalid, match="world"):
        config_mod.from_mapping({"world": {"p_detct": 0.5}})


@pytest.mark.parametrize("data, path, want", [
    ({"world": {"database": {"cost": 5}}}, "world.database",
     config_mod.NodeGroupConfig(count=3, cost=5)),
    ({"world": {"database": None}}, "world.database",
     config_mod.NodeGroupConfig(count=3, cost=10)),
    ({"world": {"honeypot": {"cost": 7}}}, "world.honeypot",
     config_mod.NodeGroupConfig(count=1, cost=7)),
    ({"cascade": {"stage_costs": {"online_learning": {"time": 2}}}},
     "cascade.stage_costs.online_learning", config_mod.StageCostConfig(time=2, power=5)),
    ({"cascade": {"stage_costs": {"game_search": {}}}},
     "cascade.stage_costs.game_search", config_mod.StageCostConfig(time=10, power=10)),
], ids=["database-cost", "database-null", "honeypot-cost", "online-learning-time",
        "game-search-empty"])
def test_a_section_given_in_part_keeps_its_field_defaults(data, path, want):
    # A key left out of a section takes the value it has when the whole
    # section is left out, not the section class's own default.
    got = config_mod.from_mapping(data)
    for name in path.split("."):
        got = getattr(got, name)
    assert got == want


def test_probability_range_checked():
    with pytest.raises(ConfigInvalid, match="p_detect"):
        config_mod.from_mapping({"world": {"p_detect": 1.5}})


def test_empty_reward_window_rejected():
    with pytest.raises(ConfigInvalid, match="agent.window"):
        config_mod.from_mapping({"agent": {"window": 0}})


def test_gate_monotonicity_checked():
    with pytest.raises(ConfigInvalid, match="monotone"):
        config_mod.from_mapping({"guardrails": {"autonomy_gates": {
            "open": "reflex", "restricted": "previsioned", "silent": "reflex"}}})


def test_emcon_schedule_must_start_at_zero():
    with pytest.raises(ConfigInvalid, match="start at tick 0"):
        config_mod.from_mapping({"env": {"emcon_schedule": [
            {"tick": 5, "level": "open"}]}})


def test_budget_vs_need_checked():
    with pytest.raises(ConfigInvalid, match="mission_need"):
        config_mod.from_mapping({"guardrails": {
            "max_impact_per_action": 9.0, "mission_need": 5.0}})


def test_campaign_duplicate_id_rejected():
    with pytest.raises(ConfigInvalid, match="duplicate campaign"):
        config_mod.from_mapping({"world": {"campaigns": [
            {"id": "apt-0"}, {"id": "apt-0"}]}})


@pytest.mark.parametrize("data, message", [
    pytest.param({"agent": {"actions": {"no_such_action": {"enabled": True}}}},
                 "action overrides for unknown ids ['no_such_action']",
                 id="unknown-action-id"),
    pytest.param({"agent": {"actions": {"terminate_self": {"impact": 1.0}}}},
                 "terminate_self must have zero impact and reflex autonomy",
                 id="terminate-self-impact"),
    pytest.param({"agent": {"actions": {"terminate_self": {"autonomy": "previsioned"}}}},
                 "terminate_self must have zero impact and reflex autonomy",
                 id="terminate-self-autonomy"),
    pytest.param({"agent": {"actions": {"cry_for_help": {"emission_cost": 0}}}},
                 "cry_for_help must have a positive emission cost",
                 id="cry-for-help-silent"),
    pytest.param({"agent": {"actions": {"share_blocklist": {"emission_cost": 0}}}},
                 "share_blocklist must have a positive emission cost",
                 id="share-blocklist-silent"),
    pytest.param({"world": {"capacity": 50}},
                 "initial running nodes need 100 units but capacity is 50",
                 id="capacity-overcommitted"),
    pytest.param({"world": {"campaigns": [{"id": "apt-0", "known_nodes": ["db-2", "db-3"]}]}},
                 "campaign 'apt-0' references unknown node 'db-3'",
                 id="unknown-known-node"),
])
def test_run_start_rules_are_checked_at_load(data, message):
    # Each rule a run relies on rejects its scenario when it loads, with
    # the message a run would give.
    with pytest.raises(ConfigInvalid) as info:
        config_mod.from_mapping(data)
    assert str(info.value) == message


def test_node_group_count_is_bounded_at_load():
    # A group of zero cost fits any capacity, so only the count's bound
    # stops a load that would name 10**15 initial nodes.
    start = time.perf_counter()
    with pytest.raises(ConfigInvalid) as info:
        config_mod.from_mapping({"world": {"web": {"count": 10**15, "cost": 0}}})
    assert time.perf_counter() - start < 1.0
    assert str(info.value) == "world.web.count must be in [0, 10000], got 1000000000000000"


def test_digest_stable_and_sensitive():
    a = config_mod.from_mapping({})
    b = config_mod.from_mapping({})
    c = config_mod.from_mapping({"seed": 2})
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()


def test_yaml_round_trip(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text("episode_ticks: 50\nworld:\n  capacity: 200\n",
                    encoding="utf-8")
    cfg = config_mod.load_file(path)
    assert cfg.episode_ticks == 50
    assert cfg.world.capacity == 200


def test_invalid_yaml_rejected(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("episode_ticks: [unclosed\n", encoding="utf-8")
    with pytest.raises(ConfigInvalid):
        config_mod.load_file(path)


@pytest.mark.parametrize("value", [
    pytest.param("9" * 5001, marks=pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"),
        reason="this Python converts integers of any length"), id="huge_int"),
    pytest.param("2024-13-45", id="impossible_date"),
])
def test_unconvertible_yaml_value_exits_2(tmp_path, capsys, value):
    # YAML resolves the scalar's type, then Python cannot build the value.
    path = tmp_path / "scenario.yaml"
    path.write_text(f"episode_ticks: 5\nguardrails:\n  mission_need: {value}\n",
                    encoding="utf-8")
    with pytest.raises(ConfigInvalid):
        config_mod.load_file(path)
    assert cli.main(["run", "--config", str(path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(path) in err
    assert "Traceback" not in err


def test_reference_scenario_loads():
    cfg = config_mod.load_file(REPO / "configs" / "reference.yaml")
    assert cfg.episode_ticks == 2000
    total_real = (cfg.world.database.count + cfg.world.application.count
                  + cfg.world.web.count)
    assert total_real == 9
    assert len(cfg.world.campaigns) == 1


def _yaml_leaves(data, prefix=""):
    # Lists (campaigns, emcon_schedule, bin edges) and the actions map
    # are single fields of the scenario.
    for key, value in data.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict) and key != "actions":
            yield from _yaml_leaves(value, path + ".")
        else:
            yield path


def _config_leaves(obj, prefix=""):
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        path = f"{prefix}{f.name}"
        if dataclasses.is_dataclass(value):
            yield from _config_leaves(value, path + ".")
        else:
            yield path


def test_reference_scenario_documents_every_field():
    raw = yaml.safe_load((REPO / "configs" / "reference.yaml").read_text(encoding="utf-8"))
    assert sorted(_yaml_leaves(raw)) == sorted(_config_leaves(config_mod.ScenarioConfig()))


@pytest.mark.parametrize("section, key, value", [
    ("comms", "peers", ["ops"]),
    ("comms", "violation_threshold", 3),
    ("env", "safety_margin", 0.9),
    # No input moved these, so they were deleted: the operator's reply and
    # game search's choice carry confidence 1.0, and escalation offers
    # the operator one option.
    ("cascade.thresholds", "human_escalation", 0.5),
    ("cascade.thresholds", "game_search", 0.3),
    ("cascade", "escalation_options", 3),
])
def test_keys_nothing_reads_are_rejected(tmp_path, capsys, section, key, value):
    data = {key: value}
    for name in reversed(section.split(".")):
        data = {name: data}
    with pytest.raises(ConfigInvalid, match=key):
        config_mod.from_mapping(data)
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump({"episode_ticks": 5, **data}), encoding="utf-8")
    assert cli.main(["run", "--config", str(path)]) == cli.EXIT_CONFIG
    assert key in capsys.readouterr().err


def test_action_resource_delta_is_rejected(tmp_path, capsys):
    # An action's resource delta comes from the world, so the catalog
    # has no such knob to override.
    data = {"agent": {"actions": {"start_honeypot": {"resource_delta": -999999}}}}
    with pytest.raises(ConfigInvalid, match="resource_delta"):
        config_mod.from_mapping(data)
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump({"episode_ticks": 5, **data}), encoding="utf-8")
    assert cli.main(["run", "--config", str(path)]) == cli.EXIT_CONFIG
    assert "resource_delta" in capsys.readouterr().err


@pytest.mark.parametrize("path, value", [
    ("agent.window", "x"),
    ("env.time_budget", "x"),
    ("episode_ticks", 2.5),
    ("world.honeypot_decoys", 1.5),
    ("world.honeypot.cost", True),
    ("cascade.game_horizon", "2"),
    ("world.load_noise", "x"),
    ("world.p_detect", True),
    ("guardrails.mission_need", float("inf")),
    ("comms.alert_after_actions", 1),
    pytest.param("world.campaigns", [{"id": 7}], id="campaign-id-int"),
    pytest.param("world.campaigns", [{"id": "apt-0", "known_nodes": 5}],
                 id="known-nodes-int"),
    pytest.param("agent.bins.threat", ["a", "b", "c"], id="bins-text"),
])
def test_scalar_of_the_wrong_type_exits_2(tmp_path, capsys, path, value):
    # int fields take an int that is not a bool, float fields a finite
    # int or float, bool fields a bool and string fields a str.
    data = yaml.safe_load((REPO / "configs" / "reference.yaml").read_text(encoding="utf-8"))
    data["episode_ticks"] = 300
    *sections, key = path.split(".")
    section = data
    for name in sections:
        section = section[name]
    section[key] = value
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(yaml.safe_dump(data), encoding="utf-8")
    assert cli.main(["run", "--config", str(scenario), "--seed", "1",
                     "--trace-out", str(tmp_path / "run.trace")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert path.split(".")[-1] in err
    assert "Traceback" not in err


def test_int_in_a_float_field_is_kept_as_written():
    # The type check converts nothing, so every scenario that was valid
    # before it keeps its config digest.
    cfg = config_mod.from_mapping({"guardrails": {"mission_need": 8}})
    assert type(cfg.guardrails.mission_need) is int
    assert '"mission_need":8,' in cfg.canonical_json()


# Values of another type than the field's, per scalar type. An int field
# also rejects an int the trace cannot hold exactly.
_WRONG_SCALARS = {
    int: ["1", 1.5, True, 2**53 + 1, -(2**53) - 1],
    float: ["1", True, float("nan"), float("inf")],
    bool: [1, "true"],
    str: [5, True],
}


def _wrong_values(tp, default):
    """Yield (path below a field of type `tp`, a value for the field)
    pairs; each value holds one wrong-typed leaf, list item or name at
    that path. `default` is the field's default, whose list items give
    the shape of the items below them."""
    if dataclasses.is_dataclass(tp):
        yield "", 5
        hints = typing.get_type_hints(tp)
        for f in dataclasses.fields(tp):
            for sub, value in _wrong_values(hints[f.name], getattr(default, f.name)):
                yield f".{f.name}{sub}", {f.name: value}
        return
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is tuple:
        yield "", "x"
        item = default[0] if default else None
        for sub, value in _wrong_values(args[0], item):
            yield f"[0]{sub}", [value]
    elif origin is dict:
        yield "", ["x"]
        for sub, value in _wrong_values(args[1], args[1]()):
            yield f".start_honeypot{sub}", {"start_honeypot": value}
    elif args and type(None) in args:  # X | None
        yield from _wrong_values(args[0], default)
    elif origin is typing.Literal:
        yield "", 5
        yield "", "no_such_name"
    else:
        for value in _WRONG_SCALARS[tp]:
            yield "", value


def test_every_field_rejects_a_value_of_the_wrong_type():
    cfg = config_mod.ScenarioConfig()
    hints = typing.get_type_hints(config_mod.ScenarioConfig)
    cases = [(f.name + sub, {f.name: value})
             for f in dataclasses.fields(cfg)
             for sub, value in _wrong_values(hints[f.name], getattr(cfg, f.name))]
    assert len(cases) > 200
    accepted, unnamed = [], []
    for path, data in cases:
        try:
            config_mod.from_mapping(data)
        except ConfigInvalid as exc:
            if path not in str(exc):
                unnamed.append((path, str(exc)))
        else:
            accepted.append((path, data))
    assert accepted == []
    assert unnamed == []


@pytest.mark.parametrize("name", ["defaults", "reference"])
def test_to_dict_round_trips(name):
    if name == "defaults":
        cfg = config_mod.ScenarioConfig()
    else:
        cfg = config_mod.load_file(REPO / "configs" / "reference.yaml")
    again = config_mod.from_mapping(cfg.to_dict())
    assert again == cfg
    assert again.digest() == cfg.digest()


@pytest.mark.parametrize("section, key", [
    ("world", "capacity"),
    ("agent.reward", "denominator_floor"),
])
def test_int_beyond_the_trace_range_exits_2(tmp_path, capsys, section, key):
    # The trace holds ints within 2**53 exactly; a scenario int beyond it
    # would write a trace that replay calls corrupt.
    outer, _, inner = section.partition(".")
    data = {"episode_ticks": 5}
    leaf = data.setdefault(outer, {})
    if inner:
        leaf = leaf.setdefault(inner, {})
    leaf[key] = 10**20
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    assert cli.main(["run", "--config", str(path)]) == cli.EXIT_CONFIG
    assert f"{section}.{key}" in capsys.readouterr().err


def test_int_at_the_trace_range_runs_and_replays(tmp_path, capsys):
    path = tmp_path / "scenario.yaml"
    path.write_text(f"episode_ticks: 5\nworld:\n  capacity: {2**53}\n", encoding="utf-8")
    trace_path = tmp_path / "run.trace"
    assert cli.main(["run", "--config", str(path), "--trace-out", str(trace_path)]) == 0
    assert cli.main(["replay", "--trace", str(trace_path)]) == 0


def _bounded_leaves(section, prefix=""):
    """Yield (path, number type, Bounds) for each field below `section`
    whose annotation carries Bounds; the first item of a list stands for
    all its items."""
    for name, hint in typing.get_type_hints(section, include_extras=True).items():
        path = prefix + name
        if typing.get_origin(hint) in (typing.Union, types.UnionType):  # X | None
            hint = typing.get_args(hint)[0]
        if typing.get_origin(hint) is tuple:
            hint, path = typing.get_args(hint)[0], path + "[0]"
        if dataclasses.is_dataclass(hint):
            yield from _bounded_leaves(hint, path + ".")
        elif typing.get_origin(hint) is typing.Annotated:
            yield (path, *typing.get_args(hint))


def _scenario_with(path, value):
    """A scenario mapping that sets the leaf at `path` to `value`. The
    impact cap is 0, so any mission_need respects it, and a node group
    has no node or no cost, so any capacity holds them."""
    data = {"guardrails": {"max_impact_per_action": 0},
            "world": {name: {"count": 0, "cost": 0} for name in config_mod.NODE_GROUPS}}
    *sections, key = path.split(".")
    node = data
    for name in sections:
        if name.endswith("[0]"):
            node = node.setdefault(name[:-3], [{}])[0]
        else:
            node = node.setdefault(name, {})
    node[key] = value
    return data


def _bound_cases():
    """(path, value, accepted) for each finite bound of each bounded leaf
    and for one step past it: an int ±1, a float to the next float."""
    for path, tp, bounds in _bounded_leaves(config_mod.ScenarioConfig):
        for bound, outward in ((bounds.low, -1), (bounds.high, 1)):
            if math.isinf(bound):
                continue
            past = bound + outward if tp is int else math.nextafter(bound, outward * math.inf)
            yield path, bound, True
            yield path, past, False


def test_every_bounded_field_accepts_its_bounds_and_rejects_one_step_past():
    leaves = list(_bounded_leaves(config_mod.ScenarioConfig))
    # Every field with a range; a field whose Bounds went missing drops
    # out of the walk, so the count changes.
    assert len(leaves) == 55
    cases = list(_bound_cases())
    assert len(cases) == 162
    wrong = []
    for path, value, accepted in cases:
        try:
            config_mod.from_mapping(_scenario_with(path, value))
        except ConfigInvalid as exc:
            if accepted or path not in str(exc):
                wrong.append((path, value, str(exc)))
        else:
            if not accepted:
                wrong.append((path, value, "accepted"))
    assert wrong == []


def test_reward_coefficient_past_the_trace_range_exits_2(tmp_path, capsys):
    # A coefficient near the float maximum would make a reward of inf.
    path = tmp_path / "scenario.yaml"
    path.write_text("episode_ticks: 5\nagent:\n  reward: {a: 1.0e+308, b: 1.0e+308, "
                    "c: 1.0e+308}\n", encoding="utf-8")
    assert cli.main(["run", "--config", str(path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "agent.reward.a must be in" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("sign", [1, -1], ids=["plus", "minus"])
def test_reward_coefficients_at_the_trace_range_stay_finite(tmp_path, capsys, sign):
    coefficient = sign * 2**53
    path = tmp_path / "scenario.yaml"
    path.write_text(f"episode_ticks: 150\nagent:\n  reward: {{a: {coefficient}, "
                    f"b: {coefficient}, c: {coefficient}}}\n", encoding="utf-8")
    trace_path = tmp_path / "run.trace"
    assert cli.main(["run", "--config", str(path), "--trace-out", str(trace_path)]) == 0
    live = json.loads(capsys.readouterr().out)
    assert math.isfinite(live["cumulative_reward"])
    assert cli.main(["replay", "--trace", str(trace_path)]) == 0
    assert json.loads(capsys.readouterr().out) == live
    qtable = tmp_path / "q.json"
    assert cli.main(["train", "--config", str(path), "--episodes", "1",
                     "--out", str(qtable)]) == 0
    entries = json.loads(qtable.read_text(encoding="utf-8"))["entries"]
    assert entries and all(math.isfinite(v) for v in entries.values())


def test_negative_stage_cost_exits_2_naming_its_leaf(tmp_path, capsys):
    path = tmp_path / "scenario.yaml"
    path.write_text("episode_ticks: 5\ncascade:\n  stage_costs:\n"
                    "    game_search:\n      power: -1\n", encoding="utf-8")
    assert cli.main(["run", "--config", str(path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "cascade.stage_costs.game_search.power must be >= 0" in err
    assert "Traceback" not in err
