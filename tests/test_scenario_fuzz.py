"""Whole runs of scenarios drawn from the schema.

Whatever `config.from_mapping` accepts starts and runs to its end: its
traced, untraced and replayed reports agree, a second run writes the
same trace bytes, a learning episode finishes, and the world's
invariants hold on every tick. The scenarios are drawn from the
annotations of `config.ScenarioConfig` (types, `Bounds`, `Literal`
names, optional fields, lists and the `agent.actions` map), so a new
field is drawn without an edit here.
"""

import dataclasses
import math
import types
import typing
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from honeysim import config as config_mod
from honeysim import harness
from honeysim.actions import build_catalog
from honeysim.errors import ConfigInvalid
from honeysim.trace import MAX_EXACT_INT
from honeysim.world import step_world

# The largest value drawn for a field, by field name. A run's cost grows
# with each of these.
CAPS = {
    "episode_ticks": 150,
    "count": 12,  # the initial nodes of each node group
    "game_horizon": 3,
}
# Fields drawn only as their default: a pattern table is a file path.
DEFAULT_ONLY = {"pattern_table"}
# Some names a string field takes: node ids inside and outside the
# drawn node groups, and campaign ids that may repeat.
NAMES = ([config_mod.node_id(group, k) for group in config_mod.NODE_GROUPS for k in (0, 2)]
         + ["apt-0", "apt-1"])
ACTION_IDS = [*build_catalog().ids, "no_such_action"]
MAX_ITEMS = 4


def _number(tp, bounds, cap):
    """An int, or for a float field a float or an int, within `bounds`
    and within [-cap, cap]."""
    low, high = max(bounds.low, -cap), min(bounds.high, cap)
    ints = st.integers(math.ceil(max(low, -MAX_EXACT_INT)), math.floor(min(high, MAX_EXACT_INT)))
    if tp is int:
        return ints
    return st.floats(low, high, allow_nan=False, allow_infinity=False) | ints


def _values(tp, name=""):
    """A strategy for the scenario value of type `tp` in field `name`."""
    if dataclasses.is_dataclass(tp):  # a section: any of its fields, or none
        default = tp()
        required, optional = {}, {}
        for field, hint in config_mod._field_types(tp).items():
            if field in DEFAULT_ONLY:
                continue
            value = getattr(default, field)
            # A field whose default is above its cap is always drawn.
            over = type(value) in (int, float) and value > CAPS.get(field, math.inf)
            (required if over else optional)[field] = _values(hint, field)
        section = st.fixed_dictionaries(required, optional=optional)
        return section if required else st.none() | section
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is tuple:
        return st.lists(_values(args[0], name), max_size=MAX_ITEMS)
    if origin is dict:  # agent.actions, keyed by action id
        return st.dictionaries(st.sampled_from(ACTION_IDS), _values(args[1], name),
                               max_size=MAX_ITEMS)
    if origin in (typing.Union, types.UnionType):  # X | None
        return st.none() | _values(args[0], name)
    if origin is typing.Literal:
        return st.sampled_from(args)
    cap = CAPS.get(name, math.inf)
    if origin is typing.Annotated:
        return _number(args[0], args[1], cap)
    if tp in (int, float):
        return _number(tp, config_mod.Bounds(-math.inf), cap)
    if tp is bool:
        return st.booleans()
    return st.sampled_from(NAMES)


def _checked_step(world):
    world.check_invariants()
    events = step_world(world)
    world.check_invariants()
    return events


SCENARIOS = _values(config_mod.ScenarioConfig)


# About one draw in a hundred breaks a rule a run relies on and no
# other, so many scenarios are started, each for one tick...
@settings(derandomize=True, deadline=None, max_examples=1000)
@given(SCENARIOS)
def test_every_scenario_that_loads_starts(data):
    try:
        config = config_mod.from_mapping(data)
    except ConfigInvalid:
        return
    harness.run_scenario(dataclasses.replace(config, episode_ticks=1), config.seed,
                         harness.RandomPolicy(), with_trace=False)


# ...and fewer are run whole.
@settings(derandomize=True, deadline=None, max_examples=200)
@given(SCENARIOS)
def test_every_scenario_that_loads_runs_replays_and_repeats(data):
    try:
        config = config_mod.from_mapping(data)
    except ConfigInvalid:
        return
    seed = config.seed
    # run_scenario looks step_world up when it is called.
    with mock.patch.object(harness, "step_world", _checked_step):
        traced, lines = harness.run_scenario(config, seed, harness.RandomPolicy())
        untraced, _ = harness.run_scenario(config, seed, harness.RandomPolicy(),
                                           with_trace=False)
        _, again = harness.run_scenario(config, seed, harness.RandomPolicy())
        harness.train_agent(config, 1)
    assert untraced == traced
    assert harness.replay(lines) == traced
    assert "\n".join(again).encode("utf-8") == "\n".join(lines).encode("utf-8")
