"""Target resolution on hand-built worlds.

`harness.resolve_target` binds an effect to a node from agent-visible
state only. Each effect has its own candidates; the ranked effects take
the candidate with the most alert-type events in the window given, ties
to the lowest id, and the agent cannot tell Compromised from Running.
"""

import pytest

from conftest import make_config
from honeysim._kernels import codes
from honeysim.actions import ActionEffect
from honeysim.errors import NoSuchNode
from honeysim.harness import resolve_target
from honeysim.world import (TARGETLESS, EventKind, ExecutedAction, WorldEvent,
                            apply_action, init_world)

E = ActionEffect
RANKED = (E.STOP_REAL_VM, E.QUARANTINE_NODE, E.ROTATE_ADDRESS, E.QUARANTINE_FILE,
          E.RESTORE_KNOWN_GOOD)
TARGETED = tuple(effect for effect in E if effect not in TARGETLESS)
SUSPICIOUS = (EventKind.IDS_ALERT, EventKind.ANTI_MALWARE_ALERT,
              EventKind.UNAUTHORIZED_ACCESS, EventKind.FILE_INTEGRITY_VIOLATION)


def make_world(db=2, app=2, web=1, hp=2, **statuses):
    """A world of the given group sizes, each node Running unless
    `statuses` names it (as db_0=codes.STOPPED and so on)."""
    world = init_world(make_config(world={
        "capacity": 1000, "campaigns": [],
        "database": {"count": db}, "application": {"count": app},
        "web": {"count": web}, "honeypot": {"count": hp}}), seed=1)
    for name, status in statuses.items():
        world.core.set_status(world.node_ids.index(name.replace("_", "-")), status)
    return world


def alerts(*nodes, kind=EventKind.IDS_ALERT, tick=0):
    return [WorldEvent(tick, kind, node, 1, 0.0, False) for node in nodes]


def mixed():
    """app-0 Stopped, app-1 Quarantined, db-0 Compromised, the rest Running."""
    return make_world(app_0=codes.STOPPED, app_1=codes.QUARANTINED, db_0=codes.COMPROMISED)


def candidates(effect, world) -> set:
    """The nodes a ranked effect can target: those it picks when they
    alone have alerts."""
    return {node for node in world.node_ids
            if resolve_target(effect, world, alerts(node)) == node}


@pytest.mark.parametrize("effect, expected", [
    # the serving nodes: real, Running or Compromised
    (E.STOP_REAL_VM, {"db-0", "db-1", "web-0"}),
    (E.QUARANTINE_NODE, {"db-0", "db-1", "web-0"}),
    (E.ROTATE_ADDRESS, {"db-0", "db-1", "web-0"}),
    # any node that is not Stopped, honeypots and Quarantined ones too
    (E.QUARANTINE_FILE, {"app-1", "db-0", "db-1", "hp-0", "hp-1", "web-0"}),
    # real nodes that are not Stopped, Quarantined ones too
    (E.RESTORE_KNOWN_GOOD, {"app-1", "db-0", "db-1", "web-0"}),
])
def test_candidates_of_each_ranked_effect(effect, expected):
    assert candidates(effect, mixed()) == expected


def test_stop_honeypot_takes_the_lowest_resident_honeypot():
    world = mixed()
    assert resolve_target(E.STOP_HONEYPOT, world, alerts("hp-1")) == "hp-0"
    apply_action(world, ExecutedAction("stop_honeypot", E.STOP_HONEYPOT, "hp-0"))
    assert resolve_target(E.STOP_HONEYPOT, world, ()) == "hp-1"


def test_start_real_vm_takes_the_lowest_stopped_real_node():
    assert resolve_target(E.START_REAL_VM, mixed(), alerts("db-1")) == "app-0"
    assert resolve_target(E.START_REAL_VM, make_world(db_1=codes.STOPPED,
                                                      web_0=codes.STOPPED), ()) == "db-1"


def test_deploy_dummy_files_takes_the_up_node_with_fewest_decoys():
    world = mixed()
    # app-1 has no decoys but is Quarantined; honeypots start with decoys
    assert resolve_target(E.DEPLOY_DUMMY_FILES, world, ()) == "db-0"
    world.core.decoys[world.node_ids.index("db-0")] = 5
    assert resolve_target(E.DEPLOY_DUMMY_FILES, world, ()) == "db-1"
    for node in ("db-1", "web-0"):
        world.core.decoys[world.node_ids.index(node)] = 5
    assert resolve_target(E.DEPLOY_DUMMY_FILES, world, ()) == "hp-0"


def test_suspicion_counts_alert_kinds_over_the_window_ties_to_lowest_id():
    world = make_world()
    assert resolve_target(E.QUARANTINE_NODE, world, ()) == "app-0"
    quiet = [WorldEvent(0, kind, "web-0", 0, 0.0, True) for kind in EventKind
             if kind not in SUSPICIOUS]
    assert resolve_target(E.QUARANTINE_NODE, world, quiet) == "app-0"
    # two alerts each on db-1 and web-0, from different ticks of the window
    window = (alerts("web-0", tick=3) + alerts("db-1", kind=EventKind.ANTI_MALWARE_ALERT, tick=4)
              + alerts("db-1", kind=EventKind.FILE_INTEGRITY_VIOLATION, tick=9)
              + alerts("web-0", tick=9) + quiet)
    assert resolve_target(E.QUARANTINE_NODE, world, window) == "db-1"
    window += alerts("web-0", kind=EventKind.UNAUTHORIZED_ACCESS, tick=12)
    assert resolve_target(E.QUARANTINE_NODE, world, window) == "web-0"


def test_ids_tie_break_is_by_string():
    world = make_world(db=0, app=12, web=0, hp=0)
    assert resolve_target(E.ROTATE_ADDRESS, world, ()) == "app-0"
    assert resolve_target(E.ROTATE_ADDRESS, world, alerts("app-10", "app-2")) == "app-10"


@pytest.mark.parametrize("effect", TARGETED)
def test_compromised_ranks_as_running(effect):
    window = alerts("db-0", "db-1", "web-0", "db-1")
    running = make_world(app_0=codes.STOPPED)
    compromised = make_world(app_0=codes.STOPPED, db_0=codes.COMPROMISED,
                             db_1=codes.COMPROMISED)
    assert resolve_target(effect, compromised, window) \
        == resolve_target(effect, running, window)


def test_none_when_no_candidate_exists():
    world = make_world(db=1, app=1, web=1, hp=0, db_0=codes.STOPPED,
                       app_0=codes.STOPPED, web_0=codes.STOPPED)
    everywhere = alerts("db-0", "app-0", "web-0")
    for effect in TARGETED:
        want = "app-0" if effect is E.START_REAL_VM else None
        assert resolve_target(effect, world, everywhere) == want, effect
    assert resolve_target(E.START_REAL_VM, make_world(), ()) is None
    quarantined = make_world(db=1, app=0, web=0, hp=0, db_0=codes.QUARANTINED)
    for effect in (E.STOP_REAL_VM, E.QUARANTINE_NODE, E.ROTATE_ADDRESS, E.DEPLOY_DUMMY_FILES):
        assert resolve_target(effect, quarantined, alerts("db-0")) is None


@pytest.mark.parametrize("effect", TARGETLESS)
def test_targetless_effects_get_no_target_and_apply_without_one(effect):
    world = mixed()
    assert resolve_target(effect, world, alerts(*world.node_ids)) is None
    apply_action(world, ExecutedAction(effect.value, effect, None))


@pytest.mark.parametrize("effect", TARGETED)
def test_every_other_effect_needs_a_target(effect):
    with pytest.raises(NoSuchNode):
        apply_action(mixed(), ExecutedAction(effect.value, effect, None))


def test_every_targeted_effect_has_a_candidate_rule():
    assert set(RANKED) | {E.STOP_HONEYPOT, E.START_REAL_VM, E.DEPLOY_DUMMY_FILES} \
        == set(TARGETED)
