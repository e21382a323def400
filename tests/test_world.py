import json
import random

import pytest

from conftest import make_config, quiet_world
from honeysim import harness
from honeysim.actions import ActionEffect
from honeysim.errors import ConfigInvalid, IllegalTransition, InsufficientResources, NoSuchNode
from honeysim.world import (EventKind, ExecutedAction, NodeKind, NodeStatus,
                            apply_action, init_world, step_world)


def nine_real(**world_overrides):
    world = {
        "capacity": 100,
        "database": {"count": 3, "cost": 10},
        "application": {"count": 3, "cost": 10},
        "web": {"count": 3, "cost": 10},
        "honeypot": {"count": 0, "cost": 10},
        "campaigns": [],
    }
    world.update(world_overrides)
    return make_config(world=world)


def serialize_events(events):
    return "\n".join(json.dumps(ev.to_dict(), sort_keys=True) for ev in events)


def test_init_pool_used_is_sum_of_costs():
    w = init_world(nine_real(), seed=42)
    assert w.pool.used == 90
    assert w.pool.capacity == 100
    assert len(w.node_ids) == 9


def test_init_same_seed_same_structure():
    cfg = nine_real(campaigns=[{"id": "apt-0", "intensity": 0.5}])
    w1 = init_world(cfg, seed=42)
    w2 = init_world(cfg, seed=42)
    assert w1.nodes() == w2.nodes()
    assert w1.pool == w2.pool
    assert [w1.campaign_known_tokens(c) for c in w1.campaign_ids] == \
           [w2.campaign_known_tokens(c) for c in w2.campaign_ids]


def test_init_rejects_overcommitted_capacity():
    with pytest.raises(ConfigInvalid):
        init_world(nine_real(capacity=50), seed=1)


def test_no_campaigns_means_no_malicious_events():
    w = init_world(nine_real(), seed=3)
    for _ in range(1000):
        for ev in step_world(w):
            assert not ev.truth_malicious
    w.check_invariants()


def test_campaign_knowing_only_honeypot_touches_only_honeypot():
    cfg = make_config(world={
        "capacity": 110,
        "database": {"count": 3, "cost": 10},
        "application": {"count": 3, "cost": 10},
        "web": {"count": 3, "cost": 10},
        "honeypot": {"count": 1, "cost": 10},
        "campaigns": [{"id": "apt-0", "intensity": 1.0, "known_nodes": ["hp-0"]}],
        **quiet_world(),
    })
    w = init_world(cfg, seed=5)
    malicious = []
    for _ in range(50):
        malicious.extend(ev for ev in step_world(w) if ev.truth_malicious)
    assert malicious, "forced campaign must generate events"
    assert all(ev.kind is EventKind.HONEY_TOUCH for ev in malicious)
    assert all(ev.node == "hp-0" for ev in malicious)


def test_forced_attack_trajectory_yields_ten_alerts():
    # Intensity 1 and certain detection: ten ticks, ten IDS alerts on
    # the one known node, never a compromise.
    cfg = make_config(world={
        "capacity": 100,
        "database": {"count": 3, "cost": 10},
        "application": {"count": 3, "cost": 10},
        "web": {"count": 3, "cost": 10},
        "honeypot": {"count": 0, "cost": 10},
        "p_detect": 1.0,
        "campaigns": [{"id": "apt-0", "intensity": 1.0, "known_nodes": ["db-0"]}],
        **quiet_world(),
    })
    w = init_world(cfg, seed=9)
    alerts = []
    for _ in range(10):
        alerts.extend(ev for ev in step_world(w)
                      if ev.kind is EventKind.IDS_ALERT and ev.truth_malicious)
    assert len(alerts) == 10
    assert all(ev.node == "db-0" for ev in alerts)
    assert w.node("db-0").status is NodeStatus.RUNNING


def hp_world(capacity=110, hp_count=1):
    return make_config(world={
        "capacity": capacity,
        "database": {"count": 3, "cost": 10},
        "application": {"count": 3, "cost": 10},
        "web": {"count": 3, "cost": 10},
        "honeypot": {"count": hp_count, "cost": 10},
        "campaigns": [],
    })


def test_start_honeypot_insufficient_resources():
    w = init_world(hp_world(capacity=95, hp_count=0), seed=1)
    assert w.pool.available == 5
    with pytest.raises(InsufficientResources):
        apply_action(w, ExecutedAction("start_honeypot", ActionEffect.START_HONEYPOT))


def test_stop_honeypot_frees_resources():
    w = init_world(hp_world(), seed=1)
    outcome = apply_action(w, ExecutedAction("stop_honeypot",
                                             ActionEffect.STOP_HONEYPOT, "hp-0"))
    assert outcome.delta_resources == +10
    assert "hp-0" in w.retired
    w.check_invariants()


def test_stop_honeypot_retires_it():
    w = init_world(hp_world(hp_count=2), seed=1)
    resident = len(w.node_ids)
    stop = ExecutedAction("stop_honeypot", ActionEffect.STOP_HONEYPOT, "hp-0")
    apply_action(w, stop)
    assert len(w.node_ids) == len(w.core.kinds) == resident - 1
    assert "hp-0" not in w.node_ids
    assert "hp-0" not in [n.id for n in w.nodes()]
    # only the id is kept: a retired honeypot has no snapshot
    assert w.retired == {"hp-0"}
    with pytest.raises(NoSuchNode):
        w.node("hp-0")
    # the honeypot after it moved down one index and is still addressable
    assert w.node("hp-1").status is NodeStatus.RUNNING
    assert w.core.kinds[w.node_ids.index("hp-1")] == NodeKind.HONEYPOT
    with pytest.raises(IllegalTransition):
        apply_action(w, stop)
    with pytest.raises(IllegalTransition):
        apply_action(w, ExecutedAction("deploy_dummy_files",
                                       ActionEffect.DEPLOY_DUMMY_FILES, "hp-0"))
    w.check_invariants()


def test_resident_nodes_stay_bounded_over_long_random_run(monkeypatch):
    # Every stopped honeypot leaves the per-tick state, so the resident
    # count is fixed by the capacity, not by how many honeypots the
    # episode has started.
    cfg = make_config(world={
        "capacity": 140,
        "database": {"count": 3, "cost": 10},
        "application": {"count": 3, "cost": 10},
        "web": {"count": 3, "cost": 10},
        "honeypot": {"count": 1, "cost": 10},
        "campaigns": [{"id": "apt-0", "intensity": 0.6}],
    }, episode_ticks=5000)
    seen = set()
    resident = []

    def checked_step(world):
        seen.update(world.node_ids)
        assert len(world.node_ids) <= len(seen) - len(world.retired)
        assert seen == set(world.node_ids) | world.retired
        world.check_invariants()
        resident.append(len(world.node_ids))
        return step_world(world)

    monkeypatch.setattr(harness, "step_world", checked_step)
    harness.run_scenario(cfg, 0, harness.RandomPolicy(), with_trace=False)
    assert len(resident) == 5000
    assert len(seen) > 100  # many honeypots were started and retired
    # at most 14 non-stopped nodes fit the capacity, plus 9 stopped real VMs
    assert max(resident) <= 140 // 10 + 9


def test_start_honeypot_consumes_resources():
    w = init_world(hp_world(), seed=1)
    outcome = apply_action(w, ExecutedAction("start_honeypot",
                                             ActionEffect.START_HONEYPOT))
    assert outcome.delta_resources == -10
    assert outcome.node == "hp-1"
    assert w.node("hp-1").status is NodeStatus.RUNNING
    w.check_invariants()


def test_restore_stopped_node_is_illegal():
    w = init_world(hp_world(), seed=1)
    apply_action(w, ExecutedAction("stop_honeypot", ActionEffect.STOP_HONEYPOT, "hp-0"))
    with pytest.raises(IllegalTransition):
        apply_action(w, ExecutedAction("restore_known_good",
                                       ActionEffect.RESTORE_KNOWN_GOOD, "hp-0"))


def test_unknown_target_raises():
    w = init_world(hp_world(), seed=1)
    with pytest.raises(NoSuchNode):
        apply_action(w, ExecutedAction("quarantine_node",
                                       ActionEffect.QUARANTINE_NODE, "db-99"))


def test_quarantined_node_emits_nothing():
    cfg = make_config(world={
        "capacity": 100,
        "database": {"count": 3, "cost": 10},
        "application": {"count": 3, "cost": 10},
        "web": {"count": 3, "cost": 10},
        "honeypot": {"count": 0, "cost": 10},
        "campaigns": [{"id": "apt-0", "intensity": 1.0, "known_nodes": ["db-0"]}],
        **quiet_world(),
    })
    w = init_world(cfg, seed=2)
    apply_action(w, ExecutedAction("quarantine_node",
                                   ActionEffect.QUARANTINE_NODE, "db-0"))
    for _ in range(50):
        for ev in step_world(w):
            assert ev.node != "db-0"
    w.check_invariants()


def test_rotation_blocks_campaign_until_new_recon():
    cfg = make_config(world={
        "capacity": 100,
        "database": {"count": 3, "cost": 10},
        "application": {"count": 3, "cost": 10},
        "web": {"count": 3, "cost": 10},
        "honeypot": {"count": 0, "cost": 10},
        "campaigns": [{"id": "apt-0", "intensity": 1.0, "known_nodes": ["db-0"]}],
        **quiet_world(),
    })
    # With the perimeter closed, recon cannot re-observe: the rotated
    # node must stay silent forever.
    w = init_world(cfg, seed=4)
    apply_action(w, ExecutedAction("rotate_address", ActionEffect.ROTATE_ADDRESS, "db-0"))
    apply_action(w, ExecutedAction("restrict_comms_inbound",
                                   ActionEffect.RESTRICT_COMMS_INBOUND))
    for _ in range(100):
        for ev in step_world(w):
            assert not (ev.node == "db-0" and ev.truth_malicious)

    # With recon open, events on the node may only resume after its
    # fresh address enters the campaign's knowledge.
    w = init_world(cfg, seed=4)
    apply_action(w, ExecutedAction("rotate_address", ActionEffect.ROTATE_ADDRESS, "db-0"))
    fresh = w.node("db-0").address
    for _ in range(200):
        known_before = fresh in w.campaign_known_tokens("apt-0")
        for ev in step_world(w):
            if ev.node == "db-0" and ev.truth_malicious:
                assert known_before


def test_compromise_then_restore_clears_foothold():
    cfg = make_config(world={
        "capacity": 100,
        "database": {"count": 3, "cost": 10},
        "application": {"count": 3, "cost": 10},
        "web": {"count": 3, "cost": 10},
        "honeypot": {"count": 0, "cost": 10},
        "p_detect": 0.0,
        "hits_to_compromise": 2,
        "campaigns": [{"id": "apt-0", "intensity": 1.0, "known_nodes": ["db-0"]}],
        **quiet_world(),
    })
    w = init_world(cfg, seed=6)
    compromised_at = None
    for t in range(20):
        for ev in step_world(w):
            if ev.kind is EventKind.UNAUTHORIZED_ACCESS and ev.truth_malicious:
                compromised_at = t
        if compromised_at is not None:
            break
    assert compromised_at is not None
    node = w.node("db-0")
    assert node.status is NodeStatus.COMPROMISED
    assert not node.integrity_ok
    step_world(w)  # the stored phase is re-derived on the next turn
    assert w.campaign_phase("apt-0").label == "lateral"

    apply_action(w, ExecutedAction("restore_known_good",
                                   ActionEffect.RESTORE_KNOWN_GOOD, "db-0"))
    node = w.node("db-0")
    assert node.status is NodeStatus.RUNNING
    assert node.integrity_ok
    step_world(w)
    assert w.campaign_phase("apt-0").label != "lateral"
    w.check_invariants()


def test_resource_conservation_over_random_walk():
    cfg = make_config(world={
        "capacity": 150,
        "database": {"count": 2, "cost": 10},
        "application": {"count": 2, "cost": 12},
        "web": {"count": 2, "cost": 8},
        "honeypot": {"count": 1, "cost": 7},
        "campaigns": [{"id": "apt-0", "intensity": 0.8}],
    })
    w = init_world(cfg, seed=8)
    actions = [
        ExecutedAction("start_honeypot", ActionEffect.START_HONEYPOT),
        ExecutedAction("stop_honeypot", ActionEffect.STOP_HONEYPOT, "hp-0"),
        ExecutedAction("quarantine_node", ActionEffect.QUARANTINE_NODE, "db-0"),
        ExecutedAction("restore_known_good", ActionEffect.RESTORE_KNOWN_GOOD, "db-0"),
        ExecutedAction("rotate_address", ActionEffect.ROTATE_ADDRESS, "web-1"),
        ExecutedAction("deploy_dummy_files", ActionEffect.DEPLOY_DUMMY_FILES, "app-0"),
        ExecutedAction("quarantine_file", ActionEffect.QUARANTINE_FILE, "app-1"),
        ExecutedAction("stop_real_vm", ActionEffect.STOP_REAL_VM, "db-1"),
        ExecutedAction("start_real_vm", ActionEffect.START_REAL_VM, "db-1"),
    ]
    rng = random.Random(99)
    for _ in range(400):
        if rng.random() < 0.5:
            step_world(w)
        else:
            try:
                apply_action(w, rng.choice(actions))
            except (IllegalTransition, InsufficientResources, NoSuchNode):
                pass
        w.check_invariants()
        assert 0 <= w.pool.used <= w.pool.capacity


def test_seeded_determinism_event_log_bytes():
    cfg = make_config(world={
        "capacity": 120,
        "database": {"count": 2, "cost": 10},
        "application": {"count": 3, "cost": 10},
        "web": {"count": 2, "cost": 10},
        "honeypot": {"count": 2, "cost": 10},
        "campaigns": [
            {"id": "apt-0", "intensity": 0.7},
            {"id": "apt-1", "intensity": 0.3, "activation_tick": 40},
        ],
    })
    logs = []
    for _ in range(2):
        w = init_world(cfg, seed=77)
        logs.append(serialize_events(
            [ev for _ in range(300) for ev in step_world(w)]))
    assert logs[0] == logs[1]


def test_campaign_only_traffic_is_all_truth_tagged():
    # Dual of the zero-campaign check: with no real serving nodes there
    # is no benign traffic, so every event must be attacker-caused.
    cfg = make_config(world={
        "capacity": 40,
        "database": {"count": 0, "cost": 10},
        "application": {"count": 0, "cost": 10},
        "web": {"count": 0, "cost": 10},
        "honeypot": {"count": 2, "cost": 10},
        "campaigns": [{"id": "apt-0", "intensity": 1.0,
                       "known_nodes": ["hp-0", "hp-1"]}],
    })
    w = init_world(cfg, seed=12)
    seen = 0
    for _ in range(200):
        for ev in step_world(w):
            assert ev.truth_malicious
            seen += 1
    assert seen > 0


def test_compromise_does_not_change_pool_telemetry():
    # Running -> Compromised must be invisible in the resource pool,
    # otherwise the agent could read ground truth off used/available.
    cfg = make_config(world={
        "capacity": 100,
        "database": {"count": 3, "cost": 10},
        "application": {"count": 3, "cost": 10},
        "web": {"count": 3, "cost": 10},
        "honeypot": {"count": 0, "cost": 10},
        "p_detect": 0.0,
        "hits_to_compromise": 1,
        "campaigns": [{"id": "apt-0", "intensity": 1.0, "known_nodes": ["db-0"]}],
        **quiet_world(),
    })
    w = init_world(cfg, seed=10)
    used_before = w.pool.used
    step_world(w)
    assert w.node("db-0").status is NodeStatus.COMPROMISED
    assert w.pool.used == used_before
    w.check_invariants()
