import functools
import json
import random

import pytest
from scipy.stats import binomtest

from conftest import make_config, quiet_world
from honeysim import config as config_mod
from honeysim import harness
from honeysim._kernels import codes
from honeysim.actions import ActionEffect
from honeysim.errors import IllegalTransition, InsufficientResources, NoSuchNode
from honeysim.world import (EventKind, ExecutedAction, NodeKind, NodeStatus,
                            apply_action, init_world, step_world)
from oracles import event_payload
from test_golden import REFERENCE


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
    return "\n".join(json.dumps(event_payload(ev), sort_keys=True) for ev in events)


def snapshot(world, node_id):
    """The snapshot of one resident node, as nodes() lists it."""
    return next(n for n in world.nodes() if n.id == node_id)


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
    assert w1.core.c_known == w2.core.c_known


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
    assert snapshot(w, "db-0").status is NodeStatus.RUNNING


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


def test_kept_serving_list_and_honeypot_count_follow_status_changes():
    # Quarantine and restore through apply_action are the only way a
    # resident honeypot leaves Running and returns (resolve_target never
    # picks one); stopping and restarting a real VM takes it out of the
    # serving list and back.
    w = init_world(hp_world(), seed=1)
    real = list(range(9))  # db-0..2, app-0..2, web-0..2; hp-0 is index 9

    def act(action_id, effect, target):
        apply_action(w, ExecutedAction(action_id, effect, target))
        w.check_invariants()
        return w.honeypots_active(), w.core.serving

    assert (w.honeypots_active(), w.core.serving) == (1, real)
    assert act("quarantine_node", ActionEffect.QUARANTINE_NODE, "hp-0") == (0, real)
    assert act("restore_known_good", ActionEffect.RESTORE_KNOWN_GOOD, "hp-0") == (1, real)
    assert act("stop_real_vm", ActionEffect.STOP_REAL_VM, "db-1") == \
        (1, [i for i in real if i != 1])
    assert act("start_real_vm", ActionEffect.START_REAL_VM, "db-1") == (1, real)


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
    # the honeypot after it moved down one index and is still addressable
    assert snapshot(w, "hp-1").status is NodeStatus.RUNNING
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
    assert snapshot(w, "hp-1").status is NodeStatus.RUNNING
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
    fresh = snapshot(w, "db-0").address
    for _ in range(200):
        known_before = fresh in w.core.c_known[0]
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
    node = snapshot(w, "db-0")
    assert node.status is NodeStatus.COMPROMISED
    assert not node.integrity_ok
    assert w.core._derive_phase(0) == codes.LATERAL

    apply_action(w, ExecutedAction("restore_known_good",
                                   ActionEffect.RESTORE_KNOWN_GOOD, "db-0"))
    node = snapshot(w, "db-0")
    assert node.status is NodeStatus.RUNNING
    assert node.integrity_ok
    assert w.core._derive_phase(0) != codes.LATERAL
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
    assert snapshot(w, "db-0").status is NodeStatus.COMPROMISED
    assert w.pool.used == used_before
    w.check_invariants()


# Benign draws: each knob is the per-tick chance of one truth-false event
# of its kind, drawn on every tick that some real node serves.
BENIGN_KNOBS = {"p_logline": EventKind.LOG_LINE,
                "p_false_ids": EventKind.IDS_ALERT,
                "p_false_antimalware": EventKind.ANTI_MALWARE_ALERT,
                "p_false_unauthorized": EventKind.UNAUTHORIZED_ACCESS}


@functools.lru_cache(maxsize=None)
def _benign_counts(ticks=20_000, seed=0):
    """(serving ticks, truth-false events per kind) of a world stepped
    alone, with no agent, on the reference scenario."""
    world = init_world(config_mod.load_file(REFERENCE), seed)
    trials = 0
    counts = dict.fromkeys(BENIGN_KNOBS.values(), 0)
    for _ in range(ticks):
        trials += bool(world.core.serving)
        for ev in step_world(world):
            if not ev.truth_malicious and ev.kind in counts:
                counts[ev.kind] += 1
    return trials, counts


@pytest.mark.parametrize("knob", sorted(BENIGN_KNOBS))
def test_benign_knob_yields_its_per_tick_rate(knob):
    trials, counts = _benign_counts()
    rate = getattr(config_mod.load_file(REFERENCE).world, knob)
    assert trials > 19_000  # the reference world keeps serving
    result = binomtest(counts[BENIGN_KNOBS[knob]], trials, rate)
    assert result.pvalue > 0.001, (knob, counts[BENIGN_KNOBS[knob]], trials, rate)


# Attacker draws: each knob is the chance of one truth-tagged event of its
# kind per trial, and the trials are read off the world stepped alone.
# - The detection sweep runs after the campaigns and moves no status or
#   integrity, so the nodes after a step are the nodes it swept: each one
#   neither stopped nor quarantined is an integrity trial if its integrity
#   is broken, and an anti-malware trial if it is compromised.
# - Each honeypot touch is one decoy-touch trial, as only honeypots hold
#   decoys here, and one dummy-process trial.
# - Each exploit of a real server is one detection trial: it raises an
#   IDS alert or else adds one to the node's progress, which nothing
#   lowers while no agent acts.
ATTACKER_KNOBS = {"p_integrity_alert": EventKind.FILE_INTEGRITY_VIOLATION,
                  "p_antimalware_alert": EventKind.ANTI_MALWARE_ALERT,
                  "p_decoy_touch": EventKind.DUMMY_FILE_ACCESS,
                  "p_dummy_process": EventKind.DUMMY_PROCESS_ALERT,
                  "p_detect": EventKind.IDS_ALERT}


@functools.lru_cache(maxsize=None)
def _attacker_counts(seeds=range(10), ticks=2000):
    """{knob: (successes, trials)} pooled over reference worlds stepped
    alone, one per seed. Exploits end once every real server is owned,
    after about 90 detection trials a seed, so several seeds are pooled."""
    knob_of = {kind: knob for knob, kind in ATTACKER_KNOBS.items()}
    successes = dict.fromkeys(ATTACKER_KNOBS, 0)
    trials = dict.fromkeys(ATTACKER_KNOBS, 0)
    config = config_mod.load_file(REFERENCE)
    for seed in seeds:
        world = init_world(config, seed)
        core = world.core
        assert [d > 0 for d in core.decoys] == [k == codes.HONEYPOT for k in core.kinds]
        for _ in range(ticks):
            for ev in step_world(world):
                if not ev.truth_malicious:
                    continue
                if ev.kind in knob_of:
                    successes[knob_of[ev.kind]] += 1
                elif ev.kind is EventKind.HONEY_TOUCH:
                    trials["p_decoy_touch"] += 1
                    trials["p_dummy_process"] += 1
            for status, intact in zip(core.statuses, core.integrity):
                if status != codes.STOPPED and status != codes.QUARANTINED:
                    trials["p_integrity_alert"] += not intact
                    trials["p_antimalware_alert"] += status == codes.COMPROMISED
        trials["p_detect"] += sum(core.progress)
    trials["p_detect"] += successes["p_detect"]
    return {knob: (successes[knob], trials[knob]) for knob in ATTACKER_KNOBS}


@pytest.mark.parametrize("knob", sorted(ATTACKER_KNOBS))
def test_attacker_knob_yields_its_rate_per_trial(knob):
    successes, trials = _attacker_counts()[knob]
    rate = getattr(config_mod.load_file(REFERENCE).world, knob)
    assert trials > 500
    result = binomtest(successes, trials, rate)
    assert result.pvalue > 0.001, (knob, successes, trials, rate)
