"""Cross-backend equivalence: the compiled kernels must reproduce the
pure-Python reference draw for draw and byte for byte.

The backend is chosen once, when honeysim._kernels is imported. The
whole-run tests swap its entry points with the `use_backend` fixture,
so each side of a comparison runs on one backend throughout.
"""

import pathlib
import random
import re

import pytest

from conftest import make_config, random_event
from honeysim import _kernels
from honeysim._kernels import codes, pure
from honeysim.harness import RandomPolicy, run_scenario
from honeysim.world import init_world, step_world

try:
    from honeysim._kernels import _accel as accel
except ImportError:  # extension not built in this environment
    accel = None

needs_accel = pytest.mark.skipif(accel is None,
                                 reason="compiled extension not built")

ENTRY_POINTS = ("CoreWorld", "Stream", "tally", "mix64")
PYX = pathlib.Path(pure.__file__).with_name("_accel.pyx")


@pytest.fixture
def use_backend(monkeypatch):
    """Return a function that makes every kernel entry point, and the
    reported backend name, those of the given kernel module."""
    def use(impl):
        for name in ENTRY_POINTS:
            monkeypatch.setattr(_kernels, name, getattr(impl, name))
        monkeypatch.setattr(_kernels, "BACKEND", impl.IMPL)
    return use


def _pyx_class_defs(source, cls):
    """Names of the `def` methods in `cdef class cls` of a .pyx source."""
    body = re.search(rf"^cdef class {cls}\b[^\n]*\n(.*?)(?=^\S|\Z)", source,
                     re.M | re.S)
    assert body, f"_accel.pyx has no cdef class {cls}"
    return set(re.findall(r"^    def (\w+)\(", body.group(1), re.M))


@pytest.mark.parametrize("cls", ["CoreWorld", "Stream"])
def test_compiled_twin_defines_every_public_pure_method(cls):
    # Read from source, so the check holds where the extension is not built
    # and the parity tests below skip.
    source = PYX.read_text()
    public = {name for name, member in vars(getattr(pure, cls)).items()
              if callable(member) and not name.startswith("_")}
    assert public - _pyx_class_defs(source, cls) == set()


def test_every_public_kernel_method_is_called():
    # A kernel method that nothing outside the kernels calls is dead code
    # kept twice, once in each backend.
    package = pathlib.Path(pure.__file__).parent.parent
    sources = [path for path in package.rglob("*.py") if "_kernels" not in path.parts]
    sources += pathlib.Path(__file__).parent.glob("*.py")
    text = "\n".join(path.read_text(encoding="utf-8") for path in sources)
    public = {name for name, member in vars(pure.CoreWorld).items()
              if callable(member) and not name.startswith("_")}
    assert {name for name in public if not re.search(rf"\.{name}\(", text)} == set()


def test_compiled_twin_constants_match_codes():
    # The compiled twin restates the integer codes as C constants, named
    # after codes.py with a K_, S_, P_ or E_ prefix by group.
    constants = re.findall(r"^cdef int [KSPE]_(\w+) = (-?\d+)\s*$",
                           PYX.read_text(), re.M)
    assert constants, "_accel.pyx declares no code constants"
    assert {name: getattr(codes, name, None) for name, _ in constants} == \
           {name: int(value) for name, value in constants}


def test_backend_swap_reaches_every_entry_point(use_backend, monkeypatch):
    # The whole-run parity tests below compare backends by swapping the
    # attributes of honeysim._kernels. That only works while every caller
    # reads them from the module at call time.
    calls = dict.fromkeys(ENTRY_POINTS, 0)

    def counted(name):
        original = getattr(pure, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    spy = type("spy", (), {name: staticmethod(counted(name))
                           for name in ENTRY_POINTS})
    spy.IMPL = "spy"
    use_backend(spy)
    _report, lines = run_scenario(make_config(episode_ticks=40), 3, RandomPolicy())
    assert all(calls.values()), calls
    monkeypatch.undo()
    assert lines == run_scenario(make_config(episode_ticks=40), 3, RandomPolicy())[1]


@needs_accel
def test_stream_sequences_identical():
    for seed in (0, 1, 2**40 + 7, 2**63, 2**64 - 1):
        sp, sa = pure.Stream(seed), accel.Stream(seed)
        for _ in range(500):
            assert sp.next_u64() == sa.next_u64()
        for _ in range(500):
            assert sp.uniform() == sa.uniform()
        for n in range(1, 50):
            assert sp.randrange(n) == sa.randrange(n)
        for p in (0.0, 0.3, 0.999):
            assert sp.below(p) == sa.below(p)
        assert sp.state == sa.state


@needs_accel
def test_mix64_identical():
    rng = random.Random(1)
    values = [0, 1, 2**64 - 1] + [rng.getrandbits(64) for _ in range(200)]
    for x in values:
        assert pure.mix64(x) == accel.mix64(x)


@needs_accel
def test_tally_identical(rng):
    events = [random_event(rng) for _ in range(500)]
    assert pure.tally(events) == accel.tally(events)


def varied_config(rng):
    return make_config(world={
        "capacity": 200,
        "database": {"count": rng.randint(1, 3), "cost": rng.randint(5, 15)},
        "application": {"count": rng.randint(1, 3), "cost": rng.randint(5, 15)},
        "web": {"count": rng.randint(1, 3), "cost": rng.randint(5, 15)},
        "honeypot": {"count": rng.randint(0, 2), "cost": rng.randint(5, 15)},
        "campaigns": [
            {"id": f"apt-{k}", "intensity": rng.uniform(0.2, 1.0),
             "activation_tick": rng.choice([0, 0, 25])}
            for k in range(rng.randint(0, 3))
        ],
        "p_detect": rng.uniform(0.2, 1.0),
        "hits_to_compromise": rng.randint(1, 4),
    }, episode_ticks=150)


@needs_accel
def test_world_event_streams_identical_across_backends(use_backend):
    rng = random.Random(31337)
    for _ in range(10):
        cfg = varied_config(rng)
        seed = rng.getrandbits(63)
        use_backend(pure)
        wp = init_world(cfg, seed)
        use_backend(accel)
        wa = init_world(cfg, seed)
        assert (wp.backend_name, wa.backend_name) == ("pure", "compiled")
        for _ in range(150):
            assert step_world(wp) == step_world(wa)
        assert wp.nodes() == wa.nodes()
        assert [wp.campaign_known_tokens(c) for c in wp.campaign_ids] == \
               [wa.campaign_known_tokens(c) for c in wa.campaign_ids]


@needs_accel
def test_backends_agree_under_interleaved_actions(use_backend):
    # Covers the rarely-hit kernel branches: perimeter restriction,
    # rotation, quarantine, stop/start, decoy deployment.
    from honeysim.actions import ActionEffect
    from honeysim.errors import (IllegalTransition, InsufficientResources,
                                 NoSuchNode)
    from honeysim.world import ExecutedAction, apply_action

    rng = random.Random(4242)
    cfg = make_config(world={
        "capacity": 150,
        "database": {"count": 2, "cost": 10},
        "application": {"count": 2, "cost": 10},
        "web": {"count": 2, "cost": 10},
        "honeypot": {"count": 1, "cost": 10},
        "campaigns": [{"id": "apt-0", "intensity": 0.9},
                      {"id": "apt-1", "intensity": 0.5, "activation_tick": 30}],
        "hits_to_compromise": 2,
    })
    seed = 90125
    use_backend(pure)
    wp = init_world(cfg, seed)
    use_backend(accel)
    wa = init_world(cfg, seed)
    script = [
        ExecutedAction("rotate_address", ActionEffect.ROTATE_ADDRESS, "db-0"),
        ExecutedAction("restrict_comms_inbound", ActionEffect.RESTRICT_COMMS_INBOUND),
        ExecutedAction("quarantine_node", ActionEffect.QUARANTINE_NODE, "web-0"),
        ExecutedAction("start_honeypot", ActionEffect.START_HONEYPOT),
        ExecutedAction("stop_honeypot", ActionEffect.STOP_HONEYPOT, "hp-0"),
        ExecutedAction("deploy_dummy_files", ActionEffect.DEPLOY_DUMMY_FILES, "app-1"),
        ExecutedAction("restore_known_good", ActionEffect.RESTORE_KNOWN_GOOD, "web-0"),
        ExecutedAction("stop_real_vm", ActionEffect.STOP_REAL_VM, "db-1"),
        ExecutedAction("start_real_vm", ActionEffect.START_REAL_VM, "db-1"),
    ]
    for t in range(300):
        assert step_world(wp) == step_world(wa)
        if t % 7 == 0:
            action = rng.choice(script)
            results = []
            for w in (wp, wa):
                try:
                    results.append(("ok", apply_action(w, action).delta_resources))
                except (IllegalTransition, InsufficientResources, NoSuchNode) as exc:
                    results.append(("err", type(exc).__name__))
            assert results[0] == results[1]
    assert wp.nodes() == wa.nodes()
    assert wp.pool == wa.pool


@needs_accel
def test_full_runs_byte_identical_across_backends(use_backend):
    rng = random.Random(777)
    for _ in range(5):
        cfg = varied_config(rng)
        seed = rng.getrandbits(31)
        use_backend(pure)
        rep_p, lines_p = run_scenario(cfg, seed, RandomPolicy())
        use_backend(accel)
        rep_a, lines_a = run_scenario(cfg, seed, RandomPolicy())
        assert lines_p == lines_a
        assert rep_p == rep_a
