"""The per-tick kernel surface carries no dead weight, and its draws are
splitmix64's.

honeysim._kernels.pure is the only kernel. Every public CoreWorld method
is called from outside the kernel package, and every attribute its
__init__ sets is read somewhere in the package, so the kernel holds no
method and no state that nothing uses.

Stream computes its draws a block at a time; a scalar splitmix64 that
makes one output per call is the oracle for every value and its order,
across block edges and between streams. The finalizer's constants are
stated once in the package, so mix64 and the block generator read the
same ones.
"""

import ast
import pathlib
import random
import re

import pytest

import honeysim
from honeysim._kernels import pure

from oracles import ScalarSplitMix64

SEEDS = [0, 1, -1, 2**63, 2**64 - 1, 2**64 + 5]

# splitmix64's increment and its finalizer's two multipliers.
SPLITMIX64_CONSTANTS = (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB)


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _read_attributes(tree):
    """Names read as `obj.name` in a module. A store into `obj.name[i]`
    or a `del obj.name[i]` writes the container, so it is not a read."""
    written = {id(node.value) for node in ast.walk(tree)
               if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load)}
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and id(node) not in written}


def test_every_public_kernel_method_is_called():
    # A kernel method that nothing outside the kernels calls is dead code.
    package = pathlib.Path(pure.__file__).parent.parent
    sources = [path for path in package.rglob("*.py") if "_kernels" not in path.parts]
    sources += pathlib.Path(__file__).parent.glob("*.py")
    text = "\n".join(path.read_text(encoding="utf-8") for path in sources)
    public = {name for name, member in vars(pure.CoreWorld).items()
              if callable(member) and not name.startswith("_")}
    assert {name for name in public if not re.search(rf"\.{name}\(", text)} == set()


def test_no_kernel_state_is_write_only():
    # An attribute that CoreWorld sets and nothing reads looks like it
    # acts on the run and does not.
    kernel = pathlib.Path(pure.__file__)
    core_world = next(node for node in _parse(kernel).body
                      if isinstance(node, ast.ClassDef) and node.name == "CoreWorld")
    init = next(node for node in core_world.body
                if isinstance(node, ast.FunctionDef) and node.name == "__init__")
    assigned = {node.attr for node in ast.walk(init)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == "self"}
    assert assigned
    package = kernel.parent.parent
    read = set().union(*(_read_attributes(_parse(path)) for path in package.rglob("*.py")))
    assert assigned - read == set()


def _mixed_draws(count, seed):
    """`count` (method name, arguments) pairs over all four draw methods."""
    rng = random.Random(seed)
    draws = []
    for _ in range(count):
        how = rng.choice(("next_u64", "uniform", "randrange", "below"))
        args = {"randrange": (rng.randrange(1, 1000),), "below": (rng.random(),)}.get(how, ())
        draws.append((how, args))
    return draws


@pytest.mark.parametrize("seed", SEEDS)
def test_stream_draws_what_scalar_splitmix64_draws(seed):
    # 1,100 mixed draws span five blocks, so every draw at and around a
    # block edge (255, 256, 257, 511, ...) is compared.
    stream, oracle = pure.Stream(seed), ScalarSplitMix64(seed)
    for how, args in _mixed_draws(1100, seed & 0xFFFF):
        assert getattr(stream, how)(*args) == getattr(oracle, how)(*args)


@pytest.mark.parametrize("skipped", [pure.BLOCK - 1, pure.BLOCK, pure.BLOCK + 1])
def test_the_draws_after_a_block_edge_continue_the_sequence(skipped):
    stream, oracle = pure.Stream(99), ScalarSplitMix64(99)
    for _ in range(skipped):
        stream.uniform()
        oracle.uniform()
    assert [stream.next_u64() for _ in range(3)] == [oracle.next_u64() for _ in range(3)]


def test_streams_drawn_alternately_do_not_disturb_each_other():
    streams = [pure.Stream(7), pure.Stream(8)]
    oracles = [ScalarSplitMix64(7), ScalarSplitMix64(8)]
    rng = random.Random(3)
    for turn in range(60):
        # Runs of uneven length, so each stream meets its block edges
        # while the other is part way into a block.
        stream, oracle = streams[turn % 2], oracles[turn % 2]
        for how, args in _mixed_draws(rng.randrange(1, 40), turn):
            assert getattr(stream, how)(*args) == getattr(oracle, how)(*args)


@pytest.mark.parametrize("seed", SEEDS + [12345, 2**64 + 2**63])
def test_mix64_is_a_streams_first_draw(seed):
    assert pure.mix64(seed) == pure.Stream(seed).next_u64() == ScalarSplitMix64(seed).next_u64()


def _constants_in(tree):
    return [node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value in SPLITMIX64_CONSTANTS]


def test_each_splitmix64_constant_is_stated_once():
    # mix64 and the block generator read one statement of each constant,
    # so neither can drift from the other.
    package = pathlib.Path(honeysim.__file__).parent
    found = [value for path in sorted(package.rglob("*.py"))
             for value in _constants_in(_parse(path))]
    assert sorted(found) == sorted(SPLITMIX64_CONSTANTS)


def test_the_constant_scan_sees_a_copy():
    # Spelled in hex or in decimal, a literal is the same constant.
    copy = ast.parse("z = (z ^ (z >> 27)) * 0x94D049BB133111EB\n"
                     f"m = {0xBF58476D1CE4E5B9}\n")
    assert sorted(_constants_in(copy)) == sorted(SPLITMIX64_CONSTANTS[1:])
