"""Every function and class in src/honeysim/ is reached from the program.

A def that no other code in the package names serves only the tests, or
nothing: it is code a reader must keep in mind and a run never uses.
The scan is by name, so it finds a def that no `Name` or `Attribute`
outside the def itself mentions; a name shared with a used def hides it.
"""

import ast
import collections
import pathlib

import honeysim

SRC = pathlib.Path(honeysim.__file__).parent

# Each def that the package names nowhere else, and why it stays. The
# list holds exactly the defs the scan finds, so it shrinks when one goes.
UNREFERENCED = {
    "sensing.collect": "the benchmark's span timers wrap it",
    "sensing.anomaly_score": "the benchmark's span timers wrap it",
    "sensing.update_baseline": "the benchmark's span timers wrap it",
    "agent.accumulate_reward_inputs": "the benchmark's span timers wrap it",
    "world.WorldState.check_invariants": "the world's invariant oracle for tests",
    "trace.parse": "the benchmark's span timers wrap it",
}


def _defs(tree, prefix):
    """(qualified name, node) of each non-dunder def and class in a module."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}.{node.name}"
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield name, node
            yield from _defs(node, name)


def _mentions(tree) -> collections.Counter:
    """How often each name is mentioned as a `Name` or an `Attribute`."""
    return collections.Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def unreferenced_defs() -> set:
    trees = {}
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        trees[module.removesuffix(".__init__")] = ast.parse(
            path.read_text(encoding="utf-8"), filename=str(path))
    mentions = sum((_mentions(tree) for tree in trees.values()), collections.Counter())
    return {name for module, tree in trees.items() for name, node in _defs(tree, module)
            if mentions[node.name] == _mentions(node)[node.name]}


def test_every_def_but_the_listed_ones_is_named_elsewhere_in_the_package():
    assert unreferenced_defs() == set(UNREFERENCED)
