"""The per-tick kernel surface carries no dead weight.

honeysim._kernels.pure is the only kernel. Every public CoreWorld method
is called from outside the kernel package, and every attribute its
__init__ sets is read somewhere in the package, so the kernel holds no
method and no state that nothing uses.
"""

import ast
import pathlib
import re

from honeysim._kernels import pure


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
