"""One canonical JSON encoder and one SHA-256 call in src/honeysim/.

Trace lines, the config digest, the pattern-table digest and the sealed
ruleset's bytes are all canonical JSON: sorted keys, compact separators.
The scan finds each module that builds such an encoder (`json.JSONEncoder`,
`json.dumps` or `json.dump` given `sort_keys=True` and the separators
(",", ":")) and each that calls `hashlib.sha256`. Each rule has one home,
so a second statement of it cannot drift from the first.
"""

import ast
import pathlib

import honeysim

SRC = pathlib.Path(honeysim.__file__).parent

# The module that states both rules.
HOME = "trace"


def _modules():
    """(dotted module name, parsed tree) of each module in the package."""
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        yield module, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _called(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _builds_canonical_encoder(call: ast.Call) -> bool:
    if _called(call) not in ("JSONEncoder", "dumps", "dump"):
        return False
    keywords = {kw.arg: kw.value for kw in call.keywords}
    sort_keys, separators = keywords.get("sort_keys"), keywords.get("separators")
    return (isinstance(sort_keys, ast.Constant) and sort_keys.value is True
            and isinstance(separators, ast.Tuple)
            and [getattr(item, "value", None) for item in separators.elts] == [",", ":"])


def _calls_sha256(call: ast.Call) -> bool:
    if _called(call) == "sha256":
        return True
    # hashlib.new("sha256", ...)
    return (_called(call) == "new" and bool(call.args)
            and isinstance(call.args[0], ast.Constant) and call.args[0].value == "sha256")


def modules_where(predicate) -> set:
    return {module for module, tree in _modules()
            for node in ast.walk(tree) if isinstance(node, ast.Call) and predicate(node)}


def test_exactly_one_module_builds_a_canonical_json_encoder():
    assert modules_where(_builds_canonical_encoder) == {HOME}


def test_exactly_one_module_calls_sha256():
    assert modules_where(_calls_sha256) == {HOME}


def test_the_scan_sees_a_copy():
    copy = ast.parse('json.dumps(x, sort_keys=True, separators=(",", ":"))\n'
                     'hashlib.sha256(b"").hexdigest()\n'
                     'json.dumps(x, sort_keys=True, indent=1)\n')
    calls = [node for node in ast.walk(copy) if isinstance(node, ast.Call)]
    assert [_builds_canonical_encoder(call) for call in calls].count(True) == 1
    assert [_calls_sha256(call) for call in calls].count(True) == 1
