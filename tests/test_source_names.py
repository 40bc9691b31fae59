"""Every module-level private name in the package is used by the package.

A helper, constant or pattern whose last caller is deleted is a leftover;
this gate finds it by reading the source, so it needs no coverage run.  A
name counts as used when some module of `src/zzl/` loads it, reads it as
an attribute or imports it."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "zzl"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _definitions(tree: ast.Module) -> list[str]:
    """The private names a module binds at its top level."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names += [n.id for n in ast.walk(target) if isinstance(n, ast.Name)]
    return [name for name in names if _private(name)]


def _uses(tree: ast.Module) -> set[str]:
    """Every name a module loads, reads as an attribute or imports."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_every_private_module_name_is_used():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}
    used = set().union(*map(_uses, trees.values()))
    unused = [
        f"{module}: {name}" for module, tree in trees.items() for name in _definitions(tree)
        if name not in used
    ]
    assert not unused, f"defined but never used in src/zzl: {unused}"


def test_the_gate_sees_a_leftover():
    tree = ast.parse("_used = 1\n_left = 2\n\ndef _helper():\n    return _used\n")
    assert _definitions(tree) == ["_used", "_left", "_helper"]
    assert {"_used"} <= _uses(tree) and not {"_left", "_helper"} & _uses(tree)
