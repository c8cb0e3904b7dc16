"""A subgroup lives in its parent's element indices, with no relabelled copy.

Every character routine reads a `Subgroup` in the same indices as its parent
group, so no translation between two coordinate systems is needed.  This
reads the package with `ast` and fails while the name `to_local`, a map
into a relabelled copy, appears anywhere in it, or while `class Subgroup`
calls `FiniteGroup(`, which would build such a copy.
"""

import ast
from pathlib import Path

import weightdescent

PACKAGE = Path(weightdescent.__file__).parent


def _trees() -> dict[Path, ast.Module]:
    paths = sorted(PACKAGE.rglob("*.py"))
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}


def _identifiers(node: ast.AST) -> set[str]:
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        elif isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.add(n.name)
        elif isinstance(n, ast.arg):
            found.add(n.arg)
        elif isinstance(n, ast.keyword) and n.arg:
            found.add(n.arg)
        elif isinstance(n, ast.alias):
            found.update(filter(None, (n.name, n.asname)))
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            found.add(n.value)
    return found


def test_no_map_into_a_relabelled_copy():
    trees = _trees()
    assert trees
    assert [str(path.relative_to(PACKAGE)) for path, tree in trees.items()
            if "to_local" in _identifiers(tree)] == []


def test_subgroup_builds_no_group_of_its_own():
    classes = [
        node
        for tree in _trees().values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == "Subgroup"
    ]
    assert len(classes) == 1
    calls = [
        node.lineno
        for node in ast.walk(classes[0])
        if isinstance(node, ast.Call)
        and isinstance(node.func, (ast.Name, ast.Attribute))
        and (node.func.id if isinstance(node.func, ast.Name) else node.func.attr) == "FiniteGroup"
    ]
    assert calls == []
