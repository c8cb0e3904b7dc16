"""A subgroup lives in its parent's element indices, with no relabelled copy.

Every character routine reads a `Subgroup` in the same indices as its parent
group, so no translation between two coordinate systems is needed.  This
reads the package with `ast` and fails while the name `to_local`, a map
into a relabelled copy, appears anywhere in it, or while `class Subgroup`
calls `FiniteGroup(`, which would build such a copy.

A subgroup is also the same record as a group: `Subgroup` subclasses
`FiniteGroup` and declares no slots and no `__setattr__` of its own, no
annotation reads `FiniteGroup | Subgroup`, and the field setters `_freeze`
and `cyclotomic._fill` stay gone.  A cyclotomic value has one power map:
`Cyclo.galois` and `Cyclo.to_conductor` hold no loop of their own.
"""

import ast
from pathlib import Path

import pytest

import weightdescent
from weightdescent.charconj.campaigns import SUITE_NAMES, suite_groups
from weightdescent.charconj.groups import FiniteGroup, generated_subgroup

PACKAGE = Path(weightdescent.__file__).parent
LOOPS = (ast.For, ast.While, ast.comprehension)


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


def _classes(name: str) -> list[ast.ClassDef]:
    return [
        node
        for tree in _trees().values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == name
    ]


def _methods(cls: ast.ClassDef) -> dict[str, ast.FunctionDef]:
    return {node.name: node for node in cls.body if isinstance(node, ast.FunctionDef)}


def _annotations(tree: ast.Module) -> list[ast.expr]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            found += [a.annotation for a in every if a is not None and a.annotation]
            found += [node.returns] if node.returns else []
        elif isinstance(node, ast.AnnAssign):
            found.append(node.annotation)
    return found


def _union_names(node: ast.expr) -> set[str]:
    """The names joined by `|` at the top of an annotation, which may be
    written as a string."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return _union_names(ast.parse(node.value, mode="eval").body)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _union_names(node.left) | _union_names(node.right)
    return {node.id} if isinstance(node, ast.Name) else set()


def test_subgroup_builds_no_group_of_its_own():
    classes = _classes("Subgroup")
    assert len(classes) == 1
    calls = [
        node.lineno
        for node in ast.walk(classes[0])
        if isinstance(node, ast.Call)
        and isinstance(node.func, (ast.Name, ast.Attribute))
        and (node.func.id if isinstance(node.func, ast.Name) else node.func.attr) == "FiniteGroup"
    ]
    assert calls == []


def test_a_subgroup_is_a_group_record():
    [cls] = _classes("Subgroup")
    assert [ast.unparse(base) for base in cls.bases] == ["FiniteGroup"]
    slots = [
        node.value
        for node in cls.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets)
    ]
    assert all(isinstance(v, ast.Tuple) and not v.elts for v in slots)
    assert "__setattr__" not in _methods(cls)


def test_no_annotation_joins_group_and_subgroup():
    joined = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path, tree in _trees().items()
        for node in _annotations(tree)
        if {"FiniteGroup", "Subgroup"} <= _union_names(node)
    ]
    assert joined == []


def test_the_removed_field_setters_stay_gone():
    defined = {
        (path.name, node.name)
        for path, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    assert [d for d in defined if d[1] == "_freeze" or d == ("cyclotomic.py", "_fill")] == []


def test_galois_and_embedding_share_one_power_map():
    [cls] = _classes("Cyclo")
    methods = _methods(cls)
    loops = [
        f"{name}:{node.lineno}"
        for name in ("galois", "to_conductor")
        for node in ast.walk(methods[name])
        if isinstance(node, LOOPS)
    ]
    assert loops == []


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_every_generated_subgroup_is_a_group_record(name):
    group = suite_groups((name,))[name]
    for gens in [[], *([g] for g in group.elements), list(group.elements)]:
        assert isinstance(generated_subgroup(group, gens), FiniteGroup)
