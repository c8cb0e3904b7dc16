"""Every package name the benchmark child reaches must still exist.

`perfbench/child.py` patches package functions by name for its traced run,
reads attributes of their results, and calls a few functions directly in its
layer probes.  A deletion from the package that one of these names still
needs would only show when the benchmark runs, so this test reads the child
with `ast` (without importing or editing it) and resolves each name on the
package: the benchmark has to stop using a name before the package drops it.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import typing
from pathlib import Path

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
PROBED_MODULES = ("descent", "primes", "campaigns")


def _tree() -> ast.Module:
    return ast.parse(CHILD.read_text(encoding="utf-8"), filename=str(CHILD))


def _module_aliases(tree: ast.Module) -> dict[str, str]:
    """Local name -> dotted package module, from the child's imports."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("weightdescent"):
                    aliases[a.asname or a.name] = a.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("weightdescent"):
            for a in node.names:
                aliases[a.asname or a.name] = f"{node.module}.{a.name}"
    return aliases


def _strings(node: ast.expr, loops: dict[str, tuple[str, ...]]) -> list[str]:
    """The strings an attribute-name argument can take: a literal, a loop
    variable over a literal tuple, or an f-string over such variables."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.Name) and node.id in loops:
        return list(loops[node.id])
    if isinstance(node, ast.JoinedStr):
        out = [""]
        for part in node.values:
            choices = [part.value] if isinstance(part, ast.Constant) else _strings(part.value, loops)
            out = [o + c for o in out for c in choices]
        return out
    raise AssertionError(f"child.py:{node.lineno}: cannot resolve a patched attribute name")


def _result_attrs(node: ast.expr | None) -> list[str]:
    """Attributes the child reads off a patched function's result:
    `count("attr")` or `result.attr` inside a lambda."""
    if node is None:
        return []
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "count":
        return [node.args[0].value]
    return [
        n.attr for n in ast.walk(node)
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "result"
    ]


def _patch_targets(tree: ast.Module) -> list[tuple[str, str, list[str], int]]:
    """(module alias, attribute, result attributes read, line) per patched name."""
    targets = []

    def visit(node: ast.AST, loops: dict[str, tuple[str, ...]]) -> None:
        if (isinstance(node, ast.For) and isinstance(node.target, ast.Name)
                and isinstance(node.iter, ast.Tuple)
                and all(isinstance(e, ast.Constant) for e in node.iter.elts)):
            loops = {**loops, node.target.id: tuple(e.value for e in node.iter.elts)}
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "patch" and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "tracer"):
            module = node.args[0].id
            reads = _result_attrs(node.args[3] if len(node.args) > 3 else None)
            for attr in _strings(node.args[1], loops):
                targets.append((module, attr, reads, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, loops)

    visit(tree, {})
    return targets


def _probe_uses(tree: ast.Module) -> list[tuple[str, str, int | None, int]]:
    """(module alias, attribute, positional argument count or None, line) for
    each package attribute `_layer_probes` reads; the count is given when it
    calls the attribute."""
    probes = next(
        n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "_layer_probes"
    )
    calls = {
        id(n.func): len(n.args) for n in ast.walk(probes)
        if isinstance(n, ast.Call) and not any(isinstance(a, ast.Starred) for a in n.args)
    }
    return [
        (n.value.id, n.attr, calls.get(id(n)), n.lineno) for n in ast.walk(probes)
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
        and n.value.id in PROBED_MODULES
    ]


def _has_attr(cls, name: str) -> bool:
    if dataclasses.is_dataclass(cls) and name in {f.name for f in dataclasses.fields(cls)}:
        return True
    return hasattr(cls, name)


def test_the_child_is_parsed_into_names():
    tree = _tree()
    assert {"cli", "descent", "gaps", "primes", "campaigns"} <= set(_module_aliases(tree))
    patched = {(m, a) for m, a, _, _ in _patch_targets(tree)}
    assert ("cli", "mackey_campaign") in patched and ("campaigns", "induce") in patched
    assert {m for m, _, _, _ in _probe_uses(tree)} == set(PROBED_MODULES)


def test_every_patched_name_resolves():
    tree = _tree()
    aliases = _module_aliases(tree)
    missing = []
    for module, attr, reads, line in _patch_targets(tree):
        fn = getattr(importlib.import_module(aliases[module]), attr, None)
        if fn is None:
            missing.append(f"child.py:{line}: {aliases[module]}.{attr}")
            continue
        if reads:
            result = typing.get_type_hints(fn).get("return")
            missing += [
                f"child.py:{line}: {getattr(result, '__name__', result)}.{r} (result of {attr})"
                for r in reads if result is None or not _has_attr(result, r)
            ]
    assert missing == []


def test_every_probed_name_resolves_and_takes_its_arguments():
    tree = _tree()
    aliases = _module_aliases(tree)
    problems = []
    for module, attr, nargs, line in _probe_uses(tree):
        obj = getattr(importlib.import_module(aliases[module]), attr, None)
        if obj is None:
            problems.append(f"child.py:{line}: {aliases[module]}.{attr} is missing")
        elif nargs is not None:
            try:
                inspect.signature(obj).bind(*[None] * nargs)
            except TypeError as exc:
                problems.append(f"child.py:{line}: {aliases[module]}.{attr}: {exc}")
    assert problems == []

