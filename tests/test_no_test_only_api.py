"""Every public function, class and method of the runtime has a caller in it.

A public name that only tests reach is API kept alive for its tests.  This
reads the package and the benchmark child with `ast` and fails while a
public top-level function or class, or a public method of a top-level class,
is referenced nowhere in them: not as a name, an attribute, an imported name
or alias, nor as a string constant (the benchmark child patches functions by
their names as strings).  Tests are not read, so a test cannot keep a name
alive.
"""

import ast
from pathlib import Path

import weightdescent

PACKAGE = Path(weightdescent.__file__).parent
CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def public_definitions(path: Path, tree: ast.Module) -> list[tuple[str, str]]:
    """(name, where) for each public top-level definition and public method."""
    found = []
    for node in tree.body:
        if isinstance(node, DEFINITIONS) and not node.name.startswith("_"):
            found.append((node.name, f"{path.name}:{node.lineno}"))
        if isinstance(node, ast.ClassDef):
            found += [
                (item.name, f"{path.name}:{item.lineno} ({node.name}.{item.name})")
                for item in node.body
                if isinstance(item, DEFINITIONS) and not item.name.startswith("_")
            ]
    return found


def references(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(filter(None, (node.name, node.asname)))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_no_public_name_is_reached_only_by_tests():
    paths = sorted(PACKAGE.rglob("*.py")) + [CHILD]
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    defined = [d for path, tree in trees.items() for d in public_definitions(path, tree)]
    assert len(defined) >= 50
    used = set().union(*map(references, trees.values()))
    assert [where for name, where in defined if name not in used] == []
