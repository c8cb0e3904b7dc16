"""Every public function, class and method of the runtime has a caller in it.

A public name that only tests reach is API kept alive for its tests.  This
reads the package and the benchmark child with `ast` and fails while a
public top-level function or class, or a public method of a top-level class,
is referenced nowhere in them.  A top-level name counts as referenced as a
name, an attribute, an imported name or alias, or a string constant (the
benchmark child patches functions by their names as strings).  A method
counts only as an attribute or a string constant: a bare name that matches
it is some other variable, such as a parameter called `scale` beside a dead
`ClassFunction.scale`.  Tests are not read, so a test cannot keep a name
alive.
"""

import ast
from pathlib import Path

import weightdescent

PACKAGE = Path(weightdescent.__file__).parent
CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def public_definitions(path: Path, tree: ast.Module) -> list[tuple[str, str, bool]]:
    """(name, where, is_method) for each public top-level definition and
    public method."""
    found = []
    for node in tree.body:
        if isinstance(node, DEFINITIONS) and not node.name.startswith("_"):
            found.append((node.name, f"{path.name}:{node.lineno}", False))
        if isinstance(node, ast.ClassDef):
            found += [
                (item.name, f"{path.name}:{item.lineno} ({node.name}.{item.name})", True)
                for item in node.body
                if isinstance(item, DEFINITIONS) and not item.name.startswith("_")
            ]
    return found


def references(tree: ast.Module) -> tuple[set[str], set[str]]:
    """(bare names and imported names, attributes and string constants)."""
    bare, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            bare.add(node.id)
        elif isinstance(node, ast.alias):
            bare.update(filter(None, (node.name, node.asname)))
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            attributes.add(node.value)
    return bare, attributes


def unreferenced(trees: dict[Path, ast.Module]) -> list[str]:
    """Where each public definition in `trees` that none of them reaches is
    defined."""
    bare, attributes = set(), set()
    for tree in trees.values():
        b, a = references(tree)
        bare |= b
        attributes |= a
    return [
        where
        for path, tree in trees.items()
        for name, where, is_method in public_definitions(path, tree)
        if name not in attributes and (is_method or name not in bare)
    ]


def test_no_public_name_is_reached_only_by_tests():
    paths = sorted(PACKAGE.rglob("*.py")) + [CHILD]
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    assert sum(len(public_definitions(path, tree)) for path, tree in trees.items()) >= 50
    assert unreferenced(trees) == []


def test_a_method_matched_only_by_a_bare_name_is_unreferenced():
    source = (
        "class ClassFunction:\n"
        "    def scale(self, c):\n"
        "        return c\n"
        "    def galois(self, j):\n"
        "        return j\n"
        "def weighted_sum(terms, scale):\n"
        "    return scale * ClassFunction().galois(terms)\n"
        "def entry():\n"
        "    return weighted_sum\n"
    )
    assert unreferenced({Path("m.py"): ast.parse(source)}) == [
        "m.py:2 (ClassFunction.scale)", "m.py:8",
    ]
