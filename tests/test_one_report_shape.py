"""Every report renders to JSON through `cli.canonical_json` alone.

A report is a dataclass whose field names are its JSON keys, and the writer
works out those keys once per class, so no class in the runtime needs a
serializer of its own.  This reads each module with
`ast` and fails while any class defines `to_dict`, so that a second
rendering of the same report cannot come back.
"""

import ast
from pathlib import Path

import weightdescent

PACKAGE = Path(weightdescent.__file__).parent


def classes_defining(method: str, path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        f"{node.name} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(
            isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and item.name == method
            for item in node.body
        )
    ]


def test_no_class_defines_its_own_to_dict():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 10
    found = {str(path.relative_to(PACKAGE)): classes_defining("to_dict", path) for path in modules}
    assert {name: classes for name, classes in found.items() if classes} == {}
