"""The runtime imports nothing beyond the standard library and itself."""

import ast
import sys
from pathlib import Path

import weightdescent

PACKAGE = Path(weightdescent.__file__).parent


def absolute_imports(path: Path) -> set[str]:
    tops = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            tops.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            tops.add(node.module.split(".")[0])
    return tops


def test_every_module_imports_only_the_stdlib():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 10
    allowed = sys.stdlib_module_names | {"weightdescent"}
    offending = {
        str(path.relative_to(PACKAGE)): sorted(absolute_imports(path) - allowed)
        for path in modules
    }
    assert {name: tops for name, tops in offending.items() if tops} == {}
