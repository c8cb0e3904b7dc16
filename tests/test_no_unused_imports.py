"""Every module of the runtime uses each name it imports.

No linter ships with the toolchain, so this reads each module with `ast`:
a name bound by `import` or `from ... import` must appear somewhere else in
the module as a name.  Package `__init__.py` files are skipped, since a
package may import a submodule only to make it an attribute.
"""

import ast
from pathlib import Path

import weightdescent

PACKAGE = Path(weightdescent.__file__).parent


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 10
    found = {str(path.relative_to(PACKAGE)): unused_imports(path) for path in modules}
    assert {name: names for name, names in found.items() if names} == {}
