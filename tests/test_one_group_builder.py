"""One builder tabulates the builtin groups: `groups._from_rule`.

Each builtin group is an ordered element list and a product rule, and
`_from_rule` turns the pair into a table; `load_group` takes its table from a
group file.  This reads `charconj/groups.py` with `ast` and fails while any
other function calls `FiniteGroup(`, so that a hand-written table loop cannot
come back, or while a builtin is built without `_from_rule`, or while a
removed table helper is defined again.
"""

import ast
from pathlib import Path

from weightdescent.charconj import groups

GROUPS = Path(groups.__file__)
BUILDERS = ["_from_rule", "load_group"]
BUILTINS = ["cyclic", "dihedral", "quaternion", "symmetric"]
REMOVED = {"_perm_mul", "basis_mul", "encode"}


def callers(path: Path, name: str) -> list[str]:
    """The innermost function around each call of `name`, one entry per call,
    in source order; a call outside any function counts as `<module>`."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name:
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return found


def defined_names(path: Path) -> set[str]:
    """Every function, class and assigned name in `path`, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


def test_only_the_rule_builder_and_the_file_loader_build_a_group():
    assert sorted(callers(GROUPS, "FiniteGroup")) == BUILDERS


def test_every_builtin_is_a_rule_over_an_element_list():
    assert sorted(callers(GROUPS, "_from_rule")) == BUILTINS


def test_the_hand_written_table_helpers_stay_gone():
    assert defined_names(GROUPS) & REMOVED == set()


def test_the_guard_sees_a_hand_written_table(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "def _from_rule(name, elements, mul):\n"
        "    return FiniteGroup([], name)\n"
        "\n"
        "\n"
        "def quaternion():\n"
        "    def encode(unit, sign):\n"
        "        return unit if sign == 1 else unit + 4\n"
        "    return FiniteGroup([[encode(0, 1)]], name='Q8')\n",
        encoding="utf-8",
    )
    assert callers(module, "FiniteGroup") == ["_from_rule", "quaternion"]
    assert defined_names(module) & REMOVED == {"encode"}
