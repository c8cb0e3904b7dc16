"""One list of Galois exponents and one layout of a reduction step.

`cyclotomic.galois_exponents(n)` lists the exponents j of the non-identity
automorphisms z -> z^j at conductor n, and every caller that wants such a j
(`char demo` its first, `invariance_campaign` a random one) reads that list.
`descent.ReductionStep` orders its fields as the kernel's step tuple, so a
step is built by `ReductionStep(*step)` with no reordering bridge.  This reads
the package with `ast` and fails while a comprehension outside
`galois_exponents` filters by `gcd(...) == 1`, so that a second exponent list
cannot come back, or while a removed helper (`_random_coprime`, `_as_step`)
is defined again.
"""

import ast
from pathlib import Path

import weightdescent

PACKAGE = Path(weightdescent.__file__).parent
LISTER = "galois_exponents"
REMOVED = {"_random_coprime", "_as_step"}
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)


def is_gcd_call(node: ast.expr) -> bool:
    func = node.func if isinstance(node, ast.Call) else None
    return (isinstance(func, ast.Name) and func.id == "gcd"
            or isinstance(func, ast.Attribute) and func.attr == "gcd")


def is_one(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value == 1


def is_coprime_test(node: ast.expr) -> bool:
    """`gcd(...) == 1` or `1 == gcd(...)`."""
    if not (isinstance(node, ast.Compare) and len(node.ops) == 1 and isinstance(node.ops[0], ast.Eq)):
        return False
    left, right = node.left, node.comparators[0]
    return is_gcd_call(left) and is_one(right) or is_one(left) and is_gcd_call(right)


def coprime_filters(path: Path) -> list[str]:
    """The innermost function around each comprehension in `path` that
    filters by a coprimality test, as `file:line function`."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        elif isinstance(node, COMPREHENSIONS):
            tests = [t for g in node.generators for cond in g.ifs for t in ast.walk(cond)]
            if any(map(is_coprime_test, tests)):
                found.append(f"{path.name}:{node.lineno} {where}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return found


def defined_functions(path: Path) -> set[str]:
    return {
        node.name for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def test_only_galois_exponents_lists_the_exponents():
    found = [f for path in sorted(PACKAGE.rglob("*.py")) for f in coprime_filters(path)]
    assert [f.split()[1] for f in found] == [LISTER], found


def test_the_removed_helpers_stay_gone():
    defined = {name for path in PACKAGE.rglob("*.py") for name in defined_functions(path)}
    assert defined & REMOVED == set()


def test_the_guard_sees_a_restated_exponent_list(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import math\n"
        "\n"
        "\n"
        "def demo(n):\n"
        "    return next((x for x in range(2, n) if math.gcd(x, n) == 1), 1)\n"
        "\n"
        "\n"
        "def _random_coprime(rng, n):\n"
        "    return rng.choice([j for j in range(2, n) if 1 == gcd(j, n) and j])\n"
        "\n"
        "\n"
        "def galois(j, n):\n"
        "    return [i * j % n for i in range(n) if gcd(i, n) != 1]\n",
        encoding="utf-8",
    )
    assert coprime_filters(module) == ["m.py:5 demo", "m.py:9 _random_coprime"]
    assert defined_functions(module) & REMOVED == {"_random_coprime"}
