"""No floating point in the package.

Every decision is an exact comparison of integers or rationals, and every
report holds only strings, integers, Fractions and Decimals.  This reads each
module under `src/` with `ast` and fails on a float literal, the name
`float`, `import math`, or an import from `math` of anything but the integer
functions `gcd`, `lcm` and `isqrt`, so that a float cannot enter a verdict
or a report unseen.
"""

import ast
from dataclasses import dataclass
from pathlib import Path

import pytest

import weightdescent
from weightdescent.cli import canonical_json

PACKAGE = Path(weightdescent.__file__).parent
INTEGER_MATH = {"gcd", "lcm", "isqrt"}


def float_uses(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            uses = [f"float literal {node.value!r}"]
        elif isinstance(node, ast.Name) and node.id == "float":
            uses = ["name float"]
        elif isinstance(node, ast.Import):
            uses = ["import math" for a in node.names if a.name == "math"]
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            uses = [f"math.{a.name}" for a in node.names if a.name not in INTEGER_MATH]
        else:
            uses = []
        found.extend(f"{use} (line {node.lineno})" for use in uses)
    return found


def test_no_module_uses_floating_point():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 10
    found = {str(path.relative_to(PACKAGE)): float_uses(path) for path in modules}
    assert {name: uses for name, uses in found.items() if uses} == {}


def test_a_float_in_a_report_is_not_rendered():
    @dataclass
    class Report:
        ratio: float

    with pytest.raises(TypeError):
        canonical_json(Report(1.5))
    with pytest.raises(TypeError):
        canonical_json({2: [Report(0), 1.5]})
