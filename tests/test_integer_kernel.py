"""`Cyclo` does its arithmetic in integers.

A value is integer coordinates over one common denominator, and reduction
modulo the cyclotomic polynomial stays in the integers.  This reads
`cyclotomic.py` with `ast` and fails while a ring method, or any other
function of the module, constructs a `Fraction`, so that the kernel cannot
drift back to rational coordinates.
"""

import ast
from pathlib import Path

from weightdescent.charconj import cyclotomic

RING_METHODS = ("__add__", "__mul__", "galois", "to_conductor", "__eq__")


def _calls_fraction(node: ast.AST) -> bool:
    func = node.func if isinstance(node, ast.Call) else None
    return (isinstance(func, ast.Name) and func.id == "Fraction") or (
        isinstance(func, ast.Attribute) and func.attr == "Fraction"
    )


def fraction_calls() -> dict[str, list[int]]:
    """For each function and method of the module, the lines on which it
    calls `Fraction`."""
    tree = ast.parse(Path(cyclotomic.__file__).read_text(encoding="utf-8"))
    return {
        node.name: [call.lineno for call in ast.walk(node) if _calls_fraction(call)]
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def test_no_ring_method_constructs_a_fraction():
    found = fraction_calls()
    assert set(RING_METHODS) <= set(found)
    assert {name: lines for name, lines in found.items() if lines} == {}
