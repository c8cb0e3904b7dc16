"""One loop marks composites in `primes`: `_mark_segment`.

The base primes are a segment of that same loop, so no other function
needs a sieve of its own.  This reads `primes.py` with `ast` and fails
while any other function assigns to a slice, the step that marks
multiples, so that a second marking loop cannot come back.
"""

import ast
from pathlib import Path

from weightdescent import primes

MARKING_LOOP = "_mark_segment"


def functions_assigning_to_a_slice(path: Path) -> list[tuple[str, int]]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            targets = node.targets if isinstance(node, ast.Assign) else (
                [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else []
            )
            if any(
                isinstance(t, ast.Subscript) and isinstance(t.slice, ast.Slice)
                for target in targets
                for t in ast.walk(target)
            ):
                found.append((func.name, node.lineno))
    return found


def test_only_the_segment_loop_marks_composites():
    found = functions_assigning_to_a_slice(Path(primes.__file__))
    assert [(name, line) for name, line in found if name != MARKING_LOOP] == []
    assert MARKING_LOOP in {name for name, _ in found}
