"""One loop marks composites in `primes`: `_mark_segment`.

The base primes are the prime stream collected, so no other function
needs a sieve of its own.  This reads `primes.py` with `ast` and fails
while any other function assigns to a slice, the step that marks
multiples, so that a second marking loop cannot come back, or while any
function but `iter_primes` calls the loop, so that a second walk over
windows cannot come back either.
"""

import ast
from pathlib import Path

from weightdescent import primes

MARKING_LOOP = "_mark_segment"
WINDOW_WALK = "iter_primes"


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


def functions_calling(path: Path, name: str) -> list[str]:
    """The enclosing function of each call of `name`, one entry per call."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        func.name
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name
    ]


def test_only_the_segment_loop_marks_composites():
    found = functions_assigning_to_a_slice(Path(primes.__file__))
    assert [(name, line) for name, line in found if name != MARKING_LOOP] == []
    assert MARKING_LOOP in {name for name, _ in found}


def test_only_the_stream_walks_windows():
    assert functions_calling(Path(primes.__file__), MARKING_LOOP) == [WINDOW_WALK]
