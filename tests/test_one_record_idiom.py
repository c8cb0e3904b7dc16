"""Class functions are one frozen record, and the prime stream has one mode.

`ClassFunction` is a frozen dataclass whose generated constructor is the one
every producer calls, and `ClassFunction.aligned` the one that takes outside
values.  This reads `charconj/characters.py` with `ast` and fails while it
calls `object.__new__` or `object.__setattr__`, so that a second, unchecked
constructor cannot come back.  It also reads `primes.py` and fails while a
parameter of `iter_primes` has a default, so that the stream's unbounded
mode cannot come back either.

Every record of the package is immutable: setting a field or any new name
raises `AttributeError` (a frozen dataclass's `FrozenInstanceError` is one),
never a `TypeError` from a slotted dataclass's generated `__setattr__`.
"""

import ast
from pathlib import Path

import pytest

import weightdescent
from weightdescent import descent
from weightdescent.charconj.characters import ClassFunction
from weightdescent.charconj.cyclotomic import Cyclo
from weightdescent.charconj.groups import cyclic, generated_subgroup, symmetric

PACKAGE = Path(weightdescent.__file__).parent

# each kind of record, built cheaply, and one of its fields
RECORDS = {
    "ReductionStep": (lambda: descent.reduction_step(16), "k"),
    "ClassFunction": (lambda: ClassFunction.aligned(cyclic(3), [1, 1, 1]), "values"),
    "Cyclo": (lambda: Cyclo.zeta(3), "num"),
    "FiniteGroup": (lambda: symmetric(3), "order"),
    "Subgroup": (lambda: generated_subgroup(symmetric(3), [1]), "order"),
    "AuditReport": (lambda: descent.audit(14), "max_k"),
}


def object_calls(path: Path) -> list[str]:
    """Where `path` calls object.__new__ or object.__setattr__."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        f"object.{node.func.attr} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("__new__", "__setattr__")
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "object"
    ]


def defaulted_parameters(path: Path, function: str) -> list[str]:
    """The parameters of the top-level `function` in `path` that have a
    default."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    [node] = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function]
    args = node.args
    positional = args.posonlyargs + args.args
    defaulted = positional[len(positional) - len(args.defaults):] if args.defaults else []
    defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return [a.arg for a in defaulted]


def test_class_functions_have_no_hand_built_constructor():
    assert object_calls(PACKAGE / "charconj" / "characters.py") == []


def test_the_guard_sees_a_hand_built_constructor(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "class C:\n"
        "    @classmethod\n"
        "    def _of(cls, v):\n"
        "        obj = object.__new__(cls)\n"
        "        object.__setattr__(obj, 'v', v)\n"
        "        return obj\n",
        encoding="utf-8",
    )
    assert object_calls(module) == ["object.__new__ (line 4)", "object.__setattr__ (line 5)"]


def test_the_prime_stream_takes_a_closed_range_only():
    assert defaulted_parameters(PACKAGE / "primes.py", "iter_primes") == []


def test_the_guard_sees_a_defaulted_bound(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "def iter_primes(lo, hi=None, *, step, size=2):\n"
        "    pass\n",
        encoding="utf-8",
    )
    assert defaulted_parameters(module, "iter_primes") == ["hi", "size"]


@pytest.mark.parametrize("kind", list(RECORDS))
def test_every_record_refuses_any_assignment(kind):
    build, field = RECORDS[kind]
    record = build()
    for name in (field, "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    assert getattr(record, field) == getattr(build(), field)
    assert not hasattr(record, "other")
