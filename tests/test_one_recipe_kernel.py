"""One kernel runs the descent recipe: `descent._recipes`.

Every caller (a single `reduction_step`, the audit's sweep over the weights)
takes its steps from that kernel, which calls `choose_t`, the only statement
of the twist rule, and checks inline the two facts of a step that can fail.
This reads the package with `ast` and fails while a removed per-weight layer
is defined again, or while more than one function in `descent.py` calls
`choose_t` or computes `gcd(p - 1, k - 2)`, so that a second recipe cannot
come back, or while the kernel computes that gcd more than once, as a
restated check.  It also fails while more than one function reads
`RATIO_BOUND`: the kernel states the audit's `k > 36` checks once, inline,
so no second sweep can stand beside it.  The removed names include the
audit's former callback layer (`_sweep`, the `settle` it handed the kernel
once per class, and its type alias `Settle`), so that a call per class
cannot come back unnoticed.
"""

import ast
from pathlib import Path

import weightdescent
from weightdescent import descent

PACKAGE = Path(weightdescent.__file__).parent
KERNEL = "_recipes"
REMOVED = {
    "_recipe", "_broken_invariant", "_fold", "next_primes", "is_multiplicative_degree_one",
    "_sweep", "settle", "Settle",
}


def calls(func: ast.AST, name: str) -> list[ast.Call]:
    return [
        node for node in ast.walk(func)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name
    ]


def is_weight_exponent(arg: ast.expr) -> bool:
    """`<expr> - 2`: the exponent k - 2 of a weight k."""
    return (isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Sub)
            and isinstance(arg.right, ast.Constant) and arg.right.value == 2)


def functions(tree: ast.Module) -> list[ast.FunctionDef | ast.AsyncFunctionDef]:
    return [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]


def module_names(tree: ast.Module) -> list[ast.Name]:
    """The names a module binds at its top level by assignment, such as a
    type alias."""
    return [
        target for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name)
    ]


def test_no_removed_layer_is_defined_again():
    defined = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined += [f"{path.name}:{f.lineno} {f.name}" for f in functions(tree) if f.name in REMOVED]
        defined += [f"{path.name}:{n.lineno} {n.id}" for n in module_names(tree) if n.id in REMOVED]
    assert defined == []


def test_one_function_states_the_recipe():
    tree = ast.parse(Path(descent.__file__).read_text(encoding="utf-8"))
    twisting = [f.name for f in functions(tree) if calls(f, "choose_t")]
    gcd_of_weight = {
        f.name: sum(any(map(is_weight_exponent, c.args)) for c in calls(f, "gcd"))
        for f in functions(tree)
    }
    assert twisting == [KERNEL]
    # the kernel takes d = gcd(p - 1, k - 2) once per weight and never
    # re-derives it as a check
    assert {name: n for name, n in gcd_of_weight.items() if n} == {KERNEL: 1}


def test_one_function_reads_the_ratio_bound():
    tree = ast.parse(Path(descent.__file__).read_text(encoding="utf-8"))
    readers = [
        f.name for f in functions(tree)
        if any(isinstance(n, ast.Name) and n.id == "RATIO_BOUND" for n in ast.walk(f))
    ]
    assert readers == [KERNEL]
