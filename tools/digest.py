"""One sha256 over what the CLI prints for a fixed set of argument vectors.

Runs `weightdescent.cli.main` in-process on each argv and hashes the JSON of
(argv, stdout, stderr, exit status), one line per run, in a fixed order:

- every argv set of `tests/test_golden.py` but the two `audit --max-k
  1000000` ones, in text and with `--format json`;
- the `queries` batches of `perfbench/workloads.py`, seeds 1-3, children 0-2;
- `char verify --draws 5 --trials 10` on seven groups, at seeds 0 and 7;
- `char demo` on eight groups, at seeds 0-9.

It prints `<count> <sha256>`.  Two checkouts that print the same line give
the same bytes and exit statuses on all of these runs.  Usage, from the root
of a checkout:

    python3 tools/digest.py
"""

import ast
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from weightdescent import cli  # noqa: E402
from workloads import batch  # noqa: E402

VERIFY_GROUPS = ("all", "S3", "C2", "C6", "D2", "Q8", "D24")
DEMO_GROUPS = ("C1", "C2", "D2", "C12", "S4", "Q8", "D24", "C48")


def golden_argv_sets() -> dict[str, list[str]]:
    """`ARGV_SETS` of tests/test_golden.py, read as a literal, so that the
    test module and its imports are not loaded."""
    tree = ast.parse((ROOT / "tests" / "test_golden.py").read_text(encoding="utf-8"))
    [node] = [n for n in tree.body if isinstance(n, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "ARGV_SETS" for t in n.targets)]
    return ast.literal_eval(node.value)


def argvs() -> list[list[str]]:
    out = []
    for argv in golden_argv_sets().values():
        if argv[:3] != ["audit", "--max-k", "1000000"]:
            out += [argv, argv + ["--format", "json"]]
    for seed in (1, 2, 3):
        for child in (0, 1, 2):
            out += batch("queries", seed, child)
    for seed in (0, 7):
        out += [["char", "verify", "--group", g, "--draws", "5", "--trials", "10",
                 "--seed", str(seed)] for g in VERIFY_GROUPS]
    out += [["char", "demo", "--group", g, "--seed", str(seed)]
            for g in DEMO_GROUPS for seed in range(10)]
    return out


def run(argv: list[str]) -> tuple[str, str, int]:
    """stdout, stderr and exit status of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv)
        except SystemExit as exc:  # argparse refuses the argv
            status = exc.code
    return out.getvalue(), err.getvalue(), status


def main() -> None:
    digest = hashlib.sha256()
    runs = argvs()
    for argv in runs:
        record = [argv, *run(argv)]
        digest.update(json.dumps(record).encode("utf-8") + b"\n")
    print(len(runs), digest.hexdigest())


if __name__ == "__main__":
    main()
