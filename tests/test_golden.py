"""Byte-for-byte golden outputs of the CLI.

Each case runs `cli.main(argv)` in-process and compares its stdout with
`tests/golden/<name>.txt` and its exit status with `tests/golden/status.json`.
The files were captured from the CLI before the refactor that gave each
concept one implementation, so any change to an output byte, an exit status
or a verdict fails here.  Every argv set runs in text mode and with
`--format json`.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from weightdescent import cli

GOLDEN = Path(__file__).parent / "golden"

ARGV_SETS = {
    "table": ["table"],
    "table-strict": ["table", "--strict"],
    "reduce-16": ["reduce", "16"],
    "chain-36-hi": ["chain", "36", "--policy", "hi-branch"],
    "chain-36-lo": ["chain", "36", "--policy", "lo-branch"],
    "chain-36-longest": ["chain", "36", "--policy", "longest"],
    "chain-999998-longest": ["chain", "999998", "--policy", "longest"],
    "audit-100000": ["audit", "--max-k", "100000"],
    "gaps": ["gaps"],
    "gaps-20-32": ["gaps", "--low", "20", "--high", "32"],
    "gaps-shifted": ["gaps-shifted"],
    "threshold": ["threshold"],
    "threshold-typo": ["threshold", "--typo-variant"],
    "star": ["star"],
    "mbound": ["mbound"],
    "char-demo": ["char", "demo"],
    "char-demo-q8-5": ["char", "demo", "--group", "Q8", "--seed", "5"],
    "char-verify-all": ["char", "verify", "--group", "all", "--draws", "3", "--trials", "6"],
}

CASES = {
    f"{name}.{fmt}": argv + (["--format", "json"] if fmt == "json" else [])
    for name, argv in ARGV_SETS.items()
    for fmt in ("text", "json")
}


def run_main(argv: list[str]) -> tuple[int, bytes]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(argv)
    return status, buf.getvalue().encode("utf-8")


@pytest.fixture(scope="module")
def statuses():
    return json.loads((GOLDEN / "status.json").read_text(encoding="utf-8"))


def test_every_golden_file_has_a_case(statuses):
    assert set(statuses) == set(CASES)
    assert {p.stem for p in GOLDEN.glob("*.txt")} == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, statuses, monkeypatch):
    monkeypatch.delenv(cli.SIEVE_LIMIT_ENV, raising=False)
    status, out = run_main(CASES[name])
    assert out == (GOLDEN / f"{name}.txt").read_bytes()
    assert status == statuses[name]
