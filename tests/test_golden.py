"""Byte-for-byte golden outputs of the CLI.

Each case runs `cli.main(argv)` in-process and compares its stdout with
`tests/golden/<name>.txt` and its exit status with the entry of the same name
in one of the `tests/golden/status*.json` files.  Each file was captured from
the CLI before a refactor it guards (`status.json` and its outputs before the
one that gave each concept one implementation, `status-audit.json` and the
small audits before the one-pass descent audit), so any change to an output
byte, an exit status or a verdict fails here.  Every argv set runs in text
mode and with `--format json`.
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
    "audit-14": ["audit", "--max-k", "14"],
    "audit-38": ["audit", "--max-k", "38"],
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
    merged: dict[str, int] = {}
    for path in sorted(GOLDEN.glob("status*.json")):
        part = json.loads(path.read_text(encoding="utf-8"))
        assert not set(part) & set(merged), f"{path.name} repeats a case"
        merged.update(part)
    return merged


def test_every_golden_file_has_a_case(statuses):
    assert set(statuses) == set(CASES)
    assert {p.stem for p in GOLDEN.glob("*.txt")} == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, statuses, monkeypatch):
    monkeypatch.delenv(cli.SIEVE_LIMIT_ENV, raising=False)
    status, out = run_main(CASES[name])
    assert out == (GOLDEN / f"{name}.txt").read_bytes()
    assert status == statuses[name]
