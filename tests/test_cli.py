import argparse
import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
from dataclasses import dataclass
from decimal import Context, Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import weightdescent
from weightdescent import cli, descent, gaps, primes
from weightdescent.charconj.campaigns import SUITE_NAMES
from weightdescent.charconj.groups import dihedral
from weightdescent.cli import build_parser, canonical_json, main

from oracles import json_oracle, recipe_oracle

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).resolve().parents[1] / "README.md"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

json_scalars = (st.none() | st.booleans() | st.integers(-3, 50)
                | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4))
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=20,
)


@st.composite
def near_group_definitions(draw):
    """A cyclic group's table, nested or row-major, with at most one entry,
    the order or the name replaced by arbitrary JSON."""
    n = draw(st.integers(1, 4))
    rows = [[(i + j) % n for j in range(n)] for i in range(n)]
    if draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(json_values)
    definition = {
        "order": draw(st.just(n) | st.sampled_from([n + 1, 0]) | json_scalars),
        "table": draw(st.sampled_from([rows, [x for row in rows for x in row]])),
    }
    if draw(st.booleans()):
        definition["name"] = draw(st.text(max_size=4) | json_values)
    return definition


def test_parser_defaults_reproduce_canonical_parameters():
    parser = build_parser()
    args = parser.parse_args(["gaps"])
    assert (args.low, args.high) == (37, 100000)
    assert args.bound == Fraction(143, 125)
    assert parser.parse_args(["gaps-shifted"]).bound == Fraction(23, 20)
    args = parser.parse_args(["threshold"])
    assert args.a == Fraction(143, 125)
    assert args.b == Fraction(1130289, 1000000)
    assert parser.parse_args(["audit"]).max_k == 10**6
    assert parser.parse_args(["mbound"]).max_k == 10**6
    assert parser.parse_args(["chain", "16"]).policy == "hi-branch"
    args = parser.parse_args(["char", "demo"])
    assert (args.draws, args.trials) == (50, 100)


def readme_cli_lines() -> list[str]:
    """The `weightdescent ...` lines of the code block in README's CLI section."""
    text = README.read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("weightdescent ")]


def test_every_documented_command_parses():
    lines = readme_cli_lines()
    assert len(lines) >= 10
    for line in lines:
        try:
            build_parser().parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README's CLI block has a command the parser refuses: {line}")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestTable:
    def test_text_output_and_exit(self, capsys):
        code, out = run_cli(capsys, "table")
        assert code == 0
        assert out.count("k = ") == 12
        assert "k = 32, p = 43" in out
        assert "[diverges-from-paper]" in out
        assert out.count("[matches-paper]") == 11

    def test_strict_fails_on_divergence(self, capsys):
        code, _ = run_cli(capsys, "table", "--strict")
        assert code == 1

    def test_json_output(self, capsys):
        code, out = run_cli(capsys, "table", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        rows = payload["rows"]
        assert len(rows) == 12
        assert [r["k"] for r in rows if not r["matches_paper"]] == [36]
        assert rows[0] == {
            "k": 10, "p": 11, "d": 2, "m": 5, "t": 3, "dt": 6,
            "k_hi": 8, "k_lo": 6, "prime_skips": 0, "matches_paper": True,
        }


class TestReduceAndChain:
    def test_reduce_16(self, capsys):
        code, out = run_cli(capsys, "reduce", "16", "--format", "json")
        assert code == 0
        step = json.loads(out)
        assert (step["p"], step["d"], step["m"], step["t"], step["dt"]) == (17, 2, 8, 5, 10)

    def test_reduce_rejects_odd_weight(self, capsys):
        assert main(["reduce", "15"]) == 2
        assert capsys.readouterr().err == "error: weight must be a positive even integer, got 15\n"

    def test_reduce_rejects_base_weight(self, capsys):
        code = main(["reduce", "12"])
        assert code == 2

    def test_chain_36_hi(self, capsys):
        code, out = run_cli(capsys, "chain", "36", "--policy", "hi-branch", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["path"] == [36, 24, 20, 14]
        assert payload["length"] == 3

    def test_chain_base_weight(self, capsys):
        code, out = run_cli(capsys, "chain", "12")
        assert code == 0
        assert "length 0" in out


class TestGaps:
    def test_violation_range_exits_1(self, capsys):
        code, out = run_cli(capsys, "gaps", "--low", "20", "--high", "32")
        assert code == 1
        assert "[23, 29]" in out
        assert "fail" in out

    def test_default_bound_in_json(self, capsys):
        code, out = run_cli(capsys, "gaps", "--low", "37", "--high", "1000", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["bound"] == "143/125"
        assert payload["verdict"] == "pass"

    def test_shifted_uses_its_own_default_bound(self, capsys):
        code, out = run_cli(capsys, "gaps-shifted", "--low", "37", "--high", "1000",
                            "--format", "json")
        assert code == 0
        assert json.loads(out)["bound"] == "23/20"

    def test_custom_bound(self, capsys):
        code, out = run_cli(capsys, "gaps", "--low", "37", "--high", "100",
                            "--bound", "9/8", "--format", "json")
        assert code == 1  # 53/47 > 9/8
        assert json.loads(out)["bound"] == "9/8"

    def test_text_lists_the_first_20_violations(self, capsys):
        argv = ["gaps", "--low", "37", "--high", "2000", "--bound", "1"]
        code, out = run_cli(capsys, *argv)
        assert code == 1
        _, json_out = run_cli(capsys, *argv, "--format", "json")
        payload = json.loads(json_out)
        every = payload["violations"]
        assert len(every) == payload["pairs_checked"] > 20
        line = next(x for x in out.splitlines() if x.startswith("violations: "))
        assert line == f"violations: {every[:20]} ... and {len(every) - 20} more"
        assert max(len(x) for x in out.splitlines()) < 300

    @pytest.mark.parametrize("command", ["gaps", "gaps-shifted"])
    @pytest.mark.parametrize("bounds", [["--high", "1"], ["--low", "37", "--high", "40"]])
    def test_range_without_pairs_is_usage_error(self, capsys, command, bounds):
        code = main([command, *bounds])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: no adjacent prime pair")
        assert captured.err.count("\n") == 1


    @pytest.mark.parametrize("command", ["gaps", "gaps-shifted"])
    @pytest.mark.parametrize("bound", ["0", "-1"])
    def test_non_positive_bound_is_usage_error(self, capsys, command, bound):
        code = main([command, "--high", "50", "--bound", bound])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: bound must be positive, got {bound}\n"


class TestThreshold:
    def test_defaults(self, capsys):
        code, out = run_cli(capsys, "threshold")
        assert code == 0
        assert "65530.89" in out
        assert "below x0 = 100000: true" in out

    def test_typo_variant(self, capsys):
        code, out = run_cli(capsys, "threshold", "--typo-variant")
        assert code == 0
        assert "94.30" in out

    def test_straddling_enclosure_is_inconclusive(self, capsys):
        code, out = run_cli(capsys, "threshold", "--digits", "2")
        assert code == 3
        assert "below x0 = 100000: inconclusive" in out
        code, out = run_cli(capsys, "threshold", "--digits", "2", "--format", "json")
        assert code == 3
        assert json.loads(out)["below_x0"] is None

    def test_degenerate_is_usage_error(self, capsys):
        code = main(["threshold", "--a", "1130289/1000000"])
        assert code == 2

    @pytest.mark.parametrize("digits", ["0", "-5"])
    def test_non_positive_digits_is_usage_error(self, capsys, digits):
        with pytest.raises(SystemExit) as exc:
            main(["threshold", "--digits", digits])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --digits" in err and "prec" not in err


# --a just above C = B: the exponent C/(a-C) is the integer 1130289, the
# integer 1130289000000 and 1130289000000/7.  An exact power of the first
# two has millions of digits, and exp of the last two overflows any
# decimal context, so none of them may reach either.
A_NEAR_C = ("1130290/1000000", "1130289000001/1000000000000", "1130289000007/1000000000000")


class TestThresholdNearC:
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_a_large_integer_exponent_is_enclosed(self, fmt):
        done = _fresh_process("-m", "weightdescent", "threshold", "--a", A_NEAR_C[0],
                              "--format", fmt)
        assert (done.returncode, done.stderr) == (1, "")
        if fmt == "json":
            assert json.loads(done.stdout)["below_x0"] is False
        else:
            assert done.stdout.endswith("below x0 = 100000: false\n")

    def test_the_large_integer_power_lies_in_its_enclosure(self):
        r = gaps.chebyshev_threshold(a=Fraction(A_NEAR_C[0]))
        assert r.exponent.lower == r.exponent.upper == 1130289
        # an independent 60-digit power; 1.13029 is exact in it
        oracle = Context(prec=60).power(Decimal("1.13029"), 1130289)
        assert r.threshold.lower < oracle < r.threshold.upper
        assert r.threshold.lower >= gaps.X0 and r.below_x0 is False

    @pytest.mark.parametrize("a", A_NEAR_C[1:])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_a_power_past_the_decimal_range_is_one_error_line(self, a, fmt):
        done = _fresh_process("-m", "weightdescent", "threshold", "--a", a, "--format", fmt)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith(f"error: a = {a} lies too close to C = 1130289/1000000")
        assert done.stderr.count("\n") == 1

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_a_power_inside_the_decimal_range_is_enclosed(self, fmt):
        # C/(a-C) ~ 1.739 * 10^7 and a^(C/(a-C)) ~ 10^924915, near the top of the range
        done = _fresh_process("-m", "weightdescent", "threshold", "--a", "1130289065/1000000000",
                              "--format", fmt)
        assert (done.returncode, done.stderr) == (1, "")
        bounds = ("8.73724545880248386937323642222E+924915",
                  "8.73724545880248386937367328452E+924915")
        if fmt == "json":
            assert json.loads(done.stdout)["threshold"] == dict(zip(("lower", "upper"), bounds))
        else:
            assert f"a^(C/(a-C)) in [{bounds[0]}, {bounds[1]}]" in done.stdout
            assert done.stdout.endswith("below x0 = 100000: false\n")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_a_power_too_wide_at_digits_is_one_error_line(self, fmt):
        done = _fresh_process("-m", "weightdescent", "threshold", "--a", "1130289065/1000000000",
                              "--digits", "2", "--format", fmt)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
        assert "cannot be enclosed at 2 digits" in done.stderr

    def test_a_small_integer_power_stays_exact(self, capsys):
        # a = 11C/10: the exponent is exactly 10, a power of 240 bits
        code, out = run_cli(capsys, "threshold", "--a", "12433179/10000000")
        assert code == 0
        assert out.splitlines()[1:] == [
            "exponent C/(a-C) in [10, 10]",
            "a^(C/(a-C)) in [8.82717755142956554989423434480, "
            "8.82717755142956554989423434481]  (width 1E-29)",
            "below x0 = 100000: true",
        ]
        code, out = run_cli(capsys, "threshold", "--a", "12433179/10000000", "--format", "json")
        assert json.loads(out)["threshold"] == {"lower": "8.82717755142956554989423434480",
                                                "upper": "8.82717755142956554989423434481"}

    @pytest.mark.parametrize("argv, lower, upper", [
        (["--b", "1/2", "--a", "5000001/10000000"], "0", "1.0000000000000000000000000000000E-30"),
        (["--a", "1130290/1000000", "--digits", "1"], "0", "1.0E+868589"),
    ])
    def test_an_underflowing_power_has_a_lower_end_of_zero(self, capsys, argv, lower, upper):
        # exp underflows past the decimal range, or its padding cancels it;
        # the lower end stops at 0, not at -1E-30 or -0E-86859
        code, out = run_cli(capsys, "threshold", *argv)
        assert f"a^(C/(a-C)) in [{lower}, {upper}]" in out
        json_code, out = run_cli(capsys, "threshold", *argv, "--format", "json")
        assert json_code == code == (0 if "--b" in argv else 3)
        assert json.loads(out)["threshold"] == {"lower": lower, "upper": upper}

    def test_the_typo_variant_builds_no_power(self, capsys):
        code, out = run_cli(capsys, "threshold", "--a", A_NEAR_C[1], "--typo-variant")
        assert code == 1
        assert "a*C/(a-C) in [1277553223522.130289, 1277553223522.130289]" in out


class TestStarAndMBound:
    def test_star(self, capsys):
        code, out = run_cli(capsys, "star", "--m-max", "50", "--d-max", "20")
        assert code == 0
        assert "(7d+1)/(4d+2)" in out

    def test_mbound(self, capsys):
        code, out = run_cli(capsys, "mbound", "--max-k", "2000")
        assert code == 0
        assert "36/30" in out


class TestChar:
    def test_demo(self, capsys):
        code, out = run_cli(capsys, "char", "demo", "--group", "C5", "--seed", "3")
        assert code == 0
        assert "(rho, rho)" in out

    def test_verify_small(self, capsys):
        code, out = run_cli(capsys, "char", "verify", "--group", "S3",
                            "--draws", "3", "--trials", "5", "--seed", "1")
        assert code == 0
        assert "frobenius-reciprocity" in out
        assert "pass" in out

    def test_verify_json(self, capsys):
        code, out = run_cli(capsys, "char", "verify", "--group", "C6",
                            "--draws", "2", "--trials", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["campaigns"]) == 3

    def test_verify_rejects_non_positive_counts(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["char", "verify", "--draws", "-1", "--trials", "0"])
        assert exc.value.code == 2
        assert "--draws" in capsys.readouterr().err

    def test_demo_missing_group_file_is_usage_error(self, capsys, tmp_path):
        code = main(["char", "demo", "--group", str(tmp_path / "missing.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: cannot read group file") and err.count("\n") == 1

    @pytest.mark.parametrize("content", [
        '{"table": [[0]]}',
        '[1, 2]',
        '{"order": "2", "table": [0,1,1,0]}',
        '{"order": 2, "table": [[0,1],[1,"a"]]}',
        '{"order": 2, "table": [[0,1],[1,0.0]]}',
    ], ids=["no-order", "not-an-object", "string-order", "string-entry", "float-entry"])
    def test_demo_malformed_group_file_is_usage_error(self, capsys, tmp_path, content):
        path = tmp_path / "group.json"
        path.write_text(content, encoding="utf-8")
        code = main(["char", "demo", "--group", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_demo_group_file_over_the_order_cap_is_usage_error(self, capsys, tmp_path):
        table = [[(i + j) % 49 for j in range(49)] for i in range(49)]
        path = tmp_path / "c49.json"
        path.write_text(json.dumps({"order": 49, "table": table}), encoding="utf-8")
        code = main(["char", "demo", "--group", str(path)])
        assert code == 2
        assert capsys.readouterr() == ("", "error: order 49 exceeds the cap 48\n")

    def test_demo_group_file_without_inverses_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "monoid.json"
        path.write_text('{"order": 2, "table": [[0, 1], [1, 1]]}', encoding="utf-8")
        code = main(["char", "demo", "--group", str(path)])
        assert code == 2
        assert capsys.readouterr() == ("", "error: element 1 has no two-sided inverse\n")

    def test_demo_group_file_at_the_cap_with_one_entry_swapped_is_usage_error(self, capsys, tmp_path):
        table = [list(row) for row in dihedral(24).table]  # order 48
        path = tmp_path / "d24.json"
        path.write_text(json.dumps({"order": 48, "table": table, "name": "D24"}), encoding="utf-8")
        code, out = run_cli(capsys, "char", "demo", "--group", str(path))
        assert code == 0 and out.startswith("group D24, seed 0")
        table[5][7], table[5][30] = table[5][30], table[5][7]
        path.write_text(json.dumps({"order": 48, "table": table}), encoding="utf-8")
        code = main(["char", "demo", "--group", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: associativity fails at triple (")
        assert captured.err.count("\n") == 1

    def test_demo_builtin_over_the_order_cap_is_usage_error(self, capsys):
        code = main(["char", "demo", "--group", "C1000"])
        assert code == 2
        assert capsys.readouterr() == ("", "error: order 1000 exceeds the cap 48\n")

    @pytest.mark.parametrize("group", ["C³", "D²", "c٣⁴"])
    def test_demo_size_in_non_decimal_digits_is_an_unknown_name(self, capsys, group):
        code = main(["char", "demo", "--group", group])
        assert code == 2
        assert capsys.readouterr() == ("", f"error: unknown group name: {group}\n")

    @pytest.mark.parametrize("mode", ["demo", "verify"])
    @pytest.mark.parametrize("group", ["C0", "D1", "D0"])
    def test_a_size_below_its_family_minimum_is_an_unknown_name(self, capsys, mode, group):
        code = main(["char", mode, "--group", group])
        assert code == 2
        assert capsys.readouterr() == ("", f"error: unknown group name: {group}\n")

    @pytest.mark.parametrize("mode", ["demo", "verify"])
    @pytest.mark.parametrize("family", ["C", "D"])
    def test_a_size_past_the_integer_digit_limit_is_an_unknown_name(self, capsys, mode, family):
        group = family + "9" * 5000
        code = main(["char", mode, "--group", group])
        assert code == 2
        assert capsys.readouterr() == ("", f"error: unknown group name: {group}\n")

    @pytest.mark.parametrize("mode", ["demo", "verify"])
    def test_a_size_past_the_machine_word_is_usage_error(self, capsys, mode):
        code = main(["char", mode, "--group", "C99999999999999999999"])
        assert code == 2
        assert capsys.readouterr() == ("", "error: order 99999999999999999999 exceeds the cap 48\n")

    def test_demo_group_file(self, capsys, tmp_path):
        path = tmp_path / "c2.json"
        path.write_text('{"order": 2, "table": [0, 1, 1, 0], "name": "C2"}', encoding="utf-8")
        code, out = run_cli(capsys, "char", "demo", "--group", str(path))
        assert code == 0
        assert out.startswith("group C2, seed 0")

    @given(definition=json_values | near_group_definitions())
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_demo_on_any_json_exits_0_or_2(self, tmp_path, definition):
        path = tmp_path / "group.json"
        path.write_text(json.dumps(definition), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["char", "demo", "--group", str(path)])
        assert code in (0, 2)
        if code == 2:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_verify_reports_a_group_by_its_own_name(self, capsys, fmt):
        argv = ["char", "verify", "--draws", "2", "--trials", "2", "--format", fmt]
        runs = [run_cli(capsys, *argv, "--group", group) for group in ("s3", "S3")]
        assert runs[0] == runs[1]
        assert runs[0][0] == 0 and "s3" not in runs[0][1]

    @pytest.mark.parametrize("group,message", [
        ("x.json", "error: char verify runs builtin groups only; x.json is a group file\n"),
        ("e8", "error: unknown group name: e8\n"),
        ("suite", "error: unknown group name: suite\n"),
    ], ids=["group-file", "unknown-name", "no-suite-alias"])
    def test_verify_names_a_group_it_cannot_run(self, capsys, group, message):
        code = main(["char", "verify", "--group", group, "--draws", "1", "--trials", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert (captured.out, captured.err) == ("", message)


class TestAudit:
    def test_small_audit(self, capsys):
        code, out = run_cli(capsys, "audit", "--max-k", "2000", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["termination"]["weights_with_skips"] == [32]


class TestNoFullTable:
    """reduce, chain, audit and mbound take their primes from the stream or a
    window: with every full sieve refused they still give their outputs, and
    gaps refuses a non-positive bound without building one."""

    @pytest.fixture(autouse=True)
    def refuse_sieve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a full sieve was built")

        monkeypatch.setattr(primes, "sieve", refuse)
        monkeypatch.setattr(cli, "sieve", refuse)

    GOLDEN_ARGV = {
        "chain-999998-longest.text": ["chain", "999998", "--policy", "longest"],
        "audit-100000.json": ["audit", "--max-k", "100000", "--format", "json"],
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN_ARGV))
    def test_golden_outputs(self, capsys, name):
        expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
        assert run_cli(capsys, *self.GOLDEN_ARGV[name]) == (0, expected)

    def test_mbound(self, capsys):
        code, out = run_cli(capsys, "mbound", "--max-k", "100000", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["checked"] == (100000 - 38) // 2 + 1
        assert payload["failures"] == [] and payload["verdict"] == "pass"

    @staticmethod
    def fields(step: dict) -> tuple:
        return tuple(step[f] for f in ("p", "prime_skips", "d", "m", "t", "dt", "k_hi", "k_lo"))

    @pytest.mark.parametrize("k", [999998, 10**10])
    def test_reduce_matches_the_oracle(self, capsys, k):
        code, out = run_cli(capsys, "reduce", str(k), "--format", "json")
        assert code == 0
        assert self.fields(json.loads(out)) == recipe_oracle(k)

    @pytest.mark.parametrize("policy", ["hi-branch", "lo-branch"])
    def test_chain_at_1e10_matches_the_oracle(self, capsys, policy):
        code, out = run_cli(capsys, "chain", str(10**10), "--policy", policy, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["path"][0] == 10**10 and payload["path"][-1] in descent.BASE_WEIGHTS
        for step in payload["steps"]:
            assert self.fields(step) == recipe_oracle(step["k"]), step["k"]

    @pytest.mark.parametrize("command", ["gaps", "gaps-shifted"])
    @pytest.mark.parametrize("bound", ["0", "-1"])
    def test_a_non_positive_bound_is_refused_before_the_sieve(self, capsys, command, bound):
        # at --high 2 * 10^7 the sieve alone would take most of a second
        code = main([command, "--high", str(2 * 10**7), "--bound", bound])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: bound must be positive, got {bound}\n"


class TestDescentError:
    def test_broken_step_is_one_error_line_and_exit_3(self, capsys, monkeypatch):
        choose_t = descent.choose_t
        # t = 1 is no twist exponent, and neither is t = m - 1, though it is
        # prime to m: only the twist check's upper bound rejects it (m = 8 at
        # k = 16, m = 5 at the audit's first weight, 10).  t = m - 2 is one
        # for odd m >= 5, but at k = 20 (p = 23, d = 2, m = 11) it gives
        # k_hi = 20.  Each of the kernel's two checks rejects one of these rules.
        no_twist = lambda m: 1
        conjugate = lambda m: m - 1
        no_descent = lambda m: m - 2 if m % 2 and m >= 5 else choose_t(m)
        for rule, argv, error in (
            (no_twist, ["reduce", "16"], "invalid twist exponent t = 1 at k = 16"),
            (no_twist, ["audit", "--max-k", "100"], "invalid twist exponent t = 1 at k = 10"),
            (conjugate, ["reduce", "16"], "invalid twist exponent t = 7 at k = 16"),
            (conjugate, ["audit", "--max-k", "100"], "invalid twist exponent t = 4 at k = 10"),
            (no_descent, ["reduce", "20"], "non-decreasing step at k = 20"),
            (no_descent, ["audit", "--max-k", "100"], "non-decreasing step at k = 20"),
        ):
            monkeypatch.setattr(descent, "choose_t", rule)
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 3
            assert captured.out == ""
            assert captured.err == f"error: {error}\n"


PSI_13 = 3317044064679887385961981
# the largest prime below psi13: each even weight from it to psi13 - 1 has
# its next prime past psi13, where no prime can be certified
LAST_PRIME_BELOW_PSI_13 = PSI_13 - 168


@pytest.mark.parametrize("argv", [
    ["reduce", str(PSI_13 - 1)],
    ["reduce", str(LAST_PRIME_BELOW_PSI_13 + 1)],
    ["chain", str(PSI_13 - 1), "--policy", "longest"],
    ["chain", str(LAST_PRIME_BELOW_PSI_13 + 1)],
    ["mbound", "--max-k", str(PSI_13 - 1)],
    ["mbound", "--max-k", str(PSI_13)],
    ["mbound", "--max-k", str(LAST_PRIME_BELOW_PSI_13)],
])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_an_uncertifiable_prime_is_one_error_line_and_exit_3(capsys, argv, fmt):
    assert main([*argv, "--format", fmt]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot certify ") and captured.err.count("\n") == 1


def test_the_last_weight_below_the_last_certified_prime_reduces(capsys):
    assert primes.is_prime(LAST_PRIME_BELOW_PSI_13)
    assert not any(map(primes.is_prime, range(LAST_PRIME_BELOW_PSI_13 + 1, PSI_13)))
    code, out = run_cli(capsys, "reduce", str(LAST_PRIME_BELOW_PSI_13 - 1), "--format", "json")
    assert code == 0 and json.loads(out)["p"] == LAST_PRIME_BELOW_PSI_13


def test_out_of_memory_is_one_error_line_and_exit_3(capsys):
    # the audit's depth array would take 5 * 10^17 bytes: the allocation
    # fails at once, and no verdict was reached
    assert main(["audit", "--max-k", str(10**18)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def _fresh_env() -> dict[str, str]:
    src = str(Path(weightdescent.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _fresh_process(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=_fresh_env(), timeout=60)


def _assert_runs_as_a_module(module):
    done = _fresh_process("-m", module, "reduce", "16")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "k = 16, p = 17: d = 2, m = 8, t = 5, dt = 10; k' = 12 or 8\n"


def test_package_runs_as_a_module():
    _assert_runs_as_a_module("weightdescent")


def test_cli_module_runs_as_a_module():
    _assert_runs_as_a_module("weightdescent.cli")


def test_importing_the_package_imports_none_of_its_modules():
    done = _fresh_process("-c", "import sys, weightdescent\n"
                          "print(sorted(m for m in sys.modules if m.startswith('weightdescent.')))")
    assert (done.returncode, done.stderr, done.stdout) == (0, "", "[]\n")


@pytest.mark.parametrize("argv", [["table", "--format", "json"], ["audit", "--max-k", "1000"]])
def test_a_closed_stdout_exits_141_without_a_traceback(argv):
    # not 1, which would read as a violation
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "weightdescent", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, env=_fresh_env(), timeout=60)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, "")


class TestSharedParser:
    """`main` parses with one parser per process; no call may leave state in
    it that a later call sees."""

    def test_calls_in_one_process_match_fresh_processes(self, capsys):
        for argv in (["table", "--strict"], ["table"], ["table", "--strict", "--format", "json"],
                     ["table", "--format", "json"]):
            code = main(argv)
            fresh = _fresh_process("-m", "weightdescent", *argv)
            assert (code, capsys.readouterr().out) == (fresh.returncode, fresh.stdout), argv

    @pytest.mark.parametrize("bad", [["reduce", "x"], ["no-such-command"], ["table", "--bogus"]])
    def test_a_valid_call_works_after_a_usage_error(self, capsys, bad):
        with pytest.raises(SystemExit) as exit_info:
            main(bad)
        assert exit_info.value.code == 2
        capsys.readouterr()
        assert main(["reduce", "16"]) == 0
        assert capsys.readouterr().out == "k = 16, p = 17: d = 2, m = 8, t = 5, dt = 10; k' = 12 or 8\n"

    def test_import_builds_no_parser_and_main_builds_one(self):
        script = (
            "import argparse, contextlib, io, json\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "from weightdescent import cli\n"
            "counts = [len(built)]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    for k in ('16', '18'):\n"
            "        cli.main(['reduce', k])\n"
            "        counts.append(len(built))\n"
            "print(json.dumps(counts))\n"
        )
        done = _fresh_process("-c", script)
        assert done.returncode == 0, done.stderr
        at_import, after_first, after_second = json.loads(done.stdout)
        assert at_import == 0
        assert after_first > 0
        assert after_second == after_first


# the grammar's words come from the parser, so a new subcommand or option is drawn unasked
_READERS = build_parser().readers
_FIRST_WORDS = tuple(_READERS) + (
    "nope", "GAPS", "gap", "char-demo", "-h", "--help", "--he", "--", "--format", "-x", "")
# every reader's option strings, then abbreviations and words that no reader takes
_OPTIONS = tuple(dict.fromkeys(option for reader in _READERS.values()
                               for option in reader.options)) + (
    "--lo", "--l", "--hi", "--pol", "--form", "--f", "--str", "--max", "--m", "--dig", "--typo",
    "--tr", "--help", "--bogus")
_VALUES = ("16", "100", "0", "-3", "x", "1/3", "1/0", "json", "text", "xml", "demo", "verify",
           "S3", "longest", "hi-branch", "", "a b")
_words = (st.sampled_from(_OPTIONS + _VALUES + ("-h", "-x", "--"))
          | st.builds("{}={}".format, st.sampled_from(_OPTIONS), st.sampled_from(_VALUES)))
_parser_argv = st.just([]) | st.builds(lambda first, rest: [first, *rest],
                                       st.sampled_from(_FIRST_WORDS), st.lists(_words, max_size=8))


def _parsed(parse, argv):
    """(the namespace's fields or the exit status, stdout, stderr) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(list(argv)))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


class TestDirectDispatch:
    """`main` parses through `cli._parse`, which reads a plain subcommand argv
    from that subcommand's own argument actions and hands every other argv
    to argparse; the top-level parse stays the oracle."""

    @given(argv=_parser_argv)
    @example(argv=["reduce", "16", "extra", "--bogus"])
    @example(argv=["gaps", "--lo", "40", "--hi=300", "--low", "50"])
    @example(argv=["chain", "100", "--pol", "longest", "--", "--format"])
    @example(argv=["reduce", "--", "16"])
    @example(argv=["threshold", "--digits", "0"])
    @example(argv=["table", "-h"])
    @example(argv=["table", "--strict", "-h"])
    @example(argv=["char"])
    # values starting with "-", which argparse reads as negative numbers
    @example(argv=["threshold", "--a", "-1/3"])
    @example(argv=["gaps", "--low", "-5"])
    @example(argv=["reduce", "-4"])
    # repeated options: the last one wins
    @example(argv=["audit", "--max-k", "10", "--max-k", "20"])
    @example(argv=["table", "--strict", "--strict"])
    # a choices and a type failure
    @example(argv=["chain", "36", "--policy", "sideways"])
    @example(argv=["reduce", "x"])
    # a missing and an extra positional
    @example(argv=["chain", "--policy", "longest"])
    @example(argv=["reduce", "16", "17"])
    @settings(max_examples=400, deadline=None)
    def test_parses_as_the_top_level_parser(self, argv):
        assert _parsed(cli._parse, argv) == _parsed(build_parser().parse_args, argv)

    @pytest.mark.parametrize("name", list(_READERS))
    def test_every_default_parses_as_the_top_level_parser(self, name):
        # the subcommand with no options; a positional takes its first choice, or 16
        reader = _READERS[name]
        assert name in _FIRST_WORDS and set(reader.options) <= set(_OPTIONS)
        argv = [name, *(str(next(iter(action.choices))) if action.choices else "16"
                        for action in reader.positionals)]
        assert _parsed(cli._parse, argv) == _parsed(build_parser().parse_args, argv)

    def test_every_argument_of_a_subcommand_is_read_as_a_store_or_a_flag(self):
        parser = build_parser()
        [subparsers] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert parser.readers.keys() == subparsers.choices.keys()
        for name, sub in subparsers.choices.items():
            reader = parser.readers[name]
            read = [*reader.options.values(), *reader.positionals]
            arguments = [a for a in sub._actions if not isinstance(a, argparse._HelpAction)]
            assert {id(a) for a in read} == {id(a) for a in arguments}, name
            for action in arguments:
                assert type(action) in (argparse._StoreAction, argparse._StoreTrueAction), name
                assert action.nargs is None or action.const is True, name

    ONE_OF_EACH = (["table"], ["reduce", "16"], ["chain", "36", "--policy", "longest"],
                   ["audit", "--max-k", "100"], ["gaps", "--high", "100"],
                   ["gaps-shifted", "--high", "100"], ["threshold", "--digits", "10"],
                   ["star", "--m-max", "10", "--d-max", "3"], ["mbound", "--max-k", "100"],
                   ["char", "demo", "--group", "C3"])

    def test_a_subcommand_argv_never_runs_the_top_level_parse(self, capsys, monkeypatch):
        # nor a subcommand's parse, unless the reader declines the argv
        assert sorted(argv[0] for argv in self.ONE_OF_EACH) == sorted(build_parser().readers)
        calls = []
        parse = argparse.ArgumentParser.parse_known_args

        def spy(self, *args, **kwargs):
            calls.append(self.prog)
            return parse(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spy)
        for argv in self.ONE_OF_EACH:
            assert main([*argv, "--format", "json"]) == 0, argv
        assert calls == []
        assert main(["chain", "36", "--pol", "longest"]) == 0
        assert calls == ["weightdescent", "weightdescent chain"]
        with pytest.raises(SystemExit):
            main(["--format", "json", "table"])
        assert calls == ["weightdescent", "weightdescent chain", "weightdescent"]


class TestJsonRoundTrip:
    def test_dict_keys_render_as_strings_in_string_order(self):
        report = descent.TerminationReport(True, 3, (20, 10, 8), (32, 1000), {2: 1, 10: 1}, 5, 4)
        assert canonical_json(report) == (
            '{\n  "edge_count": 4,\n  "longest_chain_length": 3,\n'
            '  "longest_chain_path": [\n    20,\n    10,\n    8\n  ],\n'
            '  "node_count": 5,\n  "skip_histogram": {\n    "10": 1,\n    "2": 1\n  },\n'
            '  "terminates": true,\n  "weights_with_skips": [\n    32,\n    1000\n  ]\n}'
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "--format", "json"],
            ["reduce", "20", "--format", "json"],
            ["chain", "30", "--format", "json"],
            ["gaps", "--low", "20", "--high", "40", "--format", "json"],
            ["threshold", "--digits", "15", "--format", "json"],
            ["star", "--m-max", "12", "--d-max", "4", "--format", "json"],
            ["mbound", "--max-k", "100", "--format", "json"],
            ["audit", "--max-k", "100", "--format", "json"],
        ],
    )
    def test_parse_and_reserialize_is_byte_identical(self, capsys, argv):
        main(argv)
        out = capsys.readouterr().out.rstrip("\n")
        assert canonical_json(json.loads(out)) == out

    @pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*.json.txt")))
    def test_every_golden_reserializes_byte_identically(self, name):
        text = (GOLDEN / name).read_text(encoding="utf-8").rstrip("\n")
        assert canonical_json(json.loads(text)) == text


@dataclass(frozen=True)
class Plain:
    name: object
    values: object


@dataclass(frozen=True)
class Judged:
    ok: bool
    detail: object

    @property
    def passed(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class Empty:
    pass


report_leaves = (st.none() | st.booleans() | st.integers(-10**30, 10**30) | st.text(max_size=6)
                 | st.fractions() | st.decimals())
report_values = st.recursive(
    report_leaves,
    lambda inner: (
        st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(st.integers(-20, 20) | st.text(max_size=3), inner, max_size=4)
        | st.builds(Plain, inner, inner) | st.builds(Judged, st.booleans(), inner)
        | st.just(Empty())
    ),
    max_leaves=25,
)


class TestCanonicalJson:
    """The one-pass writer gives the bytes of the two-pass rendering it
    replaced, `report_data` then `json.dumps(indent=2, sort_keys=True)`,
    kept in `tests/oracles.py`."""

    @given(value=report_values)
    @example(value={10: 1, 2: [], "1": (), 1: {}})
    @example(value=Judged(False, Plain(Decimal("-0E-86859"), [Fraction(-3, 7), None, True])))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_oracle_on_nested_values(self, value):
        assert canonical_json(value) == json_oracle(value)

    @pytest.mark.parametrize("value", [
        [], (), {}, Empty(), [[], (), {}, Empty()], {"a": {}, "b": [()]},
        Fraction(-3, 7), Fraction(5), Decimal("-0E-86859"), Decimal("1.50"), Decimal("-Infinity"),
        None, True, False, 0, -(10**40),
        "é ☃ \U0001F600 \ud800 \n \" \\ \x7f", {"é": "ü", "\U0001F600": None},
        {10: 1, 2: 1}, {True: 1, None: 2, Fraction(1, 2): 3},
    ])
    def test_equals_the_oracle_on_edge_values(self, value):
        assert canonical_json(value) == json_oracle(value)

    def test_every_report_of_a_queries_batch(self, monkeypatch):
        # the benchmark's 288-request queries stream, one request of each
        # kind 32 times, every report rendered both ways
        monkeypatch.syspath_prepend(str(PERFBENCH))
        from workloads import batch

        requests = batch("queries", 0, 0)
        assert len(requests) == 288
        for argv in requests:
            args = build_parser().parse_args(argv)
            report, _, _ = args.handler(args)
            assert canonical_json(report) == json_oracle(report), argv


# the report fields that count what a run checked; a run that exits 0 must
# have checked something
COUNTS = {"edge_count", "pairs_checked", "checked", "checks_run"}


def _counts(data) -> list[int]:
    if isinstance(data, dict):
        return [v for k, v in data.items() if k in COUNTS] + [
            n for v in data.values() for n in _counts(v)]
    if isinstance(data, list):
        return [n for v in data for n in _counts(v)]
    return []


_group_names = st.tuples(
    st.sampled_from(SUITE_NAMES + ("D5", "C13", "E8", "S5", "C0", "D1", "suite", "")),
    st.sampled_from((str, str.lower, str.upper)),
).map(lambda t: t[1](t[0]))
_small = st.integers(-10, 30)
_argv = st.one_of(
    st.tuples(st.just("table"), st.sampled_from([[], ["--strict"]])),
    st.tuples(st.just("reduce"), st.integers(-10, 5000).map(lambda k: [str(k)])),
    st.tuples(st.just("chain"), st.tuples(st.integers(-10, 5000), st.sampled_from(
        descent.CHAIN_POLICIES)).map(lambda t: [str(t[0]), "--policy", t[1]])),
    st.tuples(st.sampled_from(["audit", "mbound"]),
              st.integers(-10, 2000).map(lambda k: ["--max-k", str(k)])),
    st.tuples(st.sampled_from(["gaps", "gaps-shifted"]), st.tuples(
        st.integers(-10, 5000), st.integers(-10, 5000)).map(
        lambda t: ["--low", str(t[0]), "--high", str(t[1])])),
    st.tuples(st.just("threshold"), st.tuples(st.integers(1, 60), st.booleans()).map(
        lambda t: ["--digits", str(t[0])] + ["--typo-variant"] * t[1])),
    st.tuples(st.just("star"), st.tuples(_small, _small).map(
        lambda t: ["--m-max", str(t[0]), "--d-max", str(t[1])])),
    st.tuples(st.just("char"), st.tuples(
        st.sampled_from(["demo", "verify"]), _group_names | st.just("all"),
        st.integers(0, 9), st.integers(1, 3), st.integers(1, 3)).map(
        lambda t: [t[0], "--group", t[1], "--seed", str(t[2]),
                   "--draws", str(t[3]), "--trials", str(t[4])])),
)


@given(argv=_argv)
@settings(max_examples=150, deadline=None)
def test_any_small_argv_gives_an_honest_exit_status(argv):
    """Every subcommand on small arguments, in both formats: the status is a
    documented one and the same in both, no exception escapes `main`, and a
    pass (exit 0) never rests on zero checked items."""
    command, rest = argv
    codes = []
    for fmt in ("text", "json"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            codes.append(main([command, *rest, "--format", fmt]))
        if codes[-1] == 2:
            assert out.getvalue() == "" and err.getvalue().startswith("error: ")
    assert codes[0] == codes[1] and codes[0] in (0, 1, 2, 3)
    if codes[0] == 0:
        assert all(n >= 1 for n in _counts(json.loads(out.getvalue())))
