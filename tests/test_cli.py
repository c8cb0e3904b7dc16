import json
from fractions import Fraction

import pytest

from weightdescent.cli import build_parser, canonical_json, main


def test_parser_defaults_reproduce_canonical_parameters():
    parser = build_parser()
    args = parser.parse_args(["gaps"])
    assert (args.low, args.high) == (37, 100000)
    assert args.bound is None  # per-subcommand: 143/125 plain, 23/20 shifted
    args = parser.parse_args(["threshold"])
    assert args.a == Fraction(143, 125)
    assert args.b == Fraction(1130289, 1000000)
    assert parser.parse_args(["audit"]).max_k == 10**6
    assert parser.parse_args(["mbound"]).max_k == 10**6


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
        with pytest.raises(SystemExit) as exc:
            main(["reduce", "15"])
        assert exc.value.code == 2

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

    @pytest.mark.parametrize("command", ["gaps", "gaps-shifted"])
    @pytest.mark.parametrize("bounds", [["--high", "1"], ["--low", "37", "--high", "40"]])
    def test_range_without_pairs_is_usage_error(self, capsys, command, bounds):
        code = main([command, *bounds])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: no adjacent prime pair")
        assert captured.err.count("\n") == 1


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

    def test_degenerate_is_usage_error(self, capsys):
        code = main(["threshold", "--a", "1130289/1000000"])
        assert code == 2


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


class TestAudit:
    def test_small_audit(self, capsys):
        code, out = run_cli(capsys, "audit", "--max-k", "2000", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["termination"]["weights_with_skips"] == [32]


class TestJsonRoundTrip:
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


class TestEnvSieveLimit:
    def test_env_var_raises_table_limit(self, capsys, monkeypatch):
        monkeypatch.setenv("WEIGHTDESCENT_SIEVE_LIMIT", "5000")
        code, out = run_cli(capsys, "gaps", "--low", "37", "--high", "1000")
        assert code == 0
