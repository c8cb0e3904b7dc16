"""Command-line surface: every audit as a subcommand, text or JSON output.

Exit status: 0 when every check passed, 1 on any violation (a reference-
table divergence only fails `table` under --strict), 2 on usage or input
errors, among them a gap range holding no adjacent prime pair, a
non-positive draw or trial count and an unreadable group file.
Defaults reproduce the canonical parameters: gap range (37, 100000],
bounds 143/125 and 23/20, A = 1, B = 1130289/1000000, a = 143/125,
audit max_k = 10^6.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction
from math import gcd

from . import descent, gaps
from .charconj import (
    builtin_group,
    frobenius_campaign,
    invariance_campaign,
    load_group,
    mackey_campaign,
    random_brauer_spec,
    verify_conjugation_invariance,
)
from .numeric import CHEBYSHEV_A, CHEBYSHEV_B, RATIO_BOUND, SHIFTED_RATIO_BOUND
from .primes import sieve

SIEVE_LIMIT_ENV = "WEIGHTDESCENT_SIEVE_LIMIT"


def canonical_json(payload) -> str:
    """Canonical serialization: loads/dumps round-trips byte-identically."""
    return json.dumps(payload, indent=2, sort_keys=True)


def _table_for(limit: int):
    env = os.environ.get(SIEVE_LIMIT_ENV)
    if env:
        limit = max(limit, int(env))
    return sieve(limit)


def _load_cli_group(name_or_path: str):
    if name_or_path.endswith(".json"):
        try:
            with open(name_or_path, encoding="utf-8") as fh:
                return load_group(json.load(fh))
        except OSError as exc:
            raise ValueError(f"cannot read group file {name_or_path}: {exc.strerror}") from exc
    return builtin_group(name_or_path)


def _even_weight(text: str) -> int:
    k = int(text)
    if k % 2 != 0 or k <= 0:
        raise argparse.ArgumentTypeError(f"{k} is not a positive even weight")
    return k


def _positive_int(text: str) -> int:
    n = int(text)
    if n <= 0:
        raise argparse.ArgumentTypeError(f"{n} is not a positive count")
    return n


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _fmt_step(step) -> str:
    line = (
        f"k = {step.k}, p = {step.p}: d = {step.d}, m = {step.m}, "
        f"t = {step.t}, dt = {step.dt}; k' = {step.k_hi} or {step.k_lo}"
    )
    if step.matches_paper is True:
        line += "  [matches-paper]"
    elif step.matches_paper is False:
        line += "  [diverges-from-paper]"
    if step.prime_skips:
        line += f"  (skipped {step.prime_skips} prime{'s' if step.prime_skips > 1 else ''})"
    return line


def _cmd_table(args):
    rows = descent.reference_table(_table_for(64))
    payload = {"rows": [r.to_dict() for r in rows]}
    lines = [_fmt_step(r) for r in rows]
    divergent = [r.k for r in rows if not r.matches_paper]
    if divergent:
        lines.append(f"divergent rows: {divergent}")
    passed = not (args.strict and divergent)
    return payload, lines, passed


def _cmd_reduce(args):
    table = _table_for(args.k + 512)
    step = descent.reduction_step(args.k, table)
    return step.to_dict(), [_fmt_step(step)], True


def _cmd_chain(args):
    table = _table_for(args.k + 512)
    path, walked = descent.chain(args.k, args.policy, table)
    payload = {
        "k": args.k,
        "policy": args.policy,
        "length": len(path),
        "path": walked,
        "steps": [s.to_dict() for s in path],
    }
    lines = [" -> ".join(str(w) for w in walked), f"length {len(path)}"]
    return payload, lines, True


def _cmd_audit(args):
    table = _table_for(args.max_k + 512)
    report = descent.audit(args.max_k, table)
    term = report.termination
    lines = [
        f"audit to max_k = {report.max_k}: {'pass' if report.passed else 'FAIL'}",
        f"nodes {term.node_count}, reduced {term.edge_count}, terminates: {term.terminates}",
        f"longest chain length {term.longest_chain_length}: "
        + " -> ".join(str(w) for w in term.longest_chain_path),
        f"weights needing skipped primes: {list(term.weights_with_skips)}",
        f"skip histogram: { {k: v for k, v in sorted(term.skip_histogram.items())} }",
        f"ratio failures: {len(report.ratio_failures)}, "
        f"m-bound failures: {len(report.m_bound_failures)}, "
        f"skip failures: {len(report.skip_failures)}",
    ]
    return report.to_dict(), lines, report.passed


def _gap_lines(report) -> list[str]:
    lines = [
        f"range ({report.low}, {report.high}], bound "
        f"{report.bound.numerator}/{report.bound.denominator}"
        + (" on (p-1)-shifted ratios" if report.shifted else ""),
        f"pairs checked: {report.pairs_checked}",
    ]
    if report.violations:
        lines.append(f"violations: {[list(v) for v in report.violations]}")
    else:
        lines.append("violations: none")
    if report.max_ratio_pair:
        lines.append(f"max ratio pair: {report.max_ratio_pair}")
    lines.append(f"verdict: {'pass' if report.passed else 'fail'}")
    return lines


def _cmd_gaps(args):
    shifted = args.command == "gaps-shifted"
    table = _table_for(args.high)
    bound = args.bound
    if bound is None:
        bound = SHIFTED_RATIO_BOUND if shifted else RATIO_BOUND
    fn = gaps.verify_shifted_ratio if shifted else gaps.verify_ratio
    report = fn(table, args.low, args.high, bound)
    if report.pairs_checked == 0:
        raise ValueError(f"no adjacent prime pair in ({args.low}, {args.high}]")
    return report.to_dict(), _gap_lines(report), report.passed


def _cmd_threshold(args):
    result = gaps.chebyshev_threshold(
        A=CHEBYSHEV_A, B=args.b, a=args.a, digits=args.digits, typo_variant=args.typo_variant,
    )
    formula = "a*C/(a-C)" if args.typo_variant else "a^(C/(a-C))"
    lines = [
        f"A = 1, B = {result.B}, a = {result.a}, C = {result.C}",
        f"exponent C/(a-C) in {result.exponent}",
        f"{formula} in {result.threshold}  (width {result.threshold.width()})",
        f"below x0 = {gaps.X0}: {'true' if result.below_x0 else 'false'}",
    ]
    return result.to_dict(), lines, result.below_x0


def _cmd_star(args):
    report = gaps.star_inequality_check(args.m_max, args.d_max)
    lines = [
        f"grid m in (6, {report.m_max}], d in [1, {report.d_max}]: "
        f"{report.checked} cells, {len(report.failures)} failures",
    ]
    for head in report.family_heads:
        mark = "ok" if head["matches"] else "MISMATCH"
        lines.append(f"m = {head['m']:>2}: p/k' = {head['quotient']}  [{mark}]")
    lines.append(f"verdict: {'pass' if report.passed else 'fail'}")
    return report.to_dict(), lines, report.passed


def _cmd_mbound(args):
    table = _table_for(args.max_k + 512)
    report = gaps.m_bound_check(table, args.max_k)
    lines = [
        f"even k in (36, {report.k_max}]: {report.checked} weights checked, "
        f"{len(report.failures)} failures",
        f"boundary case outside the range: k = {report.near_miss['k']}, "
        f"p = {report.near_miss['p']} gives ratio {report.near_miss['ratio']} "
        f"and m = {report.near_miss['m']}",
        f"verdict: {'pass' if report.passed else 'fail'}",
    ]
    return report.to_dict(), lines, report.passed


def _cmd_char(args):
    if args.mode == "verify":
        kwargs = {} if args.group in ("all", "suite") else {"names": (args.group,)}
        reports = [
            frobenius_campaign(draws=args.draws, seed=args.seed, **kwargs),
            mackey_campaign(draws=args.draws, seed=args.seed, **kwargs),
            invariance_campaign(trials=args.trials, seed=args.seed, **kwargs),
        ]
        payload = {"campaigns": [r.to_dict() for r in reports]}
        lines = [
            f"{r.name}: {r.checks_run} checks over {', '.join(r.groups)} "
            f"(seed {r.seed}) -> {'pass' if r.passed else 'FAIL'}"
            for r in reports
        ]
        return payload, lines, all(r.passed for r in reports)

    # demo: one seeded combination on the chosen group, conjugated and checked
    group = _load_cli_group(args.group)
    rng = random.Random(args.seed)
    spec = random_brauer_spec(rng, group)
    n = spec.conductor()
    j = next((x for x in range(2, n) if gcd(x, n) == 1), 1)
    report = verify_conjugation_invariance(spec, j)
    payload = {
        "group": group.name,
        "seed": args.seed,
        "summands": [
            {"coefficient": s.coefficient, "subgroup_order": s.subgroup.order}
            for s in spec.summands
        ],
        "invariance": report.to_dict(),
    }
    lines = [
        f"group {group.name}, seed {args.seed}: combination of "
        f"{len(spec.summands)} induced twisted characters",
        f"(rho, rho) = {report.self_product}",
        f"(rho^gamma, rho^gamma) = {report.conjugated_self_product}  (j = {report.j})",
        f"equal under conjugation: {report.equal_under_galois}"
        + (f", exactly equal: {report.equal_exactly}" if report.rational else ""),
    ]
    return payload, lines, report.passed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weightdescent",
        description="Exact re-execution of the weight-descent, prime-gap and "
        "character-conjugation audits.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", parents=[common], help="the 12 reference rows, flagged")
    p.set_defaults(handler=_cmd_table)
    p.add_argument("--strict", action="store_true",
                   help="fail (exit 1) when a row diverges from the published values")

    p = sub.add_parser("reduce", parents=[common], help="one reduction step")
    p.set_defaults(handler=_cmd_reduce)
    p.add_argument("k", type=_even_weight)

    p = sub.add_parser("chain", parents=[common], help="a descent path to the base set")
    p.set_defaults(handler=_cmd_chain)
    p.add_argument("k", type=_even_weight)
    p.add_argument("--policy", choices=descent.CHAIN_POLICIES, default="hi-branch")

    p = sub.add_parser("audit", parents=[common], help="full descent audit")
    p.set_defaults(handler=_cmd_audit)
    p.add_argument("--max-k", type=_even_weight, default=1_000_000)

    for name, help_text in (("gaps", "consecutive-prime ratio scan"),
                            ("gaps-shifted", "(p-1)-shifted ratio scan")):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.set_defaults(handler=_cmd_gaps)
        p.add_argument("--low", type=int, default=37)
        p.add_argument("--high", type=int, default=gaps.X0)
        p.add_argument("--bound", type=_fraction, default=None,
                       help="rational bound, e.g. 143/125 (defaults per subcommand)")

    p = sub.add_parser("threshold", parents=[common], help="Chebyshev threshold enclosure")
    p.set_defaults(handler=_cmd_threshold)
    p.add_argument("--a", type=_fraction, default=RATIO_BOUND)
    p.add_argument("--b", type=_fraction, default=CHEBYSHEV_B)
    p.add_argument("--digits", type=int, default=30)
    p.add_argument("--typo-variant", action="store_true",
                   help="evaluate a*C/(a-C) instead of a^(C/(a-C))")

    p = sub.add_parser("star", parents=[common], help="twist-family quotient grid")
    p.set_defaults(handler=_cmd_star)
    p.add_argument("--m-max", type=int, default=200)
    p.add_argument("--d-max", type=int, default=200)

    p = sub.add_parser("mbound", parents=[common], help="m > 6 bound scan")
    p.set_defaults(handler=_cmd_mbound)
    p.add_argument("--max-k", type=int, default=1_000_000)

    p = sub.add_parser("char", parents=[common], help="character-suite demo or verification")
    p.set_defaults(handler=_cmd_char)
    p.add_argument("mode", choices=("demo", "verify"))
    p.add_argument("--group", default="S3",
                   help="builtin name (C<n>, D<n>, S3, S4, Q8), 'all', or a .json table")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--draws", type=_positive_int, default=50)
    p.add_argument("--trials", type=_positive_int, default=100)
    return parser


def main(argv=None) -> int:
    """Execute one subcommand; returns the process exit status."""
    args = build_parser().parse_args(argv)
    try:
        payload, lines, passed = args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(canonical_json(payload))
    else:
        for line in lines:
            print(line)
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
