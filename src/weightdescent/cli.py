"""Command-line surface: every audit as a subcommand, text or JSON output,
run as `python -m weightdescent` or the `weightdescent` script.

Exit status: 0 when every check passed, 1 on any violation (a reference-
table divergence only fails `table` under --strict), 2 on usage or input
errors, among them a gap range holding no adjacent prime pair, a
non-positive draw, trial or digit count and an unreadable or malformed group
file, and 3 when the verdict is inconclusive (a `threshold` enclosure
straddling x0, reported as "inconclusive" and `below_x0: null`), a
reduction step breaks its invariants, a prime cannot be certified beyond
psi13 ~ 3.3 * 10^24 or the run exhausts memory (a DescentError,
CannotCertifyError or MemoryError, reported on one `error:` line), and 141,
with nothing on stderr, when the reader of stdout closed it early.
Defaults reproduce the canonical parameters: gap range (37, 100000],
bounds 143/125 (gaps) and 23/20 (gaps-shifted), B = 1130289/1000000,
a = 143/125 with A = 1 fixed, and audit max_k = 10^6.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from collections.abc import Callable
from dataclasses import fields
from decimal import Decimal
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter

from . import descent, gaps
from .charconj.campaigns import (
    frobenius_campaign,
    invariance_campaign,
    mackey_campaign,
    random_brauer_spec,
)
from .charconj.characters import verify_conjugation_invariance
from .charconj.cyclotomic import galois_exponents
from .charconj.groups import builtin_group, load_group
from .numeric import CHEBYSHEV_B, RATIO_BOUND, SHIFTED_RATIO_BOUND
from .primes import CannotCertifyError, sieve

# Text mode lists at most this many gap violations; JSON lists them all.
TEXT_VIOLATIONS = 20


def canonical_json(report) -> str:
    """A report as JSON with sorted keys and a two-space indent; loads and
    canonical_json round-trip byte-identically.

    None, bools, str and int are leaves, a Fraction renders as "n/d", a
    Decimal as its digit string, dict keys as strings, sorted as strings, and
    tuples as lists.  Any other value must be a dataclass: it renders field by
    field under its field names, plus "verdict" when it derives `passed` as a
    property.  A float, which no report holds, raises TypeError rather than
    print inexactly.  The bytes are those of json.dumps(..., indent=2,
    sort_keys=True), written in one pass: each piece is appended to one list,
    joined once.
    """
    out: list[str] = []
    _writer(type(report))(report, "\n", out)
    return "".join(out)


# A writer appends the JSON of a value to out; nl is a newline and the
# indentation of the line the value starts on.
Writer = Callable[[object, str, list[str]], None]


def _write_list(items, nl: str, out: list[str]) -> None:
    if not items:
        out.append("[]")
        return
    inner = nl + "  "
    sep = "[" + inner
    for item in items:
        out.append(sep)
        _writer(type(item))(item, inner, out)
        sep = "," + inner
    out.append(nl + "]")


def _write_members(members, nl: str, out: list[str]) -> None:
    """An object from (quoted key, value) pairs in key order."""
    if not members:
        out.append("{}")
        return
    inner = nl + "  "
    sep = "{" + inner
    for key, item in members:
        out.append(f"{sep}{key}: ")
        _writer(type(item))(item, inner, out)
        sep = "," + inner
    out.append(nl + "}")


def _write_dict(value: dict, nl: str, out: list[str]) -> None:
    # keys collide and sort as the strings they render as
    items = sorted({str(k): v for k, v in value.items()}.items())
    _write_members([(_quote(k), v) for k, v in items], nl, out)


def _dataclass_writer(cls: type) -> Writer:
    """The writer of a dataclass: its sorted field names and their getters,
    with "verdict" among them when cls derives `passed` as a property.
    fields raises TypeError for any other class."""
    getters = {f.name: attrgetter(f.name) for f in fields(cls)}
    if isinstance(getattr(cls, "passed", None), property):
        getters["verdict"] = lambda report: "pass" if report.passed else "fail"
    keyed = [(_quote(name), getters[name]) for name in sorted(getters)]

    def write(value, nl: str, out: list[str]) -> None:
        _write_members([(key, get(value)) for key, get in keyed], nl, out)

    return write


@functools.cache
def _writer(cls: type) -> Writer:
    """The writer of values of type cls, chosen once per type."""
    if cls is type(None):
        return lambda value, nl, out: out.append("null")
    if issubclass(cls, bool):
        return lambda value, nl, out: out.append("true" if value else "false")
    if issubclass(cls, str):
        return lambda value, nl, out: out.append(_quote(value))
    if issubclass(cls, int):
        return lambda value, nl, out: out.append(int.__repr__(value))
    if issubclass(cls, (list, tuple)):
        return _write_list
    if issubclass(cls, dict):
        return _write_dict
    if issubclass(cls, Fraction):
        return lambda value, nl, out: out.append(f'"{value.numerator}/{value.denominator}"')
    if issubclass(cls, Decimal):
        return lambda value, nl, out: out.append(_quote(str(value)))
    return _dataclass_writer(cls)


def _load_cli_group(name_or_path: str):
    if name_or_path.endswith(".json"):
        try:
            with open(name_or_path, encoding="utf-8") as fh:
                return load_group(json.load(fh))
        except OSError as exc:
            raise ValueError(f"cannot read group file {name_or_path}: {exc.strerror}") from exc
    return builtin_group(name_or_path)


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
    rows = descent.reference_table()
    lines = [_fmt_step(r) for r in rows]
    divergent = [r.k for r in rows if not r.matches_paper]
    if divergent:
        lines.append(f"divergent rows: {divergent}")
    passed = not (args.strict and divergent)
    return {"rows": rows}, lines, passed


def _cmd_reduce(args):
    step = descent.reduction_step(args.k)
    return step, [_fmt_step(step)], True


def _cmd_chain(args):
    path, walked = descent.chain(args.k, args.policy)
    payload = {
        "k": args.k,
        "policy": args.policy,
        "length": len(path),
        "path": walked,
        "steps": path,
    }
    lines = [" -> ".join(str(w) for w in walked), f"length {len(path)}"]
    return payload, lines, True


def _cmd_audit(args):
    report = descent.audit(args.max_k)
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
    return report, lines, report.passed


def _gap_lines(report) -> list[str]:
    lines = [
        f"range ({report.range[0]}, {report.range[1]}], bound "
        f"{report.bound.numerator}/{report.bound.denominator}"
        + (" on (p-1)-shifted ratios" if report.shifted else ""),
        f"pairs checked: {report.pairs_checked}",
    ]
    if report.violations:
        shown = report.violations[:TEXT_VIOLATIONS]
        more = len(report.violations) - len(shown)
        lines.append(f"violations: {[list(v) for v in shown]}"
                     + (f" ... and {more} more" if more else ""))
    else:
        lines.append("violations: none")
    if report.max_ratio_pair:
        lines.append(f"max ratio pair: {report.max_ratio_pair}")
    lines.append(f"verdict: {'pass' if report.passed else 'fail'}")
    return lines


def _cmd_gaps(args):
    shifted = args.command == "gaps-shifted"
    gaps.positive_bound(args.bound)  # before the sieve, which a large --high makes slow
    table = sieve(args.high)
    fn = gaps.verify_shifted_ratio if shifted else gaps.verify_ratio
    report = fn(table, args.low, args.high, args.bound)
    if report.pairs_checked == 0:
        raise ValueError(f"no adjacent prime pair in ({args.low}, {args.high}]")
    return report, _gap_lines(report), report.passed


_VERDICT_WORDS = {True: "true", False: "false", None: "inconclusive"}


def _cmd_threshold(args):
    result = gaps.chebyshev_threshold(B=args.b, a=args.a, digits=args.digits,
                                      typo_variant=args.typo_variant)
    formula = "a*C/(a-C)" if args.typo_variant else "a^(C/(a-C))"
    lines = [
        f"A = 1, B = {result.B}, a = {result.a}, C = {result.C}",
        f"exponent C/(a-C) in {result.exponent}",
        f"{formula} in {result.threshold}  (width {result.threshold.width()})",
        f"below x0 = {result.x0}: {_VERDICT_WORDS[result.below_x0]}",
    ]
    return result, lines, result.below_x0


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
    return report, lines, report.passed


def _cmd_mbound(args):
    report = gaps.m_bound_check(args.max_k)
    lines = [
        f"even k in (36, {report.k_range[1]}]: {report.checked} weights checked, "
        f"{len(report.failures)} failures",
        f"boundary case outside the range: k = {report.near_miss['k']}, "
        f"p = {report.near_miss['p']} gives ratio {report.near_miss['ratio']} "
        f"and m = {report.near_miss['m']}",
        f"verdict: {'pass' if report.passed else 'fail'}",
    ]
    return report, lines, report.passed


def _cmd_char(args):
    if args.mode == "verify":
        if args.group.endswith(".json"):
            raise ValueError(f"char verify runs builtin groups only; {args.group} is a group file")
        kwargs = {} if args.group == "all" else {"names": (args.group,)}
        reports = [
            frobenius_campaign(draws=args.draws, seed=args.seed, **kwargs),
            mackey_campaign(draws=args.draws, seed=args.seed, **kwargs),
            invariance_campaign(trials=args.trials, seed=args.seed, **kwargs),
        ]
        lines = [
            f"{r.name}: {r.checks_run} checks over {', '.join(r.groups)} "
            f"(seed {r.seed}) -> {'pass' if r.passed else 'FAIL'}"
            for r in reports
        ]
        return {"campaigns": reports}, lines, all(r.passed for r in reports)

    # demo: one seeded combination on the chosen group, conjugated and checked
    group = _load_cli_group(args.group)
    rng = random.Random(args.seed)
    spec = random_brauer_spec(rng, group)
    units = galois_exponents(spec.conductor())
    j = units[0] if units else 1
    report = verify_conjugation_invariance(spec, j)
    payload = {
        "group": group.name,
        "seed": args.seed,
        "summands": [
            {"coefficient": s.coefficient, "subgroup_order": s.subgroup.order}
            for s in spec.summands
        ],
        "invariance": report,
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser for every subcommand, built on first use and then shared:
    parsing leaves it unchanged, and each call gets a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="weightdescent",
        description="Exact re-execution of the weight-descent, prime-gap and "
        "character-conjugation audits.",
    )
    common = argparse.ArgumentParser(add_help=False)
    fmt = common.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)
    own: dict[str, list[argparse.Action]] = {}  # name -> the actions add_argument returned

    p = sub.add_parser("table", parents=[common], help="the 12 reference rows, flagged")
    p.set_defaults(handler=_cmd_table)
    own["table"] = [p.add_argument(
        "--strict", action="store_true",
        help="fail (exit 1) when a row diverges from the published values")]

    p = sub.add_parser("reduce", parents=[common], help="one reduction step")
    p.set_defaults(handler=_cmd_reduce)
    own["reduce"] = [p.add_argument("k", type=int)]

    p = sub.add_parser("chain", parents=[common], help="a descent path to the base set")
    p.set_defaults(handler=_cmd_chain)
    own["chain"] = [p.add_argument("k", type=int),
                    p.add_argument("--policy", choices=descent.CHAIN_POLICIES, default="hi-branch")]

    p = sub.add_parser("audit", parents=[common], help="full descent audit")
    p.set_defaults(handler=_cmd_audit)
    own["audit"] = [p.add_argument("--max-k", type=int, default=1_000_000)]

    for name, help_text, bound in (("gaps", "consecutive-prime ratio scan", RATIO_BOUND),
                                   ("gaps-shifted", "(p-1)-shifted ratio scan",
                                    SHIFTED_RATIO_BOUND)):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.set_defaults(handler=_cmd_gaps)
        own[name] = [p.add_argument("--low", type=int, default=37),
                     p.add_argument("--high", type=int, default=gaps.X0),
                     p.add_argument("--bound", type=_fraction, default=bound,
                                    help="rational bound (default %(default)s)")]

    p = sub.add_parser("threshold", parents=[common], help="Chebyshev threshold enclosure")
    p.set_defaults(handler=_cmd_threshold)
    own["threshold"] = [p.add_argument("--a", type=_fraction, default=RATIO_BOUND),
                        p.add_argument("--b", type=_fraction, default=CHEBYSHEV_B),
                        p.add_argument("--digits", type=_positive_int, default=30),
                        p.add_argument("--typo-variant", action="store_true",
                                       help="evaluate a*C/(a-C) instead of a^(C/(a-C))")]

    p = sub.add_parser("star", parents=[common], help="twist-family quotient grid")
    p.set_defaults(handler=_cmd_star)
    own["star"] = [p.add_argument("--m-max", type=int, default=200),
                   p.add_argument("--d-max", type=int, default=200)]

    p = sub.add_parser("mbound", parents=[common], help="m > 6 bound scan")
    p.set_defaults(handler=_cmd_mbound)
    own["mbound"] = [p.add_argument("--max-k", type=int, default=1_000_000)]

    p = sub.add_parser("char", parents=[common], help="character-suite demo or verification")
    p.set_defaults(handler=_cmd_char)
    own["char"] = [p.add_argument("mode", choices=("demo", "verify")),
                   p.add_argument("--group", default="S3",
                                  help="builtin name (C<n>, D<n>, S3, S4, Q8); verify also takes "
                                  "'all', demo also a path to a .json table"),
                   p.add_argument("--seed", type=int, default=0),
                   p.add_argument("--draws", type=_positive_int, default=50),
                   p.add_argument("--trials", type=_positive_int, default=100)]

    parser.readers = {name: _Reader(name, p.get_default("handler"), [fmt, *own[name]])
                      for name, p in sub.choices.items()}
    return parser


class _Reader:
    """A subcommand's plain argvs, read from its own argument actions: each
    a single-valued store or a store_true flag.

    read(words) takes the words after the subcommand's name and returns the
    namespace argparse would, or None for any argv it does not decide
    exactly: a word or an option value starting with "-" that is not one of
    the actions' exact option strings (so every abbreviation, "--x=y" form,
    "--", "-h" and negative number), a value that fails its type or choices,
    and a missing or extra positional.  A value goes through type and then
    choices, as argparse checks it, and the last occurrence of an option wins.
    """

    def __init__(self, name: str, handler: Callable, actions: list[argparse.Action]):
        self.defaults = {"command": name, "handler": handler,
                         **{action.dest: action.default for action in actions}}
        self.options = {option: action for action in actions for option in action.option_strings}
        self.positionals = [action for action in actions if not action.option_strings]

    def read(self, words: list[str]) -> argparse.Namespace | None:
        values = dict(self.defaults)
        positionals = iter(self.positionals)
        words = iter(words)
        for word in words:
            if word.startswith("-"):
                action = self.options.get(word)
                if action is None:
                    return None
                if action.nargs == 0:
                    values[action.dest] = action.const
                    continue
                word = next(words, None)
                if word is None or word.startswith("-"):
                    return None
            else:
                action = next(positionals, None)
                if action is None:
                    return None
            try:
                value = word if action.type is None else action.type(word)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
            if action.choices is not None and value not in action.choices:
                return None
            values[action.dest] = value
        if next(positionals, None) is not None:
            return None
        return argparse.Namespace(**values)


def _parse(argv: list[str]) -> argparse.Namespace:
    """build_parser().parse_args(argv), read by the subcommand's _Reader
    when the first word names a subcommand and the reader decides the rest;
    argparse parses every other argv, so it alone writes help and usage
    errors."""
    parser = build_parser()
    reader = parser.readers.get(argv[0]) if argv else None
    args = reader.read(argv[1:]) if reader else None
    return parser.parse_args(argv) if args is None else args


def main(argv=None) -> int:
    """Execute one subcommand; returns the process exit status."""
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        report, lines, passed = args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (descent.DescentError, CannotCertifyError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    try:
        if args.format == "json":
            print(canonical_json(report))
        else:
            for line in lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout.  Point it at devnull so that the flush at
        # exit cannot fail again, and exit as a process killed by SIGPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141
    if passed is None:
        return 3
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
