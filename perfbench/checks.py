"""Reference-field checks of each subcommand's `--format json` output.

A checker reads only the keys it knows, so fields added to a report later
(a provenance block, timings) never count as failures.  It covers the
verdict, the item counts and the decisive witnesses.  Fixed requests are
compared with `reference.json`, captured from the program's output; requests
with seeded parameters are recomputed here with an independent sieve and the
recipe's arithmetic, without importing the program.
"""

from __future__ import annotations

import json
import os
from bisect import bisect_right
from decimal import Decimal
from fractions import Fraction
from math import gcd, isqrt

from metrics import SUITE_NAMES

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json"),
          encoding="utf-8") as _fh:
    REFERENCE = json.load(_fh)

BASE_WEIGHTS = frozenset({2, 4, 6, 8, 12, 14})
STEP_FIELDS = ("k", "p", "d", "m", "t", "dt", "k_hi", "k_lo", "prime_skips")
RATIO_BOUNDS = {False: Fraction(143, 125), True: Fraction(23, 20)}
X0 = 100_000


class Oracle:
    """Primality and consecutive primes from a plain sieve, built once."""

    def __init__(self, limit: int = 1_002_000):
        flags = bytearray(b"\x01") * (limit + 1)
        flags[0:2] = b"\x00\x00"
        for p in range(2, isqrt(limit) + 1):
            if flags[p]:
                flags[p * p :: p] = b"\x00" * ((limit - p * p) // p + 1)
        self.flags = flags
        self.primes = [i for i in range(X0 + 1) if flags[i]]

    def is_prime(self, n: int) -> bool:
        return 0 <= n < len(self.flags) and bool(self.flags[n])

    def next_prime(self, n: int) -> int:
        n += 1
        while not self.flags[n]:
            n += 1
        return n


def _choose_t(m: int) -> int | None:
    if m % 2 == 1:
        t = (m + 1) // 2
    elif m % 4 == 2:
        t = m // 2 + 2
    else:
        t = m // 2 + 1
    return t if gcd(t, m) == 1 and 1 < t < m - 1 else None


def _options(argv: list[str]) -> dict[str, str]:
    return {argv[i][2:]: argv[i + 1] for i in range(len(argv) - 1)
            if argv[i].startswith("--") and not argv[i + 1].startswith("--")}


class Checker:
    def __init__(self):
        self.oracle = Oracle()
        self.table_rows = {row["k"]: row for row in REFERENCE["table_rows"]}

    def check(self, argv: list[str], payload: dict) -> tuple[int, list[str]]:
        """(items checked, problems) for one request's parsed output."""
        command = argv[0]
        if command == "char":
            command = f"char-{argv[1]}"
        handler = getattr(self, "_" + command.replace("-", "_"))
        problems: list[str] = []
        try:
            items = handler(_options(argv), argv, payload, problems)
        except (KeyError, TypeError, IndexError, ValueError, ArithmeticError) as exc:
            return 0, [f"malformed output: {exc!r}"]
        if items < 1:
            problems.append("no items checked")
        return items, problems

    # one step of the recipe at weight k, against the reference rows or the
    # recomputed arithmetic
    def _step(self, step: dict, k: int, problems: list[str]) -> None:
        if k in self.table_rows:
            row = self.table_rows[k]
            if any(step[f] != row[f] for f in STEP_FIELDS):
                problems.append(f"step at k = {k} differs from the reference row")
            return
        p, d, m, t, dt = step["p"], step["d"], step["m"], step["t"], step["dt"]
        ok = (
            step["k"] == k
            and step["prime_skips"] == 0
            and p == self.oracle.next_prime(k)
            and d == gcd(p - 1, k - 2)
            and m == (p - 1) // d
            and t == _choose_t(m)
            and dt == d * t
            and step["k_hi"] == dt + 2
            and step["k_lo"] == p + 1 - dt
            and step["k_hi"] < k
            and step["k_lo"] < k
        )
        if not ok:
            problems.append(f"step at k = {k} fails the recipe: {step}")

    def _reduce(self, opts, argv, payload, problems) -> int:
        self._step(payload, int(argv[1]), problems)
        return 1

    def _chain(self, opts, argv, payload, problems) -> int:
        k, policy = int(argv[1]), opts["policy"]
        path, steps = payload["path"], payload["steps"]
        if payload["k"] != k or payload["policy"] != policy:
            problems.append("chain echoes the wrong request")
        if (path[0] != k or path[-1] not in BASE_WEIGHTS
                or any(w in BASE_WEIGHTS for w in path[:-1])
                or not payload["length"] == len(steps) == len(path) - 1):
            problems.append(f"chain path {path} is not a descent to the base set")
            return 1
        for step, here, nxt in zip(steps, path, path[1:]):
            self._step(step, here, problems)
            allowed = {"hi-branch": (step["k_hi"],), "lo-branch": (step["k_lo"],)}.get(
                policy, (step["k_hi"], step["k_lo"]))
            if nxt not in allowed:
                problems.append(f"chain hop {here} -> {nxt} breaks policy {policy}")
        return 1

    def _table(self, opts, argv, payload, problems) -> int:
        rows = payload["rows"]
        want = REFERENCE["table_rows"]
        if len(rows) != len(want) or any(
                row[f] != ref[f] for row, ref in zip(rows, want)
                for f in STEP_FIELDS + ("matches_paper",)):
            problems.append("table rows differ from the reference")
        return len(rows)

    def _gaps_scan(self, opts, payload, problems, shifted: bool) -> int:
        low, high = int(opts["low"]), int(opts["high"])
        ps = self.oracle.primes
        start, stop = bisect_right(ps, low), bisect_right(ps, high)
        shift = int(shifted)
        best = None
        for j in range(start, stop):
            a, b = ps[j] - shift, ps[j - 1] - shift
            if best is None or a * best[1] > best[0] * b:
                best = (a, b, ps[j - 1], ps[j])
        bound = RATIO_BOUNDS[shifted]
        if (payload["range"] != [low, high]
                or payload["bound"] != f"{bound.numerator}/{bound.denominator}"
                or payload["shifted"] is not shifted
                or payload["pairs_checked"] != stop - start
                or payload["max_ratio_pair"] != [best[2], best[3]]
                or payload["violations"] != []
                or payload["verdict"] != "pass"):
            problems.append(f"gap scan over ({low}, {high}] differs from the oracle")
        return payload["pairs_checked"]

    def _gaps(self, opts, argv, payload, problems) -> int:
        return self._gaps_scan(opts, payload, problems, shifted=False)

    def _gaps_shifted(self, opts, argv, payload, problems) -> int:
        return self._gaps_scan(opts, payload, problems, shifted=True)

    def _threshold(self, opts, argv, payload, problems) -> int:
        ref = REFERENCE["threshold_digits_200"]
        lo, hi = Decimal(payload["threshold"]["lower"]), Decimal(payload["threshold"]["upper"])
        # enclosures of the same real number intersect
        if not (lo <= hi and lo <= Decimal(ref["upper"]) and Decimal(ref["lower"]) <= hi
                and hi < X0 and payload["below_x0"] is True and payload["x0"] == X0):
            problems.append(f"threshold enclosure [{lo}, {hi}] is wrong")
        return 1

    def _star(self, opts, argv, payload, problems) -> int:
        m_max, d_max = int(opts["m-max"]), int(opts["d-max"])
        if (payload["m_max"] != m_max or payload["d_max"] != d_max
                or payload["checked"] != (m_max - 6) * d_max
                or payload["failures"] != [] or payload["heads_match"] is not True
                or payload["verdict"] != "pass"):
            problems.append(f"star grid {m_max} x {d_max} differs from the reference")
        return payload["checked"]

    def _mbound(self, opts, argv, payload, problems) -> int:
        k_max = int(opts["max-k"])
        if (payload["k_range"] != [38, k_max]
                or payload["checked"] != len(range(38, k_max + 1, 2))
                or payload["failures"] != [] or payload["verdict"] != "pass"):
            problems.append(f"m-bound scan to {k_max} differs from the reference")
        return payload["checked"]

    def _audit(self, opts, argv, payload, problems) -> int:
        ref = REFERENCE["audit_1e6"]
        term = payload["termination"]
        if int(opts["max-k"]) != ref["max_k"]:
            raise ValueError("only the 10^6 audit has reference values")
        if (payload["max_k"] != ref["max_k"] or payload["passed"] is not True
                or term["terminates"] is not True
                or any(term[f] != ref[f] for f in
                       ("node_count", "edge_count", "longest_chain_length", "weights_with_skips"))
                or any(payload[f] != [] for f in ("ratio_failures", "m_bound_failures",
                                                  "skip_failures", "unexpected_skippers"))):
            problems.append("audit differs from the reference")
        return term["node_count"]

    def _char_demo(self, opts, argv, payload, problems) -> int:
        inv = payload["invariance"]
        if (payload["group"] != opts["group"].upper() or payload["seed"] != int(opts["seed"])
                or not payload["summands"] or inv["verdict"] != "pass"
                or inv["equal_under_galois"] is not True or inv["equal_exactly"] is False):
            problems.append(f"char demo on {opts['group']} failed")
        return 1

    def _char_verify(self, opts, argv, payload, problems) -> int:
        draws, trials, seed = int(opts["draws"]), int(opts["trials"]), int(opts["seed"])
        want = (
            ("frobenius-reciprocity", len(SUITE_NAMES) * draws, list(SUITE_NAMES)),
            ("mackey-decomposition", len(SUITE_NAMES) * draws, list(SUITE_NAMES)),
            ("conjugation-invariance", trials, REFERENCE["invariance_groups"]),
        )
        campaigns = payload["campaigns"]
        if len(campaigns) != len(want):
            problems.append("char verify ran the wrong campaigns")
        for got, (name, checks, groups) in zip(campaigns, want):
            if (got["name"] != name or got["checks_run"] != checks or got["groups"] != groups
                    or got["seed"] != seed or got["failures"] != []
                    or got["verdict"] != "pass"):
                problems.append(f"campaign {name} differs from the reference")
        return sum(c["checks_run"] for c in campaigns)


def check_result(checker: Checker, result: dict) -> tuple[int, list[str]]:
    """Exit status, exceptions and reference fields of one child request."""
    if result["error"] is not None:
        return 0, [f"raised {result['error']}"]
    if result["status"] != 0:
        return 0, [f"exit status {result['status']}"]
    try:
        payload = json.loads(result["stdout"])
    except ValueError as exc:
        return 0, [f"output is not JSON: {exc}"]
    return checker.check(result["argv"], payload)
