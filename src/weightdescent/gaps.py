"""Certified analytic-estimate audits.

Consecutive-prime ratio scans (plain and shifted by one), the Chebyshev
threshold a^(C/(a-C)) in enclosure arithmetic, the exact quotient grid for
the three twist-exponent families, and the m > 6 bound.  One scan, `_scan`,
covers every adjacent prime pair of a range of a prime table it is given:
searches of the table's gap string, each for the first gap wider than the
last found, step from record to record, the pairs whose gap beats every
earlier one, and only those can hold the maximum ratio; only the pairs below
a cut that the largest gap sets can break the bound, and only those are
listed and tested.  The m > 6 bound walks a chain of single primes
instead, each as far past the last as 6/5 allows, and reports the gaps the
chain cannot jump.  Every pass/fail decision is an exact rational
comparison.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .descent import choose_t
from .numeric import (
    CHEBYSHEV_A,
    CHEBYSHEV_B,
    DECIMAL_EMAX,
    EXP_ARG_MAX,
    M_BOUND_RATIO,
    RATIO_BOUND,
    SHIFTED_RATIO_BOUND,
    RealEnclosure,
    pow_enclosure,
)
from .primes import PrimeTable, consecutive_pairs, is_prime, next_prime

X0 = 100000


@dataclass(frozen=True)
class GapReport:
    """Outcome of one ratio scan over range = (low, high]."""

    range: tuple[int, int]
    bound: Fraction
    shifted: bool
    violations: tuple[tuple[int, int], ...]
    max_ratio_pair: tuple[int, int] | None
    pairs_checked: int

    @property
    def passed(self) -> bool:
        return not self.violations


def positive_bound(bound) -> Fraction:
    """bound as a Fraction; a ratio bound must be positive."""
    bound = Fraction(bound)
    if bound <= 0:
        raise ValueError(f"bound must be positive, got {bound}")
    return bound


@cache
def _wider_than(g: int) -> re.Pattern:
    """A pattern that matches one gap character wider than g.

    The class is the complement of [chr(0), chr(g)].  The range [chr(g+1),
    chr(0x10ffff)] matches the same characters, but `re` compiles it in ~8
    ms, not ~40 us, as it maps its code points one by one up to 65535.
    """
    return re.compile(f"[^\\x00-{re.escape(chr(g))}]")


def _scan(table: PrimeTable, low: int, high: int, bound: Fraction, shift: int) -> GapReport:
    """Check (q-shift)/(p-shift) < bound for each adjacent prime pair (p, q)
    of table with low < q <= high.

    Pairs come in increasing p, with p - shift >= 1 and gap g = q - p >= 1,
    and the ratio is (q-shift)/(p-shift) = 1 + g/(p-shift).  Two facts let
    the scan work only at a few pairs:
    - The first pair of maximum ratio is a record, its gap strictly larger
      than every earlier gap.  An earlier pair has a smaller p - shift, so
      were its gap at least as large, its ratio would be strictly larger.
      So the scan steps from record to record, each found by a search of
      the table's gap string, past the last record, for the first gap
      wider than it, and only a record is compared with the best so far, by
      cross-multiplication and on a strict >, so the first of equal ratios
      wins.
    - With bound num/den, a pair violates it when den(q-shift) >=
      num(p-shift), that is when den*g >= (num-den)(p-shift).  If num <= den
      the right side is at most 0 < den*g, and every pair violates.  If
      num > den, a violation needs p - shift <= den*g/(num-den) <=
      den*top/(num-den), with top the largest gap, the last record's, so
      every violation lies among the pairs with p <= shift + den*top //
      (num-den), a prefix of pairs, and only that prefix is tested.
    """
    if high > table.limit:
        raise ValueError(f"range end {high} exceeds the table limit {table.limit}")
    bound = positive_bound(bound)
    num, den = bound.numerator, bound.denominator
    ps, gaps = table.primes, table.gaps
    start = max(bisect_right(ps, low), 1) - 1  # pair i is (ps[i], ps[i+1]), of gap gaps[i]
    stop = max(bisect_right(ps, high) - 1, start)
    pos, top = start - 1, 0
    best = None  # (ratio numerator, ratio denominator, p, q)
    while record := _wider_than(top).search(gaps, pos + 1, stop):
        pos = record.start()
        p, q = ps[pos], ps[pos + 1]
        top = q - p
        a, b = q - shift, p - shift
        if best is None or a * best[1] > best[0] * b:
            best = (a, b, p, q)
    end = stop if num <= den else bisect_right(ps, shift + den * top // (num - den), start, stop)
    pairs = consecutive_pairs(table, low, ps[end]) if end > start else []
    violations = [(p, q) for p, q in pairs if den * (q - shift) >= num * (p - shift)]
    return GapReport(
        range=(low, high),
        bound=bound,
        shifted=bool(shift),
        violations=tuple(violations),
        max_ratio_pair=(best[2], best[3]) if best else None,
        pairs_checked=stop - start,
    )


def verify_ratio(table: PrimeTable, low: int, high: int, bound=RATIO_BOUND) -> GapReport:
    """Check q/p < bound for all adjacent prime pairs with low < q <= high."""
    return _scan(table, low, high, bound, shift=0)


def verify_shifted_ratio(table: PrimeTable, low: int, high: int, bound=SHIFTED_RATIO_BOUND) -> GapReport:
    """Check (q-1)/(p-1) < bound for all adjacent pairs with low < q <= high."""
    return _scan(table, low, high, bound, shift=1)


@dataclass(frozen=True)
class ThresholdResult:
    """Certified enclosure of a^(C/(a-C)) with C = B/A, and its verdict
    against x0: below_x0 is None when the enclosure straddles x0."""

    A: Fraction
    B: Fraction
    a: Fraction
    C: Fraction
    exponent: RealEnclosure
    threshold: RealEnclosure
    below_x0: bool | None
    x0: int = X0


def chebyshev_threshold(
    B=CHEBYSHEV_B,
    a=RATIO_BOUND,
    digits: int = 30,
    typo_variant: bool = False,
) -> ThresholdResult:
    """Enclosure of a^(C/(a-C)), C = B/A; typo_variant computes a*C/(a-C) instead.

    The exponent C/(a-C) is an exact rational, so only the final power needs
    enclosure arithmetic.  Before the power is built, an exact test refuses
    an a whose power may leave the decimal range: as ln a <= (a-1)/sqrt(a)
    for a >= 1, the power is in range when (C/(a-C))^2 (a-1)^2 / a <=
    EXP_ARG_MAX^2, and for a <= 1 it is at most 1.
    """
    B, a = Fraction(B), Fraction(a)
    if B <= 0 or a <= 0:
        raise ValueError("B and a must be positive")
    C = B / CHEBYSHEV_A
    if a <= C:
        raise ValueError(f"degenerate: a <= C (a = {a}, C = {C})")
    exponent_value = C / (a - C)
    if not typo_variant and a > 1 and (exponent_value * (a - 1)) ** 2 > a * EXP_ARG_MAX ** 2:
        raise ValueError(
            f"a = {a} lies too close to C = {C}: the exponent C/(a-C) = "
            f"{exponent_value} may put a^(C/(a-C)) past 10^{DECIMAL_EMAX}, "
            "beyond any decimal enclosure"
        )
    exponent = RealEnclosure.from_rational(exponent_value, digits)
    if typo_variant:
        threshold = RealEnclosure.from_rational(a * exponent_value, digits)
    else:
        threshold = pow_enclosure(a, exponent, digits)
    if Fraction(threshold.upper) < X0:
        below_x0 = True
    elif Fraction(threshold.lower) >= X0:
        below_x0 = False
    else:  # too wide to decide at this precision
        below_x0 = None
    return ThresholdResult(
        A=CHEBYSHEV_A, B=B, a=a, C=C,
        exponent=exponent, threshold=threshold, below_x0=below_x0,
    )


# Printed quotient families (m, t) for the three twist rules, heads at
# m = 7, 9, 11 / 10, 14, 18 / 8, 12, 16.
_PRINTED_HEADS = (
    (7, 4), (9, 5), (11, 6),
    (10, 7), (14, 9), (18, 11),
    (8, 5), (12, 7), (16, 9),
)


@dataclass(frozen=True)
class StarReport:
    """Exact check of p/k' > bound over the (m, d) grid, plus the symbolic
    family heads."""

    m_max: int
    d_max: int
    bound: Fraction
    failures: tuple[tuple[int, int, str], ...]
    family_heads: tuple[dict, ...]
    heads_match: bool
    checked: int

    @property
    def passed(self) -> bool:
        return not self.failures and self.heads_match


def star_inequality_check(m_max: int = 200, d_max: int = 200) -> StarReport:
    """For every m in (6, m_max] and d in [1, d_max], with p = md+1 and
    t = choose_t(m), check p/(dt+2) and p/(p+1-dt) > RATIO_BOUND = num/den
    exactly, a row of the grid at a time.

    Both quotients have the form p/(ud+2), with u = t on the hi side and
    u = m-t on the lo side, and a cell fails when den*p <= num*(ud+2), that
    is when d*s <= c with s = den*m - num*u and c = 2num - den.  If s > 0
    the side fails exactly for d <= c // s.  If s <= 0, then num/den >= m/u
    > 1, as 1 < t < m-1, so c > 0 and it fails for every d.  Either way
    each side of a row fails on a prefix of [1, d_max], found in O(1); the
    failures are listed in (m, d) order, hi before lo.
    """
    if m_max <= 6:
        raise ValueError("m_max must exceed 6")
    if d_max < 1:
        raise ValueError("d_max must be >= 1")
    num, den = RATIO_BOUND.numerator, RATIO_BOUND.denominator
    c = 2 * num - den
    failures = []
    for m in range(7, m_max + 1):
        t = choose_t(m)  # every m >= 7 is admissible
        row = []
        for u, side in ((t, "hi"), (m - t, "lo")):
            s = den * m - num * u
            row += [(m, d, side) for d in range(1, (d_max if s <= 0 else min(d_max, c // s)) + 1)]
        failures += sorted(row)  # "hi" < "lo"
    heads = []
    all_match = True
    for m, t_printed in _PRINTED_HEADS:
        t = choose_t(m)
        match = t == t_printed
        all_match = all_match and match
        heads.append({
            "m": m,
            "quotient": f"({m}d+1)/({t}d+2)",
            "printed": f"({m}d+1)/({t_printed}d+2)",
            "matches": match,
        })
    return StarReport(
        m_max=m_max,
        d_max=d_max,
        bound=RATIO_BOUND,
        failures=tuple(failures),
        family_heads=tuple(heads),
        heads_match=all_match,
        checked=(m_max - 6) * d_max,
    )


@dataclass(frozen=True)
class MBoundReport:
    """Exact check that (p-1)/(k-2) < 6/5, and so m > 6, for every even k in
    k_range = [38, k_max]."""

    k_range: tuple[int, int]
    failures: tuple[tuple[int, int], ...]
    checked: int
    near_miss: dict

    @property
    def passed(self) -> bool:
        return not self.failures


def m_bound_check(k_max: int) -> MBoundReport:
    """For every even k in (36, k_max] with p the next prime after k, check
    5(p-1) < 6(k-2) exactly.  That alone gives m > 6, m = (p-1)/d with
    d = gcd(p-1, k-2): as k < p, k-2 = jd for some 1 <= j <= m-1, so m <= 6
    would give 6(k-2) <= 6(m-1)(p-1)/m <= 5(p-1).

    The weights are checked a gap at a time.  The even k of a gap between
    consecutive primes q < p all have p as their next prime, and the clause
    is hardest at the smallest, q + 1, so the gap holds a failing weight
    exactly when 5(p-1) >= 6(q-1).  The failing gaps up to end, the prime
    after k_max, are found by a chain of single primes from r = 37.  Let r'
    be the largest prime <= min(end, (6(r-1) - 1)//5 + 1).  If r' > r, every
    consecutive pair (q, p) with r <= q < r' passes, as 5(p-1) <= 5(r'-1) <
    6(r-1) <= 6(q-1), and the chain moves on to r'.  If r' = r, the next
    prime p after r exceeds the cap, so (r, p) fails, and the chain moves on
    to p.  Only a failing gap is expanded, into its even k up to
    2 + 5(p-1)//6.
    """
    if k_max < 38:
        raise ValueError("k_max must be >= 38")
    num, den = M_BOUND_RATIO.numerator, M_BOUND_RATIO.denominator
    end = next_prime(k_max)
    violations = []
    r = 37
    while r < end:
        cap = min(end, (num * (r - 1) - 1) // den + 1)
        # odd candidates only: each exceeds r >= 37, so none is the even prime
        top = next((n for n in range(cap - 1 + cap % 2, r, -2) if is_prime(n)), r)
        if top == r:
            top = next_prime(r)
            violations.append((r, top))
        r = top
    failures = tuple(
        (k, p)
        for q, p in violations
        for k in range(max(38, q + 1), min(k_max, 2 + den * (p - 1) // num) + 1, 2)
    )
    checked = (k_max - 38) // 2 + 1
    # the motivating boundary case, outside the checked range: at k = 32 the
    # next prime 37 gives exactly 36/30 = 6/5 and m = 6
    near_miss = {"k": 32, "p": 37, "ratio": "36/30", "m": 6}
    return MBoundReport(
        k_range=(38, k_max), failures=failures, checked=checked, near_miss=near_miss
    )
