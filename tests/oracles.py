"""Independent oracles for the test suite.

Everything here is deliberately naive (trial division, element-by-element
sums, direct fraction comparisons), and none shares code with the package.
The two character oracles sum element by element in the test tree's
`Fraction`-based cyclotomic kernel; `as_fraction_cyclo` carries a package
value over to it, coordinate by coordinate.  `associative_by_triples` tries
every triple of a table, which the package's group-law check no longer does.
`relabelled_classes` is the one exception: it builds a subgroup as a package
`FiniteGroup` of its own, so the full group-law checks run on it, to compare
with the classes a `Subgroup` computes in its parent's indices.
`star_grid_oracle` is the cell-by-cell quotient grid that `star`'s
closed-form rows replaced.  `report_data` with `json_oracle` is the
two-pass rendering the CLI's one-pass `canonical_json` replaced: a tree of
plain data, then `json.dumps`.
"""

from __future__ import annotations

import json
from dataclasses import fields
from decimal import Decimal
from fractions import Fraction
from math import gcd, isqrt

from weightdescent.charconj.groups import FiniteGroup

from fraction_cyclo import Cyclo


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f <= isqrt(n):
        if n % f == 0:
            return False
        f += 2
    return True


def trial_division_primes(limit: int) -> list[int]:
    return [n for n in range(2, limit + 1) if trial_division_is_prime(n)]


def gap_string(seq) -> str:
    """The gaps of an increasing sequence, one character chr(q - p) a gap."""
    return "".join(chr(q - p) for p, q in zip(seq, seq[1:]))


def trial_division_next_prime(n: int) -> int:
    q = n + 1
    while not trial_division_is_prime(q):
        q += 1
    return q


def strong_probable_prime(n: int, a: int) -> bool:
    """Whether odd n > 2 is a strong probable prime to base a, from the
    definition: with n - 1 = 2^s d and d odd, a^d = 1 or a^(2^r d) = -1
    (mod n) for some r < s, each power taken afresh."""
    s, d = 0, n - 1
    while d % 2 == 0:
        s, d = s + 1, d // 2
    return pow(a, d, n) == 1 or any(pow(a, 2**r * d, n) == n - 1 for r in range(s))


def recipe_oracle(k: int) -> tuple[int, int, int, int, int, int, int, int]:
    """(p, skips, d, m, t, dt, k_hi, k_lo) at weight k, from the definitions.

    p runs over the primes above k in order; d = gcd(p-1, k-2), m = (p-1)/d,
    and t is the least integer above m/2 prime to m.  A prime is skipped
    unless 1 < t < m-1.
    """
    p, skips = trial_division_next_prime(k), 0
    while True:
        d = gcd(p - 1, k - 2)
        m = (p - 1) // d
        t = m // 2 + 1
        while gcd(t, m) != 1:
            t += 1
        if 1 < t < m - 1:
            return p, skips, d, m, t, d * t, d * t + 2, p + 1 - d * t
        p, skips = trial_division_next_prime(p), skips + 1


def m_bound_oracle(k_max: int) -> tuple[int, list[tuple[int, int]]]:
    """(weights checked, failures (k, p)) over the even k in [38, k_max], each
    weight tested on both clauses from the definitions: (p-1)/(k-2) < 6/5 and
    m = (p-1)/gcd(p-1, k-2) > 6, with p the next prime after k."""
    checked, failures = 0, []
    for k in range(38, k_max + 1, 2):
        p = trial_division_next_prime(k)
        checked += 1
        if not (Fraction(p - 1, k - 2) < Fraction(6, 5) and (p - 1) // gcd(p - 1, k - 2) > 6):
            failures.append((k, p))
    return checked, failures


def max_ratio_pair_scan(
    primes, low: int, high: int, shift: int = 0
) -> tuple[int, int] | None:
    """Exhaustive Fraction-based maximum of (q-shift)/(p-shift) over adjacent
    pairs with low < q <= high."""
    best = None
    best_ratio = None
    for i in range(1, len(primes)):
        p, q = primes[i - 1], primes[i]
        if q <= low or q > high:
            continue
        r = Fraction(q - shift, p - shift)
        if best_ratio is None or r > best_ratio:
            best, best_ratio = (p, q), r
    return best


def reference_scan(
    pairs, bound: Fraction, shift: int
) -> tuple[tuple[tuple[int, int], ...], tuple[int, int] | None, int]:
    """The per-pair ratio scan: every pair (p, q) is tested against the
    bound and compared with the best so far, both by cross-multiplication
    of (q-shift)/(p-shift).  Returns (violations, max ratio pair, pairs
    checked); a pair on the bound is a violation, and of equal ratios the
    first is the max."""
    num, den = bound.numerator, bound.denominator
    violations = []
    best = None  # (ratio numerator, ratio denominator, p, q)
    count = 0
    for p, q in pairs:
        a, b = q - shift, p - shift
        count += 1
        if den * a >= num * b:
            violations.append((p, q))
        if best is None or a * best[1] > best[0] * b:
            best = (a, b, p, q)
    return tuple(violations), (best[2], best[3]) if best else None, count


def star_grid_oracle(
    m_max: int, d_max: int, bound: Fraction
) -> tuple[tuple[tuple[int, int, str], ...], int]:
    """The per-cell quotient grid: for every m in (6, m_max] and d in
    [1, d_max], with p = md+1 and t the least integer above m/2 prime to
    m, each of p/(dt+2) ("hi") and p/(p+1-dt) ("lo") at most bound is a
    failure (m, d, side), compared as Fractions.  Returns (failures in (m,
    d) order with hi before lo, cells checked)."""
    failures = []
    checked = 0
    for m in range(7, m_max + 1):
        t = m // 2 + 1
        while gcd(t, m) != 1:
            t += 1
        for d in range(1, d_max + 1):
            p = m * d + 1
            checked += 1
            if Fraction(p, d * t + 2) <= bound:
                failures.append((m, d, "hi"))
            if Fraction(p, p + 1 - d * t) <= bound:
                failures.append((m, d, "lo"))
    return tuple(failures), checked


def as_fraction_cyclo(value) -> Cyclo:
    """The reference kernel's copy of a package `Cyclo`, from its integer
    coordinates and common denominator."""
    return Cyclo(value.conductor, [Fraction(c, value.den) for c in value.num])


def lifted(class_function) -> list[Cyclo]:
    """A class function's values, carried over to the reference kernel."""
    return [as_fraction_cyclo(v) for v in class_function.values]


def associative_by_triples(table) -> tuple[int, int, int] | None:
    """The first triple (a, b, c), in lexicographic order, with
    (a b) c != a (b c) in the table, or None: all n^3 triples in turn."""
    n = len(table)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return a, b, c
    return None


def closure_oracle(G, gens) -> list[int]:
    """The subgroup of G generated by gens, ascending: starting from the
    identity and gens, add every product of two members, taken in both
    orders, and every member's inverse, found by scanning G's table, until
    nothing changes."""
    elems = {0, *gens}
    while True:
        grown = set(elems)
        for a in elems:
            for b in elems:
                grown.update((G.table[a][b], G.table[b][a]))
            grown.update(x for x in range(G.order) if G.table[a][x] == 0 == G.table[x][a])
        if grown == elems:
            return sorted(elems)
        elems = grown


def element_order(G, x) -> int:
    """The least k >= 1 with x^k the identity, by repeated multiplication."""
    k, power = 1, x
    while power != 0:
        power, k = G.table[power][x], k + 1
    return k


def relabelled_classes(parent, elements) -> tuple[tuple[int, ...], ...]:
    """The conjugacy classes of the subgroup on `elements`, from a separate
    `FiniteGroup` on its multiplication table relabelled 0..|H|-1 in
    ascending order (which runs every group-law check on that table), each
    class mapped back to parent indices."""
    elems = sorted(elements)
    local = {g: i for i, g in enumerate(elems)}
    group = FiniteGroup([[local[parent.table[a][b]] for b in elems] for a in elems])
    return tuple(tuple(elems[i] for i in cls) for cls in group.classes)


def brute_force_induced_values(G, H, chi) -> list[Cyclo]:
    """(Ind chi)(g) = (1/|H|) sum over x in G with x^-1 g x in H of
    chi(x^-1 g x), evaluated at every class representative.  `chi` is a
    package class function on H, or a function from the elements of H to
    reference-kernel values."""
    at = chi if callable(chi) else (lambda h: as_fraction_cyclo(chi.value(h)))
    out = []
    for cls_elems in G.classes:
        g = cls_elems[0]
        total = Cyclo.from_rational(0)
        for x in range(G.order):
            conj = G.table[G.table[G.inverses[x]][g]][x]
            if conj in H.class_index:
                total = total + at(conj)
        out.append(total * Fraction(1, H.order))
    return out


def brute_force_inner(chi, psi) -> Cyclo:
    """(1/|G|) sum over every element g of chi(g) psi(g^-1)."""
    G = chi.group
    total = Cyclo.from_rational(0)
    for g in G.elements:
        total = total + as_fraction_cyclo(chi.value(g)) * as_fraction_cyclo(psi.value(G.inverses[g]))
    return total * Fraction(1, G.order)


def multiplicative_all_pairs(f) -> bool:
    """f(e) = 1 and f(ab) = f(a)f(b) for every pair a, b of f's group, in the
    reference kernel: |H|^2 products, with no generating set."""
    G = f.group
    values = lifted(f)
    at = {g: values[G.class_index[g]] for g in G.elements}
    if at[0] != 1:
        return False
    return all(at[G.table[a][b]] == at[a] * at[b] for a in G.elements for b in G.elements)


def report_data(report):
    """JSON data of a report, or of any value inside one.

    None, str and int are leaves, a Fraction renders as "n/d", a Decimal as
    its digit string, dict keys as strings and tuples as lists.  Any other
    value must be a dataclass: it renders field by field under its field
    names, plus "verdict" when it derives `passed` as a property.
    """
    if report is None or isinstance(report, (str, int)):
        return report
    if isinstance(report, (list, tuple)):
        return [report_data(v) for v in report]
    if isinstance(report, dict):
        return {str(k): report_data(v) for k, v in report.items()}
    if isinstance(report, Fraction):
        return f"{report.numerator}/{report.denominator}"
    if isinstance(report, Decimal):
        return str(report)
    data = {f.name: report_data(getattr(report, f.name)) for f in fields(report)}
    if isinstance(getattr(type(report), "passed", None), property):
        data["verdict"] = "pass" if report.passed else "fail"
    return data


def json_oracle(report) -> str:
    """A report's canonical JSON by the standard library's encoder."""
    return json.dumps(report_data(report), indent=2, sort_keys=True)
