"""Independent oracles for the test suite.

Everything here is deliberately naive (trial division, element-by-element
sums, direct fraction comparisons), and none shares code with the package.
The two character oracles sum element by element in the test tree's
`Fraction`-based cyclotomic kernel; `as_fraction_cyclo` carries a package
value over to it, coordinate by coordinate.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

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


def trial_division_next_prime(n: int) -> int:
    q = n + 1
    while not trial_division_is_prime(q):
        q += 1
    return q


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


def as_fraction_cyclo(value) -> Cyclo:
    """The reference kernel's copy of a package `Cyclo`, from its integer
    coordinates and common denominator."""
    return Cyclo(value.conductor, [Fraction(c, value.den) for c in value.num])


def lifted(class_function) -> list[Cyclo]:
    """A class function's values, carried over to the reference kernel."""
    return [as_fraction_cyclo(v) for v in class_function.values]


def brute_force_induced_values(G, H, chi) -> list[Cyclo]:
    """(Ind chi)(g) = (1/|H|) sum over x in G with x^-1 g x in H of
    chi(x^-1 g x), evaluated at every class representative."""
    out = []
    for cls_elems in G.classes:
        g = cls_elems[0]
        total = Cyclo.from_rational(0)
        for x in range(G.order):
            conj = G.table[G.table[G.inverses[x]][g]][x]
            loc = H.to_local.get(conj)
            if loc is not None:
                total = total + as_fraction_cyclo(chi.value(loc))
        out.append(total * Fraction(1, H.order))
    return out


def brute_force_inner(chi, psi) -> Cyclo:
    """(1/|G|) sum over every element g of chi(g) psi(g^-1)."""
    G = chi.group
    total = Cyclo.from_rational(0)
    for g in range(G.order):
        total = total + as_fraction_cyclo(chi.value(g)) * as_fraction_cyclo(psi.value(G.inverses[g]))
    return total * Fraction(1, G.order)
