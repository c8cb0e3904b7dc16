"""Exact cyclotomic arithmetic in canonical form.

An element of the n-th cyclotomic field is stored as integer coordinates
`num` over one positive common denominator `den`, on the power basis
1, z, ..., z^(phi(n)-1) of a primitive n-th root z, reduced modulo the n-th
cyclotomic polynomial.  Since that polynomial is monic, reduction stays in
the integers: each power z^e with e >= phi(n) is replaced by its cached
integer coordinates.  The pair is kept with gcd(den, *num) = 1, so equal
values at one conductor have identical (num, den).  Mixed conductors embed
into the lcm.  No floating point anywhere.

`weighted_sum` and `weighted_sum_of_products` add many terms in these
coordinates over one common denominator and canonicalise the result once,
so a sum of k values costs one gcd pass, not k.  A sum of two values and a
product by an int or a Fraction are `weighted_sum` cases.

`Cyclo.galois` and `Cyclo.to_conductor` share one power map, `_power`,
and every value is made by `_canonical`, the one place its fields are set.

`galois_exponents(n)` lists the j of the automorphisms z -> z^j other than
the identity, ascending, for `Cyclo.galois`; it is empty when n <= 2.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, constant
    term first (monic)."""
    if n < 1:
        raise ValueError("conductor must be >= 1")
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _exact_div(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def _exact_div(num: list[int], den: tuple[int, ...]) -> list[int]:
    # long division by a monic divisor; remainder must vanish
    work = list(num)
    deg = len(den) - 1
    out = [0] * (len(work) - deg)
    for i in range(len(work) - 1, deg - 1, -1):
        c = work[i]
        if c:
            out[i - deg] = c
            for j, dc in enumerate(den):
                work[i - deg + j] -= c * dc
    if any(work):
        raise ArithmeticError("division was not exact")
    return out


@lru_cache(maxsize=None)
def _high_powers(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Row e - phi(n) holds the coordinates of z^e for phi(n) <= e < n, as
    (index, coefficient) pairs of its nonzero entries."""
    phi_poly = cyclotomic_polynomial(n)
    deg = len(phi_poly) - 1
    rows = []
    power = [0] * (deg - 1) + [1]  # z^(deg-1)
    for _ in range(deg, n):
        top = power[-1]
        power = [0] + power[:-1]
        if top:
            for k in range(deg):
                power[k] -= top * phi_poly[k]
        rows.append(tuple((k, c) for k, c in enumerate(power) if c))
    return tuple(rows)


def _reduce(n: int, vec: list[int]) -> list[int]:
    """Coordinates of the sum of vec[e] z^e, exponents taken mod n."""
    if len(vec) > n:
        folded = vec[:n]
        for e in range(n, len(vec)):
            folded[e % n] += vec[e]
        vec = folded
    rows = _high_powers(n)
    deg = n - len(rows)
    out = vec[:deg]
    out.extend([0] * (deg - len(out)))
    for e in range(deg, len(vec)):
        c = vec[e]
        if c:
            for k, r in rows[e - deg]:
                out[k] += c * r
    return out


def _canonical(conductor: int, num, den: int) -> "Cyclo":
    """The value num / den, num reduced already and den > 0, with the
    common factor of num and den cancelled."""
    g = gcd(den, *num)
    if g != 1:
        num = [c // g for c in num]
        den //= g
    obj = object.__new__(Cyclo)
    object.__setattr__(obj, "conductor", conductor)
    object.__setattr__(obj, "num", tuple(num))
    object.__setattr__(obj, "den", den)
    return obj


def _add_product(out: list[int], x: tuple[int, ...], y: tuple[int, ...], w: int) -> None:
    """Add w times the unreduced product of coordinate vectors x and y to out."""
    for i, a in enumerate(x):
        if a:
            a *= w
            for j, b in enumerate(y, i):
                if b:
                    out[j] += a * b


def weighted_sum(conductor: int, terms, scale) -> "Cyclo":
    """scale * (the sum of w * v over (w, v) in terms), for integer weights
    w, values v all at `conductor` and a rational scale; an empty sum is 0.

    Each v is num/den in reduced coordinates, so over D = lcm of the dens
    the sum's coordinates are the sum of w * (D // den) * num: a linear
    combination of reduced vectors is reduced, and only the result is
    canonicalised."""
    terms = list(terms)
    den = lcm(*(v.den for _, v in terms))
    acc = [0] * (len(cyclotomic_polynomial(conductor)) - 1)
    for w, v in terms:
        f = w * (den // v.den)
        for k, c in enumerate(v.num):
            if c:
                acc[k] += f * c
    p = scale.numerator
    return _canonical(conductor, [c * p for c in acc], den * scale.denominator)


def weighted_sum_of_products(conductor: int, terms, scale) -> "Cyclo":
    """scale * (the sum of w * x * y over (w, x, y) in terms), for integer
    weights w, values x and y all at `conductor` and a rational scale.

    Over D = lcm of the products' dens, the products' coordinates are added
    unreduced, as polynomials in z of degree below 2 phi(n) - 1, so the sum
    is reduced modulo the cyclotomic polynomial and canonicalised once."""
    terms = list(terms)
    den = lcm(*(x.den * y.den for _, x, y in terms))
    out = [0] * (2 * len(cyclotomic_polynomial(conductor)) - 3)
    for w, x, y in terms:
        _add_product(out, x.num, y.num, w * (den // (x.den * y.den)))
    p = scale.numerator
    return _canonical(conductor, [c * p for c in _reduce(conductor, out)],
                      den * scale.denominator)


@lru_cache(maxsize=None)
def _zeta_powers(n: int) -> tuple["Cyclo", ...]:
    """zeta_n^k for 0 <= k < n, built once per conductor and shared, as
    values are immutable.  The package asks only for conductors that are
    orders of cyclic subgroups, so at most `groups.MAX_ORDER` of them."""
    return tuple(Cyclo(n, [0] * k + [1]) for k in range(n))


class Cyclo:
    """An element of Q(zeta_n) in canonical coordinates."""

    __slots__ = ("conductor", "num", "den")

    def __new__(cls, conductor: int, powers=()):
        """The sum of powers[e] z^e; each power is an int or a Fraction."""
        if conductor < 1:
            raise ValueError("conductor must be >= 1")
        powers = list(powers)
        den = lcm(*(c.denominator for c in powers))
        vec = [c.numerator * (den // c.denominator) for c in powers]
        return _canonical(conductor, _reduce(conductor, vec), den)

    def __setattr__(self, name, value):
        raise AttributeError("Cyclo values are immutable")

    @classmethod
    def zeta(cls, n: int, k: int = 1) -> "Cyclo":
        return _zeta_powers(n)[k % n]

    @classmethod
    def from_rational(cls, value) -> "Cyclo":
        return cls(1, [value])

    @staticmethod
    def _coerce(value) -> "Cyclo":
        if isinstance(value, Cyclo):
            return value
        return Cyclo.from_rational(value)

    def to_conductor(self, big_n: int) -> "Cyclo":
        n = self.conductor
        if big_n == n:
            return self
        if big_n % n != 0:
            raise ValueError(f"{n} does not divide {big_n}")
        return self._power(big_n, big_n // n)

    def _align(self, other: "Cyclo") -> tuple["Cyclo", "Cyclo"]:
        if self.conductor == other.conductor:
            return self, other
        n = lcm(self.conductor, other.conductor)
        return self.to_conductor(n), other.to_conductor(n)

    def __add__(self, other) -> "Cyclo":
        a, b = self._align(self._coerce(other))
        return weighted_sum(a.conductor, ((1, a), (1, b)), 1)

    __radd__ = __add__

    def __mul__(self, other) -> "Cyclo":
        if not isinstance(other, Cyclo):
            return weighted_sum(self.conductor, ((1, self),), other)
        a, b = self._align(other)
        n = a.conductor
        out = [0] * (2 * len(a.num) - 1)
        _add_product(out, a.num, b.num, 1)
        return _canonical(n, _reduce(n, out), a.den * b.den)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Cyclo, int, Fraction)):
            return NotImplemented
        other = self._coerce(other)
        a, b = self._align(other)
        return a.den == b.den and a.num == b.num

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def galois(self, j: int) -> "Cyclo":
        """Image under the automorphism sending each root of unity to its
        j-th power; requires gcd(j, conductor) = 1."""
        n = self.conductor
        if gcd(j, n) != 1:
            raise ValueError(f"{j} is not coprime to the conductor {n}")
        return self._power(n, j)

    def _power(self, big_n: int, e: int) -> "Cyclo":
        """Each z^i replaced by w^(i e), w = zeta_big_n: e = big_n / n embeds,
        as w^e = z, and big_n = n, e = j is the automorphism z -> z^j."""
        vec = [0] * big_n
        for i, c in enumerate(self.num):
            if c:
                vec[i * e % big_n] += c
        return _canonical(big_n, _reduce(big_n, vec), self.den)

    def __str__(self) -> str:
        den = self.den
        parts = []
        for c in self.num:
            g = gcd(c, den)
            parts.append(str(c // g) if g == den else f"{c // g}/{den // g}")
        return f"[{', '.join(parts)}] over conductor {self.conductor}"

    __repr__ = __str__


def galois_exponents(n: int) -> list[int]:
    """The j of each automorphism z -> z^j but the identity, ascending."""
    return [j for j in range(2, n) if gcd(j, n) == 1]
