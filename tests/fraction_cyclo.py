"""The `Fraction`-based cyclotomic kernel, kept as the tests' reference.

An element of the n-th cyclotomic field is stored as `Fraction` coordinates
on the power basis 1, z, ..., z^(phi(n)-1) of a primitive n-th root z,
reduced modulo the n-th cyclotomic polynomial by rational long division.
The package's `Cyclo` stores the same values as integer coordinates over one
common denominator; this module shares no code with it, so the character
oracles and the kernel-agreement test check the package's arithmetic
against arithmetic done another way.
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


def _reduce(n: int, powers: list[Fraction]) -> tuple[Fraction, ...]:
    """Fold exponents mod n, then reduce modulo the cyclotomic polynomial."""
    vec = [Fraction(0)] * n
    for i, c in enumerate(powers):
        if c:
            vec[i % n] += c
    phi_poly = cyclotomic_polynomial(n)
    deg = len(phi_poly) - 1
    for i in range(n - 1, deg - 1, -1):
        c = vec[i]
        if c:
            for j, pc in enumerate(phi_poly):
                vec[i - deg + j] -= c * pc
    return tuple(vec[:deg])


class Cyclo:
    """An element of Q(zeta_n) in canonical coordinates."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, powers=()):
        if conductor < 1:
            raise ValueError("conductor must be >= 1")
        object.__setattr__(self, "conductor", conductor)
        vec = [Fraction(c) for c in powers]
        object.__setattr__(self, "coeffs", _reduce(conductor, vec))

    def __setattr__(self, name, value):
        raise AttributeError("Cyclo values are immutable")

    @classmethod
    def zeta(cls, n: int, k: int = 1) -> "Cyclo":
        vec = [Fraction(0)] * n
        vec[k % n] = Fraction(1)
        return cls(n, vec)

    @classmethod
    def from_rational(cls, value) -> "Cyclo":
        return cls(1, [Fraction(value)])

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
        stride = big_n // n
        vec = [Fraction(0)] * big_n
        for i, c in enumerate(self.coeffs):
            vec[i * stride] = c
        return Cyclo(big_n, vec)

    def _align(self, other: "Cyclo") -> tuple["Cyclo", "Cyclo"]:
        n = lcm(self.conductor, other.conductor)
        return self.to_conductor(n), other.to_conductor(n)

    def __add__(self, other) -> "Cyclo":
        other = self._coerce(other)
        a, b = self._align(other)
        return Cyclo(a.conductor, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __mul__(self, other) -> "Cyclo":
        if not isinstance(other, Cyclo):
            q = Fraction(other)
            return Cyclo(self.conductor, [c * q for c in self.coeffs])
        a, b = self._align(other)
        n = a.conductor
        out = [Fraction(0)] * (2 * len(a.coeffs))
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        out[i + j] += x * y
        return Cyclo(n, out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Cyclo, int, Fraction)):
            return NotImplemented
        other = self._coerce(other)
        a, b = self._align(other)
        return a.coeffs == b.coeffs

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def galois(self, j: int) -> "Cyclo":
        """Image under the automorphism sending each root of unity to its
        j-th power; requires gcd(j, conductor) = 1."""
        n = self.conductor
        if gcd(j, n) != 1:
            raise ValueError(f"{j} is not coprime to the conductor {n}")
        vec = [Fraction(0)] * n
        for i, c in enumerate(self.coeffs):
            if c:
                vec[(i * j) % n] += c
        return Cyclo(n, vec)

    def __str__(self) -> str:
        inner = ", ".join(str(c) for c in self.coeffs)
        return f"[{inner}] over conductor {self.conductor}"

    __repr__ = __str__
