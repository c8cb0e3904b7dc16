"""Exact arithmetic kernel.

The exact rational constants of the audits (`fractions.Fraction`) and
directed-rounded decimal enclosures.  Every pass/fail comparison elsewhere in
the package goes through exact rational arithmetic; the enclosure type exists
only to certify the one transcendental quantity (a rational power of a
rational) with outward rounding.

All values are immutable and all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_CEILING, ROUND_FLOOR, Context, Decimal
from fractions import Fraction

# Exact forms of the decimal constants driving the audits.  The decimal
# literals are finite, so these identifications are lossless.
RATIO_BOUND = Fraction(143, 125)          # 1.144
SHIFTED_RATIO_BOUND = Fraction(23, 20)    # 1.15
M_BOUND_RATIO = Fraction(6, 5)            # (p-1)/(k-2) below it gives m > 6
CHEBYSHEV_A = Fraction(1)
CHEBYSHEV_B = Fraction(1130289, 1000000)  # 1.130289

DEFAULT_DIGITS = 50
# exp(t) < 10^(Emax - 0.04) for t <= EXP_ARG_MAX, as 2302585/10^6 < ln 10: the
# enclosure contexts hold exp of every argument up to this bound, widened by
# one unit in the last place, at any precision
DECIMAL_EMAX = Context().Emax
EXP_ARG_MAX = Fraction(DECIMAL_EMAX * 2302585, 10**6)
# an exact integer power of at most this many bits costs microseconds
EXACT_POWER_BITS = 1 << 16


def _ctx(digits: int, rounding: str) -> Context:
    return Context(prec=digits, rounding=rounding)


def _ulp(value: Decimal, digits: int) -> Decimal:
    # one unit in the last place of a `digits`-digit result
    if value.is_zero():
        return Decimal(1).scaleb(-digits)
    return Decimal(1).scaleb(value.adjusted() - digits + 1)


def _pad_down(value: Decimal, digits: int) -> Decimal:
    return _ctx(digits + 2, ROUND_FLOOR).subtract(value, _ulp(value, digits))


def _pad_up(value: Decimal, digits: int) -> Decimal:
    return _ctx(digits + 2, ROUND_CEILING).add(value, _ulp(value, digits))


@dataclass(frozen=True)
class RealEnclosure:
    """A closed decimal interval [lower, upper] certified to contain a real.

    Basic arithmetic uses directed rounding on the endpoints; `exp` and `ln`
    are computed correctly rounded and then widened by one unit in the last
    place on each side, so the enclosure stays valid whatever rounding mode
    the library function honoured.  Widening is always outward, hence every
    derived enclosure still contains the true value.
    """

    lower: Decimal
    upper: Decimal

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError(f"inverted enclosure: {self.lower} > {self.upper}")

    @classmethod
    def from_rational(cls, value, digits: int = DEFAULT_DIGITS) -> "RealEnclosure":
        value = Fraction(value)
        num = Decimal(value.numerator)
        den = Decimal(value.denominator)
        lo = _ctx(digits, ROUND_FLOOR).divide(num, den)
        hi = _ctx(digits, ROUND_CEILING).divide(num, den)
        return cls(lo, hi)

    def width(self) -> Decimal:
        return _ctx(DEFAULT_DIGITS, ROUND_CEILING).subtract(self.upper, self.lower)

    def mul(self, other: "RealEnclosure", digits: int = DEFAULT_DIGITS) -> "RealEnclosure":
        down = _ctx(digits, ROUND_FLOOR)
        up = _ctx(digits, ROUND_CEILING)
        pairs = [
            (self.lower, other.lower),
            (self.lower, other.upper),
            (self.upper, other.lower),
            (self.upper, other.upper),
        ]
        lo = min(down.multiply(a, b) for a, b in pairs)
        hi = max(up.multiply(a, b) for a, b in pairs)
        return RealEnclosure(lo, hi)

    def exp(self, digits: int = DEFAULT_DIGITS) -> "RealEnclosure":
        # exp > 0, so a lower end padded past zero (from an underflow to 0,
        # or to -0 when the padding cancels the value) is raised to 0
        c = Context(prec=digits)
        lower = _pad_down(c.exp(self.lower), digits)
        return RealEnclosure(
            Decimal(0) if lower.is_signed() else lower,
            _pad_up(c.exp(self.upper), digits),
        )

    def ln(self, digits: int = DEFAULT_DIGITS) -> "RealEnclosure":
        """[ln lower, ln upper], padded outward.  A point (lower == upper,
        as from_rational gives for any base exact at `digits`) takes one
        Context.ln: ln is correctly rounded, so equal operands give the same
        result, and a second call would only repeat the first."""
        if self.lower <= 0:
            raise ValueError("ln requires a strictly positive enclosure")
        c = Context(prec=digits)
        lower = c.ln(self.lower)
        upper = lower if self.upper == self.lower else c.ln(self.upper)
        return RealEnclosure(_pad_down(lower, digits), _pad_up(upper, digits))

    def __str__(self) -> str:
        return f"[{self.lower}, {self.upper}]"


def pow_enclosure(base, exponent: RealEnclosure, digits: int = DEFAULT_DIGITS) -> "RealEnclosure":
    """Enclosure of base**exponent for a positive rational base.

    A degenerate integer exponent n is evaluated exactly in rational
    arithmetic while the power has at most EXACT_POWER_BITS bits (n times
    the bit length of base's numerator or denominator), so it stays cheap;
    otherwise the power goes through exp(exponent * ln(base)) with outward
    rounding at every step, so larger `digits` yields a nested, tighter
    enclosure.  When the enclosure of exponent * ln(base) reaches past
    EXP_ARG_MAX, the power cannot be enclosed at `digits` and a ValueError
    is raised before exp is called.
    """
    base = Fraction(base)
    if base <= 0:
        raise ValueError("pow_enclosure requires a positive base")
    if digits < 1:
        raise ValueError("digits must be >= 1")
    lo, hi = exponent.lower, exponent.upper
    if lo == hi and lo == lo.to_integral_value():
        n = int(lo)
        if abs(n) * max(base.numerator.bit_length(), base.denominator.bit_length()) <= EXACT_POWER_BITS:
            return RealEnclosure.from_rational(base ** n, digits)
    ln_base = RealEnclosure.from_rational(base, digits).ln(digits)
    arg = exponent.mul(ln_base, digits)
    if Fraction(arg.upper) > EXP_ARG_MAX:
        raise ValueError(
            f"{base}^x for x in {exponent} cannot be enclosed at {digits} digits: the "
            f"enclosure of x * ln({base}) reaches {arg.upper}, past ln(10^{DECIMAL_EMAX}); "
            "more digits narrow it"
        )
    return arg.exp(digits)
