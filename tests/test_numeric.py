from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weightdescent.numeric import (
    CHEBYSHEV_B,
    EXACT_POWER_BITS,
    RATIO_BOUND,
    SHIFTED_RATIO_BOUND,
    RealEnclosure,
    pow_enclosure,
)

rationals = st.fractions(
    min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=999
)


def test_constants_are_the_exact_decimals():
    assert RATIO_BOUND == Fraction(1144, 1000)
    assert SHIFTED_RATIO_BOUND == Fraction(115, 100)
    assert CHEBYSHEV_B == Fraction("1.130289")


class TestRealEnclosure:
    def test_from_rational_exact_when_representable(self):
        e = RealEnclosure.from_rational(Fraction(1, 8), 10)
        assert e.lower == e.upper == Decimal("0.125")
        assert e.width() == 0

    def test_from_rational_outward(self):
        e = RealEnclosure.from_rational(Fraction(1, 3), 10)
        assert Fraction(e.lower) < Fraction(1, 3) < Fraction(e.upper)

    def test_inverted_rejected(self):
        with pytest.raises(ValueError):
            RealEnclosure(Decimal(2), Decimal(1))

    @given(rationals, rationals)
    @settings(max_examples=60)
    def test_mul_contains_exact_product(self, a, b):
        ea = RealEnclosure.from_rational(a, 12)
        eb = RealEnclosure.from_rational(b, 12)
        e = ea.mul(eb, 12)
        assert Fraction(e.lower) <= a * b <= Fraction(e.upper)

    def test_exp_ln_roundtrip_contains(self):
        e = RealEnclosure.from_rational(Fraction(7, 2), 25)
        back = e.ln(25).exp(25)
        assert Fraction(back.lower) <= Fraction(7, 2) <= Fraction(back.upper)

    @given(
        x=st.one_of(rationals, st.integers(-10**7, -2 * 10**6).map(Fraction)),
        digits=st.integers(1, 40),
    )
    @example(x=Fraction(-200000), digits=1)  # exp padded down to -0
    @example(x=Fraction(-3465736), digits=30)  # exp underflows to 0
    @example(x=Fraction(-2302585), digits=3)  # a subnormal upper end
    @settings(max_examples=80, deadline=None)
    def test_exp_has_a_nonnegative_lower_end_and_encloses_the_value(self, x, digits):
        e = RealEnclosure.from_rational(x, digits).exp(digits)
        assert e.lower >= 0 and not e.lower.is_signed()
        with mpmath.workdps(digits + 30):
            value = mpmath.exp(mpmath.mpf(x.numerator) / x.denominator)
            assert mpmath.mpf(str(e.lower)) <= value <= mpmath.mpf(str(e.upper))

    def test_ln_requires_positive(self):
        with pytest.raises(ValueError):
            RealEnclosure(Decimal(0), Decimal(0)).ln(10)


class TestPowEnclosure:
    def test_integer_power_is_exact(self):
        e = pow_enclosure(2, RealEnclosure(Decimal(10), Decimal(10)), 20)
        assert e.lower == e.upper == Decimal(1024)

    def test_an_integer_power_past_exact_power_bits_goes_through_exp(self):
        # exact while n * bit length <= EXACT_POWER_BITS; 2 has bit length 2
        n = EXACT_POWER_BITS // 2
        exact = pow_enclosure(2, RealEnclosure(Decimal(n), Decimal(n)), 20)
        assert exact == RealEnclosure.from_rational(Fraction(2) ** n, 20)
        wide = pow_enclosure(2, RealEnclosure(Decimal(n + 1), Decimal(n + 1)), 20)
        assert wide != RealEnclosure.from_rational(Fraction(2) ** (n + 1), 20)
        assert Fraction(wide.lower) < 2 ** (n + 1) < Fraction(wide.upper)

    def test_a_power_past_the_decimal_range_is_refused_before_exp(self):
        # 10^8 * ln(1.13) ~ 1.2 * 10^7, past ln(10^Emax) ~ 2.3 * 10^6
        x = RealEnclosure(Decimal(10**8), Decimal(10**8 + 1))
        with pytest.raises(ValueError, match="cannot be enclosed at 30 digits"):
            pow_enclosure(Fraction(113, 100), x, 30)

    def test_zeroth_power(self):
        e = pow_enclosure(Fraction(143, 125), RealEnclosure(Decimal(0), Decimal(0)), 20)
        assert e.lower == e.upper == Decimal(1)

    def test_threshold_instance(self):
        exponent = RealEnclosure.from_rational(Fraction(1130289, 13711), 30)
        e = pow_enclosure(Fraction(143, 125), exponent, 30)
        # value certified by an independent high-precision oracle in
        # test_gaps; here just the coarse bracket
        assert Fraction(e.lower) > Fraction(6553089, 100)
        assert Fraction(e.upper) < Fraction(655309, 10)

    def test_monotone_refinement(self):
        exponent_value = Fraction(1130289, 13711)
        prev = None
        for digits in (8, 12, 16, 24, 32, 40):
            exponent = RealEnclosure.from_rational(exponent_value, digits)
            enc = pow_enclosure(Fraction(143, 125), exponent, digits)
            if prev is not None:
                assert Fraction(enc.lower) >= Fraction(prev.lower)
                assert Fraction(enc.upper) <= Fraction(prev.upper)
            prev = enc

    def test_nonpositive_base_rejected(self):
        with pytest.raises(ValueError):
            pow_enclosure(0, RealEnclosure(Decimal(2), Decimal(2)), 10)
        with pytest.raises(ValueError):
            pow_enclosure(Fraction(-3, 2), RealEnclosure(Decimal(2), Decimal(2)), 10)
