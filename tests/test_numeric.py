from decimal import Context, Decimal
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weightdescent import numeric
from weightdescent.cli import main
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


def two_ln(self: RealEnclosure, digits: int = numeric.DEFAULT_DIGITS) -> RealEnclosure:
    """RealEnclosure.ln as one Context.ln call per end, padded as it pads:
    the reference for its one call on a point."""
    c = Context(prec=digits)
    return RealEnclosure(numeric._pad_down(c.ln(self.lower), digits),
                         numeric._pad_up(c.ln(self.upper), digits))


def digit_tuples(e: RealEnclosure) -> tuple:
    """Both ends as sign, digits and exponent: equal only when they print
    the same."""
    return e.lower.as_tuple(), e.upper.as_tuple()


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

    @given(x=st.fractions(Fraction(1, 10**4), Fraction(10**6), max_denominator=10**4),
           digits=st.integers(1, 200))
    @example(x=RATIO_BOUND, digits=200)  # a point
    @example(x=Fraction(1), digits=30)  # ln 1 = 0
    @example(x=Fraction(1, 3), digits=30)  # not a point
    @settings(max_examples=100, deadline=None)
    def test_ln_gives_the_ends_of_two_separate_ln_calls(self, x, digits):
        e = RealEnclosure.from_rational(x, digits)
        assert digit_tuples(e.ln(digits)) == digit_tuples(two_ln(e, digits))

    @pytest.mark.parametrize("lower, upper", [
        ("1.144", "1.14400"), ("1", "1.000"), ("1E+5", "100000"), ("0.5", "0.50"),
    ])
    def test_ln_of_a_point_written_two_ways_gives_two_calls_ends(self, lower, upper):
        e = RealEnclosure(Decimal(lower), Decimal(upper))
        assert digit_tuples(e.ln(40)) == digit_tuples(two_ln(e, 40))

    def test_a_point_takes_one_ln_call_and_an_interval_two(self, monkeypatch):
        calls = []

        class Counting(Context):
            def ln(self, x):
                calls.append(x)
                return super().ln(x)

        monkeypatch.setattr(numeric, "Context", Counting)
        RealEnclosure.from_rational(RATIO_BOUND, 200).ln(200)
        assert calls == [Decimal("1.144")]
        RealEnclosure.from_rational(Fraction(1, 3), 200).ln(200)
        assert len(calls) == 3

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


# --a 1/3 alone lies below C and is refused; with --b 1/5 the exponent is
# 3/2, so the power takes ln of the enclosure of 1/3, which is no point
@pytest.mark.parametrize("extra", [[], ["--typo-variant"], ["--a", "1/3", "--b", "1/5"],
                                   ["--a", "4/3"]])
def test_threshold_json_equals_a_two_ln_reference(capsys, monkeypatch, extra):
    def runs():
        for digits in range(1, 201):
            code = main(["threshold", "--digits", str(digits), *extra, "--format", "json"])
            yield code, capsys.readouterr()

    ours = list(runs())
    monkeypatch.setattr(RealEnclosure, "ln", two_ln)
    assert list(runs()) == ours
