import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weightdescent.charconj.cyclotomic import Cyclo, cyclotomic_polynomial, galois_exponents

from fraction_cyclo import Cyclo as FractionCyclo


def test_cyclotomic_polynomial_snapshots():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    for p in (5, 7, 11, 13):
        assert cyclotomic_polynomial(p) == tuple([1] * p)


def test_cyclotomic_105_has_coefficient_minus_two():
    # the first conductor with a coefficient outside {-1, 0, 1}
    assert -2 in cyclotomic_polynomial(105)


def test_basic_identities():
    z4 = Cyclo.zeta(4)
    assert z4 * z4 == -1
    z3 = Cyclo.zeta(3)
    assert z3 + z3 * z3 == -1
    z5 = Cyclo.zeta(5)
    total = Cyclo.from_rational(0)
    for k in range(1, 5):
        total = total + Cyclo.zeta(5, k)
    assert total == -1
    # zeta_6 = -zeta_3^2, checked across conductors
    assert Cyclo.zeta(6) == z3 * z3 * -1


def test_canonical_form_is_syntactic():
    a = Cyclo(4, [Fraction(1), Fraction(0), Fraction(1)])  # 1 + z^2 = 0
    assert a == 0
    b = Cyclo.zeta(8, 2)  # z_8^2 = z_4
    assert b.to_conductor(8) == Cyclo.zeta(4).to_conductor(8)
    assert b == Cyclo.zeta(4)


def test_rational_detection():
    z3 = Cyclo.zeta(3)
    x = z3 + z3.galois(2)  # z + z^2 = -1
    assert x.is_rational()
    assert x == -1
    assert not z3.is_rational()


def test_conductor_embedding_requires_divisibility():
    with pytest.raises(ValueError):
        Cyclo.zeta(4).to_conductor(6)
    assert Cyclo.zeta(4).to_conductor(12).conductor == 12


coeff = st.integers(min_value=-4, max_value=4)


@st.composite
def cyclos(draw, conductors=(1, 2, 3, 4, 5, 6, 8, 12)):
    n = draw(st.sampled_from(conductors))
    powers = draw(st.lists(coeff, min_size=n, max_size=n))
    return Cyclo(n, [Fraction(c) for c in powers])


@given(cyclos(), cyclos(), cyclos())
@settings(max_examples=60)
def test_ring_laws(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x
    assert x + x * -1 == 0


class TestGalois:
    def test_identity(self):
        x = Cyclo.zeta(5) + 2 * Cyclo.zeta(5, 3)
        assert x.galois(1) == x

    def test_basis_action(self):
        assert Cyclo.zeta(5).galois(2) == Cyclo.zeta(5, 2)
        assert Cyclo.zeta(5).galois(7) == Cyclo.zeta(5, 2)  # 7 = 2 mod 5

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            Cyclo.zeta(6).galois(3)

    def test_field_automorphism(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.choice((3, 4, 5, 8, 12))
            x = Cyclo(n, [Fraction(rng.randint(-3, 3)) for _ in range(n)])
            y = Cyclo(n, [Fraction(rng.randint(-3, 3)) for _ in range(n)])
            j = rng.choice([j for j in range(1, n) if gcd(j, n) == 1])
            assert (x + y).galois(j) == x.galois(j) + y.galois(j)
            assert (x * y).galois(j) == x.galois(j) * y.galois(j)

    def test_composition(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.choice((5, 8, 12))
            x = Cyclo(n, [Fraction(rng.randint(-3, 3)) for _ in range(n)])
            units = [j for j in range(1, n) if gcd(j, n) == 1]
            j, k = rng.choice(units), rng.choice(units)
            assert x.galois(j).galois(k) == x.galois((j * k) % n)

    def test_exponents_are_the_non_identity_automorphisms(self):
        for n in range(1, 61):
            exponents = galois_exponents(n)
            assert exponents == sorted(set(exponents))
            phi = sum(1 for j in range(1, n + 1) if gcd(j, n) == 1)
            assert len(exponents) == phi - 1
            if n <= 2:
                assert exponents == []
            # each exponent is an automorphism Cyclo.galois accepts, and no
            # two of them (nor the identity) send zeta to the same power
            images = [Cyclo.zeta(n).galois(j) for j in [1] + exponents]
            assert all(x != y for i, x in enumerate(images) for y in images[:i])

    def test_conjugation_fixes_rationals(self):
        x = Cyclo.from_rational(Fraction(7, 3))
        assert x.galois(4) == x
        assert Cyclo.zeta(5).galois(4) == Cyclo.zeta(5, 4)


def test_render_format():
    assert str(Cyclo.zeta(5)) == "[0, 1, 0, 0] over conductor 5"
    assert str(Cyclo.from_rational(Fraction(1, 2))) == "[1/2] over conductor 1"


rationals = st.integers(-5, 5) | st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def kernel_twins(draw):
    """One value built by both kernels from the same powers: a random
    conductor (1 and 2 included), and up to n + 3 powers, so that exponents
    at or past the conductor fold back."""
    n = draw(st.sampled_from((1, 2)) | st.integers(1, 16))
    powers = draw(st.lists(rationals, max_size=n + 3))
    return Cyclo(n, powers), FractionCyclo(n, powers)


def agree(value, reference) -> bool:
    """Same conductor and coordinates (`str` renders each one), and the
    integer kernel's form is canonical: a positive denominator sharing no
    factor with every coordinate."""
    return (value.den > 0 and gcd(value.den, *value.num) == 1
            and value.conductor == reference.conductor
            and str(value) == str(reference))


@given(kernel_twins(), kernel_twins(), rationals, st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_the_integer_kernel_agrees_with_the_fraction_kernel(x, y, q, k):
    """Every ring operation, Galois image, comparison, embedding and rendering
    of the package's integer kernel matches the Fraction kernel's, on single
    and mixed conductors."""
    (a, fa), (b, fb) = x, y
    assert agree(a, fa)
    assert agree(a + b, fa + fb)
    assert agree(a * b, fa * fb)
    assert agree(a + q, fa + q) and agree(q + a, q + fa)
    assert agree(a * q, fa * q) and agree(q * a, q * fa)
    assert (a == b) == (fa == fb)
    assert (a == q) == (fa == q)
    assert (a + b == b) == (fa + fb == fb)
    assert a.is_rational() == fa.is_rational()
    big = a.conductor * k
    assert agree(a.to_conductor(big), fa.to_conductor(big))
    assert (a.to_conductor(big) == b) == (fa.to_conductor(big) == fb)
    for j in range(1, 2 * a.conductor):
        if gcd(j, a.conductor) == 1:
            assert agree(a.galois(j), fa.galois(j))
