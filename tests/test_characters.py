import dataclasses
import json
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weightdescent.charconj import campaigns, characters
from weightdescent.charconj.campaigns import (
    frobenius_campaign,
    invariance_campaign,
    mackey_campaign,
    random_brauer_spec,
    random_class_function,
    random_subgroup,
    suite_groups,
)
from weightdescent.charconj.characters import (
    BrauerSpec,
    BrauerSummand,
    CharacterError,
    ClassFunction,
    InvarianceReport,
    brauer_combination,
    induce,
    inner_product,
    linear_character_of_cyclic,
    mackey_check,
    restrict,
    verify_conjugation_invariance,
)
from weightdescent.charconj.cyclotomic import Cyclo
from weightdescent.charconj.groups import (
    Subgroup,
    cyclic,
    generated_subgroup,
    quaternion,
    symmetric,
)
from weightdescent.cli import canonical_json

from oracles import (
    as_fraction_cyclo,
    brute_force_induced_values,
    brute_force_inner,
    element_order,
    lifted,
    multiplicative_all_pairs,
    relabelled_classes,
)


SPEC_GROUPS = suite_groups(("S3", "S4", "Q8", "C12"))


def c3_in_s3(s3):
    rot = next(x for x in range(6) if element_order(s3, x) == 3)
    return generated_subgroup(s3, [rot])


def c2_in_s3(s3):
    flip = next(x for x in range(6) if element_order(s3, x) == 2)
    return generated_subgroup(s3, [flip])


class TestClassFunctionBasics:
    def test_trivial_and_regular(self):
        g = cyclic(3)
        assert ClassFunction.aligned(g, [1] * len(g.classes)).values == (Cyclo.from_rational(1),) * 3
        reg = ClassFunction.aligned(g, [3, 0, 0])
        assert reg.value(0) == 3 and reg.value(1) == 0

    def test_linear_character_is_multiplicative(self):
        # the lemma BrauerSpec relies on: g^i -> zeta^(a i) is a homomorphism
        # for every cyclic H of every suite group and every a, and so is each
        # Galois image of it
        checked = 0
        for G in suite_groups().values():
            cyclics = {H.elements: H for H in (generated_subgroup(G, [x]) for x in G.elements)}
            for H in cyclics.values():
                for a in range(H.order):
                    chi = linear_character_of_cyclic(H, a)
                    for j in range(1, H.order + 1):
                        if gcd(j, H.order) == 1:
                            assert multiplicative_all_pairs(chi.galois(j)), (G.name, H.elements, a, j)
                            checked += 1
        assert checked > 500
        assert not multiplicative_all_pairs(ClassFunction.aligned(cyclic(3), [3, 0, 0]))

    def test_linear_character_requires_cyclic(self):
        with pytest.raises(CharacterError, match="cyclic"):
            linear_character_of_cyclic(symmetric(3), 1)


class TestClassFunctionRecord:
    """`ClassFunction.aligned` takes outside values; the record's own
    constructor takes a producer's tuple as it is."""

    def test_aligned_coerces_ints_and_fractions(self):
        g = cyclic(3)
        chi = ClassFunction.aligned(g, [2, Fraction(-1, 3), 0])
        assert chi.values == tuple(map(Cyclo.from_rational, (2, Fraction(-1, 3), 0)))
        assert all(type(v) is Cyclo for v in chi.values)
        assert chi.conductor == 1

    def test_aligned_embeds_mixed_conductors_at_their_lcm(self):
        g = cyclic(3)
        chi = ClassFunction.aligned(g, [Cyclo.zeta(4), Cyclo.zeta(6), 1])
        assert [v.conductor for v in chi.values] == [12, 12, 12]
        assert chi.values == (Cyclo.zeta(4), Cyclo.zeta(6), Cyclo.from_rational(1))

    @pytest.mark.parametrize("count", [0, 2, 4])
    def test_aligned_refuses_a_wrong_count(self, count):
        with pytest.raises(CharacterError, match=f"expected 3 class values, got {count}"):
            ClassFunction.aligned(cyclic(3), [1] * count)

    def test_the_record_keeps_its_tuple_as_given(self):
        g = cyclic(3)
        values = (Cyclo.zeta(3), Cyclo.zeta(3, 2), Cyclo.from_rational(1))
        chi = ClassFunction(g, values)
        assert chi.values is values
        assert chi.values[2].conductor == 1

    def test_fields_cannot_be_set(self):
        chi = ClassFunction.aligned(cyclic(3), [1, 1, 1])
        for name, value in (("values", ()), ("group", cyclic(2))):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(chi, name, value)
        assert issubclass(dataclasses.FrozenInstanceError, AttributeError)
        with pytest.raises(TypeError, match="unhashable"):
            hash(chi)

    def test_equality_needs_the_same_group_object(self):
        g, twin = cyclic(3), cyclic(3)
        chi = ClassFunction.aligned(g, [1, Cyclo.zeta(3), 0])
        assert chi == ClassFunction.aligned(g, [1, Cyclo.zeta(3), 0])
        assert chi != ClassFunction.aligned(twin, [1, Cyclo.zeta(3), 0])
        assert chi != ClassFunction.aligned(g, [1, Cyclo.zeta(3, 2), 0])

    def test_every_producer_gives_a_tuple_at_one_conductor(self):
        # the generated __eq__ compares values as tuples, so a producer that
        # handed over a list would make equal class functions unequal
        s3 = symmetric(3)
        c3 = c3_in_s3(s3)
        chi = linear_character_of_cyclic(c3, 1)
        spec = BrauerSpec(s3, (BrauerSummand(2, c3, chi, chi),))
        for f in (chi, chi * chi, chi.galois(2), induce(c3, chi),
                  restrict(c3, induce(c3, chi)), brauer_combination(spec, 2)):
            assert type(f.values) is tuple
            assert len({v.conductor for v in f.values}) == 1


def every_subgroup(group):
    """Every subgroup of `group`: those generated by two elements cover every
    subgroup of the suite groups, deduplicated by element set."""
    found = {}
    for a in group.elements:
        for b in group.elements:
            h = generated_subgroup(group, (a, b))
            found.setdefault(h.elements, h)
    return list(found.values())


def mixed_class_function(rng, group, conductors):
    """A class function whose given values sit at conductors drawn from
    `conductors`, the first at the last of them, with coordinates over
    assorted denominators, and a rational 0 (conductor 1) on the second
    class when there is one."""
    values = []
    for i in range(len(group.classes)):
        n = conductors[-1] if i == 0 else rng.choice(conductors)
        values.append(Cyclo(n, [Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 5, 7)))
                                for _ in range(n)]))
    if len(values) > 1:
        values[1] = 0
    return ClassFunction.aligned(group, values)


class TestAccumulationOracle:
    """`induce` and `inner_product` sum in coordinates over one common
    denominator; the oracles sum term by term in the `Fraction` kernel.  The
    values mix denominators, so each term's own factor to the common one
    matters, and chi and psi sit at different conductors (4 or 12 against
    5), so the inner product must align them."""

    @pytest.mark.parametrize("name", campaigns.SUITE_NAMES)
    def test_every_subgroup_matches_the_brute_force_sums(self, name):
        G = suite_groups((name,))[name]
        rng = random.Random(f"accumulation:{name}")
        psi_g = mixed_class_function(rng, G, (1, 5))
        for H in every_subgroup(G):
            chi = mixed_class_function(rng, H, (1, 3, 4))
            psi = mixed_class_function(rng, H, (1, 5))
            assert chi.conductor in (4, 12) and psi.conductor == 5
            ind = induce(H, chi)
            assert ind.conductor == chi.conductor
            assert lifted(ind) == brute_force_induced_values(G, H, chi), H.elements
            for f, g in ((chi, psi), (psi, chi), (chi, chi), (ind, psi_g)):
                ip = inner_product(f, g)
                assert ip.conductor == lcm(f.conductor, g.conductor)
                assert as_fraction_cyclo(ip) == brute_force_inner(f, g), H.elements


class TestInduce:
    def test_full_subgroup_is_identity(self):
        s3 = symmetric(3)
        h = Subgroup(s3, range(s3.order))
        chi = ClassFunction.aligned(h, [1, 2, 3])
        ind = induce(h, chi)
        assert [str(v) for v in ind.values] == [str(v) for v in chi.values]

    def test_s3_from_c3_zeta3(self):
        s3 = symmetric(3)
        c3 = c3_in_s3(s3)
        chi = linear_character_of_cyclic(c3, 1)
        ind = induce(c3, chi)
        assert ind.value(0) == 2
        by_size = {len(cls): ind.values[i] for i, cls in enumerate(s3.classes)}
        assert by_size[1] == 2       # identity
        assert by_size[2] == -1      # 3-cycles
        assert by_size[3] == 0       # transpositions

    def test_regular_from_trivial(self):
        c2 = cyclic(2)
        one = Subgroup(c2, [0])
        ind = induce(one, ClassFunction.aligned(one, [1]))
        assert ind == ClassFunction.aligned(c2, [2, 0])

    def test_degree_law(self):
        rng = random.Random(3)
        for g in (symmetric(4), quaternion(), cyclic(12)):
            h = random_subgroup(rng, g)
            chi = random_class_function(rng, h)
            ind = induce(h, chi)
            index = Fraction(g.order, h.order)
            assert ind.value(0) == chi.value(0) * index

    def test_matches_brute_force_on_order_le_24(self):
        rng = random.Random(99)
        for name, g in suite_groups().items():
            assert g.order <= 24
            for _ in range(3):
                h = random_subgroup(rng, g)
                chi = random_class_function(rng, h)
                assert lifted(induce(h, chi)) == brute_force_induced_values(g, h, chi)


class TestRestrict:
    def test_full_subgroup_identity(self):
        s3 = symmetric(3)
        h = Subgroup(s3, range(s3.order))
        chi = ClassFunction.aligned(s3, [1, Cyclo.zeta(3), 0])
        res = restrict(h, chi)
        assert [str(v) for v in res.values] == [str(v) for v in chi.values]

    def test_restrict_of_induced_is_sum_of_conjugates(self):
        s3 = symmetric(3)
        c3 = c3_in_s3(s3)
        chi = linear_character_of_cyclic(c3, 1)
        res = restrict(c3, induce(c3, chi))
        conjugate = linear_character_of_cyclic(c3, 2)
        assert list(res.values) == [a + b for a, b in zip(chi.values, conjugate.values)]

    def test_trivial_restricts_to_trivial(self):
        s3 = symmetric(3)
        c2 = c2_in_s3(s3)
        assert restrict(c2, ClassFunction.aligned(s3, [1, 1, 1])) == ClassFunction.aligned(c2, [1, 1])


class TestInnerProduct:
    def test_trivial_self_product(self):
        for g in (cyclic(5), symmetric(3), quaternion()):
            trivial = ClassFunction.aligned(g, [1] * len(g.classes))
            assert inner_product(trivial, trivial) == 1

    def test_regular_self_product(self):
        c3 = cyclic(3)
        reg = ClassFunction.aligned(c3, [3, 0, 0])
        assert inner_product(reg, reg) == 3

    def test_induced_zeta3_is_irreducible(self):
        s3 = symmetric(3)
        c3 = c3_in_s3(s3)
        ind = induce(c3, linear_character_of_cyclic(c3, 1))
        assert inner_product(ind, ind) == 1

    def test_matches_brute_force(self):
        rng = random.Random(42)
        for g in (symmetric(3), quaternion(), cyclic(6)):
            chi = random_class_function(rng, g)
            psi = random_class_function(rng, g)
            assert as_fraction_cyclo(inner_product(chi, psi)) == brute_force_inner(chi, psi)

    def test_group_mismatch(self):
        with pytest.raises(CharacterError):
            inner_product(ClassFunction.aligned(cyclic(3), [1, 1, 1]), ClassFunction.aligned(cyclic(3), [1, 1, 1]))

    def test_frobenius_reciprocity_random(self):
        rng = random.Random(17)
        for g in (symmetric(3), symmetric(4), quaternion()):
            for _ in range(5):
                h = random_subgroup(rng, g)
                chi = random_class_function(rng, h)
                psi = random_class_function(rng, g)
                assert inner_product(induce(h, chi), psi) == inner_product(
                    chi, restrict(h, psi)
                )

    def test_galois_equivariance(self):
        from math import gcd, lcm

        rng = random.Random(23)
        s3 = symmetric(3)
        for _ in range(6):
            chi = random_class_function(rng, s3)
            psi = random_class_function(rng, s3)
            n = lcm(chi.conductor, psi.conductor)
            chi_n = ClassFunction.aligned(s3, [v.to_conductor(n) for v in chi.values])
            psi_n = ClassFunction.aligned(s3, [v.to_conductor(n) for v in psi.values])
            j = next((j for j in range(2, n) if gcd(j, n) == 1), 1)
            lhs = inner_product(chi_n.galois(j), psi_n.galois(j))
            rhs = inner_product(chi_n, psi_n).galois(j)
            assert lhs == rhs


class TestMackey:
    def test_s3_c3_c3(self):
        s3 = symmetric(3)
        c3 = c3_in_s3(s3)
        chi = linear_character_of_cyclic(c3, 1)
        assert mackey_check(c3, c3, chi) is True

    def test_a_dropped_double_coset_breaks_the_identity(self, monkeypatch):
        s3 = symmetric(3)
        c3 = c3_in_s3(s3)
        chi = linear_character_of_cyclic(c3, 1)
        whole = characters.double_cosets
        monkeypatch.setattr(characters, "double_cosets", lambda *args: whole(*args)[:-1])
        assert mackey_check(c3, c3, chi) is False

    def test_full_subgroup_single_coset(self):
        s3 = symmetric(3)
        h = Subgroup(s3, range(s3.order))
        chi = ClassFunction.aligned(h, [1, Cyclo.zeta(4), -2])
        assert mackey_check(h, h, chi) is True

    def test_s4_d4_c4(self):
        s4 = symmetric(4)
        r = next(x for x in range(24) if element_order(s4, x) == 4)
        d4 = None
        for s in range(24):
            h = generated_subgroup(s4, [r, s])
            if h.order == 8:
                d4 = h
                break
        c4 = generated_subgroup(s4, [r])
        rng = random.Random(8)
        chi = random_class_function(rng, d4)
        assert mackey_check(d4, c4, chi) is True

    def test_random_draws(self):
        rng = random.Random(31)
        for g in (symmetric(4), quaternion(), cyclic(12)):
            for _ in range(5):
                h = random_subgroup(rng, g)
                k = random_subgroup(rng, g)
                chi = random_class_function(rng, h)
                assert mackey_check(h, k, chi) is True

    def test_nested_subgroups_match_the_relabelled_group(self, monkeypatch):
        built = []

        def recording(parent, elements):
            built.append(Subgroup(parent, elements))
            return built[-1]

        monkeypatch.setattr(characters, "Subgroup", recording)
        rng = random.Random(5)
        for g in suite_groups(("S4", "D4", "Q8")).values():
            for _ in range(10):
                h, k = random_subgroup(rng, g), random_subgroup(rng, g)
                assert mackey_check(h, k, random_class_function(rng, h)) is True
        assert any(L.order > 1 for L in built)
        for L in built:
            assert isinstance(L.parent, Subgroup)
            assert L.classes == relabelled_classes(L.parent, L.elements), L.elements

    def test_a_subgroup_of_another_group_is_refused(self):
        s3 = symmetric(3)
        c3 = c3_in_s3(s3)
        other = c3_in_s3(symmetric(3))
        chi = linear_character_of_cyclic(c3, 1)
        with pytest.raises(CharacterError):
            mackey_check(c3, other, chi)


class TestBrauer:
    def test_single_full_summand_is_identity(self):
        s3 = symmetric(3)
        h = Subgroup(s3, range(s3.order))
        chi = ClassFunction.aligned(h, [2, 0, -1])
        spec = BrauerSpec(s3, (BrauerSummand(1, h, chi, ClassFunction.aligned(h, [1, 1, 1])),))
        rho = brauer_combination(spec)
        assert [str(v) for v in rho.values] == [str(v) for v in chi.values]

    def test_empty_spec_is_zero(self):
        s3 = symmetric(3)
        rho = brauer_combination(BrauerSpec(s3, ()))
        assert all(v == 0 for v in rho.values)

    def test_s3_two_summand_example(self):
        s3 = symmetric(3)
        c3 = c3_in_s3(s3)
        c2 = c2_in_s3(s3)
        chi3 = linear_character_of_cyclic(c3, 1)
        sign2 = linear_character_of_cyclic(c2, 1)
        spec = BrauerSpec(
            s3,
            (
                BrauerSummand(1, c3, chi3, ClassFunction.aligned(c3, [1, 1, 1])),
                BrauerSummand(1, c2, ClassFunction.aligned(c2, [1, 1]), sign2),
            ),
        )
        rho = brauer_combination(spec)
        expected = [
            a + b
            for a, b in zip(
                brute_force_induced_values(s3, c3, chi3),
                brute_force_induced_values(s3, c2, sign2),
            )
        ]
        assert lifted(rho) == [v.to_conductor(rho.conductor) for v in expected]

    @pytest.mark.parametrize("name", campaigns.SUITE_NAMES)
    def test_the_folded_sum_matches_the_brute_force_sum_of_summands(self, name):
        # one weighted sum per class against each summand induced on its own,
        # twisted and conjugated in the reference kernel, for every j
        G = suite_groups((name,))[name]
        rng = random.Random(f"fold:{name}")
        for _ in range(4):
            spec = random_brauer_spec(rng, G)
            n = spec.conductor()
            for j in (j for j in range(1, n + 1) if gcd(j, n) == 1):
                expected = [0] * len(G.classes)
                for s in spec.summands:
                    def twisted(h, s=s):
                        chi, twist = s.character.value(h), s.twist.value(h)
                        return (as_fraction_cyclo(chi) * as_fraction_cyclo(twist)).galois(j)

                    induced = brute_force_induced_values(G, s.subgroup, twisted)
                    expected = [e + v * s.coefficient for e, v in zip(expected, induced)]
                rho = brauer_combination(spec, j)
                assert rho.conductor == n
                assert lifted(rho) == expected, (spec, j)


class TestVirtualCharacterIntegrality:
    def test_random_combinations_have_integer_self_products(self):
        rng = random.Random(77)
        for g in (symmetric(3), symmetric(4), quaternion()):
            for _ in range(10):
                spec = random_brauer_spec(rng, g)
                ip = inner_product(brauer_combination(spec), brauer_combination(spec))
                assert ip.is_rational()
                assert ip.den == 1


class TestConjugationInvariance:
    def test_c5_zeta_character(self):
        c5 = cyclic(5)
        h = Subgroup(c5, range(c5.order))
        chi = linear_character_of_cyclic(h, 1)
        spec = BrauerSpec(c5, (BrauerSummand(1, h, chi, ClassFunction.aligned(h, [1] * 5)),))
        report = verify_conjugation_invariance(spec, 2)
        assert report.passed
        assert report.rational and report.equal_exactly
        assert report.self_product == str(Cyclo.from_rational(1).to_conductor(5))

    def test_j_equals_one_is_identical(self):
        s3 = symmetric(3)
        c3 = c3_in_s3(s3)
        chi = linear_character_of_cyclic(c3, 1)
        spec = BrauerSpec(s3, (BrauerSummand(2, c3, chi, chi),))
        report = verify_conjugation_invariance(spec, 1)
        assert report.passed
        assert report.self_product == report.conjugated_self_product

    def test_j_must_be_coprime(self):
        c5 = cyclic(5)
        h = Subgroup(c5, range(c5.order))
        chi = linear_character_of_cyclic(h, 1)
        spec = BrauerSpec(c5, (BrauerSummand(1, h, chi, ClassFunction.aligned(h, [1] * 5)),))
        with pytest.raises(CharacterError, match="coprime"):
            verify_conjugation_invariance(spec, 5)

    @given(seed=st.integers(0, 2**32 - 1), name=st.sampled_from(("S3", "S4", "Q8", "C12")))
    @settings(max_examples=40, deadline=None)
    def test_conjugate_summands_need_no_second_check(self, seed, name):
        g = SPEC_GROUPS[name]
        spec = random_brauer_spec(random.Random(seed), g)
        n = spec.conductor()
        for j in (j for j in range(1, n + 1) if gcd(j, n) == 1):
            expected = [0] * len(g.classes)
            for s in spec.summands:
                conjugated = s.character.galois(j) * s.twist.galois(j)
                induced = brute_force_induced_values(g, s.subgroup, conjugated)
                expected = [e + v * s.coefficient for e, v in zip(expected, induced)]
            assert lifted(brauer_combination(spec, j)) == expected


class TestCampaigns:
    def test_small_runs_pass(self):
        assert frobenius_campaign(draws=3, seed=5).passed
        assert mackey_campaign(draws=3, seed=5).passed
        assert invariance_campaign(trials=10, seed=5).passed

    def test_deterministic_given_seed(self):
        a = json.loads(canonical_json(invariance_campaign(trials=8, seed=12)))
        b = json.loads(canonical_json(invariance_campaign(trials=8, seed=12)))
        assert a == b
        assert a["seed"] == 12

    def test_report_carries_counts(self):
        r = frobenius_campaign(draws=2, seed=0, names=("S3", "C4"))
        assert r.checks_run == 4
        assert r.groups == ("S3", "C4")

    def test_a_repeated_group_name_is_reported_once(self):
        for campaign in (frobenius_campaign, mackey_campaign):
            r = campaign(draws=2, seed=0, names=("S3", "S3"))
            assert (r.groups, r.checks_run) == (("S3",), 2)
        r = invariance_campaign(trials=3, seed=0, names=("Q8", "Q8"))
        assert (r.groups, r.checks_run) == (("Q8",), 3)

    def test_invariance_trials_conjugate_non_trivially(self, monkeypatch):
        seen = []

        def spy(spec, j):
            seen.append((spec.conductor(), j))
            return InvarianceReport(j, "1", "1", "1", True, True, True)

        monkeypatch.setattr(campaigns, "verify_conjugation_invariance", spy)
        for seed in range(3):
            assert invariance_campaign(trials=100, seed=seed).passed
        assert len(seen) == 300
        assert any(n > 2 for n, _ in seen)
        assert [(n, j) for n, j in seen if n > 2 and j == 1] == []

    def test_a_failing_rational_trial_is_reported_once(self, monkeypatch):
        def unequal(spec, j):
            return InvarianceReport(j, "1", "2", "1", False, True, False)

        monkeypatch.setattr(campaigns, "verify_conjugation_invariance", unequal)
        report = invariance_campaign(trials=7, seed=3)
        assert len(report.failures) == 7
        assert all(f.startswith(f"trial {i} on ") for i, f in enumerate(report.failures))
