import contextlib
import random
import re
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weightdescent.charconj.campaigns import SUITE_NAMES, suite_groups
from weightdescent.charconj.groups import (
    FiniteGroup,
    GroupError,
    builtin_group,
    cyclic,
    dihedral,
    double_cosets,
    generated_subgroup,
    load_group,
    Subgroup,
    quaternion,
    symmetric,
)

from oracles import associative_by_triples, closure_oracle, element_order, relabelled_classes


@contextlib.contextmanager
def address_space_headroom(extra: int):
    """Cap this process's address space at its current size plus `extra`
    bytes for the body, where the platform lets a process read its size."""
    try:
        import resource
        pages = int(Path("/proc/self/statm").read_text(encoding="ascii").split()[0])
    except (ImportError, OSError):
        yield
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = pages * resource.getpagesize() + extra
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def three_cycle(g):
    return next(x for x in range(g.order) if element_order(g, x) == 3)


class TestBuiltins:
    def test_cyclic(self):
        for n in range(1, 13):
            g = cyclic(n)
            assert g.order == n
            assert len(g.classes) == n  # abelian: singleton classes

    def test_s3(self):
        g = symmetric(3)
        assert g.order == 6
        assert sorted(len(c) for c in g.classes) == [1, 2, 3]

    def test_s4(self):
        g = symmetric(4)
        assert g.order == 24
        assert sorted(len(c) for c in g.classes) == [1, 3, 6, 6, 8]

    def test_d4(self):
        g = dihedral(4)
        assert g.order == 8
        assert len(g.classes) == 5

    def test_q8(self):
        g = quaternion()
        assert g.order == 8
        assert sorted(len(c) for c in g.classes) == [1, 1, 2, 2, 2]
        minus_one = next(x for x in range(8) if x != 0 and element_order(g, x) == 2)
        assert g.table[minus_one][minus_one] == 0

    def test_builtin_names(self):
        assert builtin_group("C6").order == 6
        assert builtin_group("D5").order == 10
        assert builtin_group("q8").order == 8
        with pytest.raises(ValueError):
            builtin_group("E8")

    def test_a_size_is_read_in_decimal_digits(self):
        # superscripts pass str.isdigit, but int() refuses them
        for name in ("C³", "d²", "C1²"):
            with pytest.raises(ValueError, match=f"^unknown group name: {name}$"):
                builtin_group(name)
        # an Arabic-Indic digit is decimal, and int() reads it
        assert builtin_group("D٣").table == dihedral(3).table

    @pytest.mark.parametrize("name", ["C0", "c00", "D0", "d1", "D01"])
    def test_a_size_below_its_family_minimum_is_an_unknown_name(self, name):
        with pytest.raises(ValueError, match=f"^unknown group name: {name}$"):
            builtin_group(name)

    @pytest.mark.parametrize("family", ["C", "c", "D"])
    def test_a_size_past_the_integer_digit_limit_is_an_unknown_name(self, family):
        # 5000 digits is more than `int` converts under the interpreter's
        # default limit of 4300, and far more than the cap allows
        name = family + "9" * 5000
        with pytest.raises(ValueError, match=f"^unknown group name: {name}$"):
            builtin_group(name)

    def test_an_undersized_constructor_call_keeps_its_own_error(self):
        with pytest.raises(ValueError, match="^n must be >= 1$"):
            cyclic(0)
        with pytest.raises(ValueError, match="^n must be >= 2$"):
            dihedral(1)

    def test_identity_is_element_zero(self):
        for g in (cyclic(7), dihedral(3), symmetric(4), quaternion()):
            assert all(g.table[0][x] == x == g.table[x][0] for x in range(g.order))
            assert g.classes[0] == (0,)


class TestValidation:
    def test_broken_associativity_names_a_triple(self):
        table = [[0, 1, 2], [1, 0, 0], [2, 0, 1]]
        with pytest.raises(GroupError, match=r"associativity fails at triple \("):
            FiniteGroup(table)

    def test_missing_identity(self):
        with pytest.raises(GroupError, match="identity"):
            FiniteGroup([[1, 0], [0, 1]])

    def test_order_cap(self):
        with pytest.raises(GroupError, match="cap"):
            cyclic(49)
        with pytest.raises(GroupError, match="cap"):
            dihedral(25)

    @pytest.mark.parametrize("name,order", [
        ("C1000", 1000), ("D500", 1000), ("C1000000000", 10**9), ("D500000000", 10**9),
        # above sys.maxsize, where len(range(n)) overflows
        ("C99999999999999999999", 10**20 - 1), ("D99999999999999999999", 2 * 10**20 - 2),
    ], ids=["C1000", "D500", "C1000000000", "D500000000", "C10^20-1", "D10^20-1"])
    def test_an_oversized_builtin_is_refused_before_its_table_is_built(self, name, order):
        # a 1000-by-1000 table alone is tens of MiB, and a list of 10^9
        # elements gigabytes, so neither may be built before the cap is
        # checked; the address-space cap makes a builder that lists them
        # fail here with a MemoryError instead of filling the host's memory
        with address_space_headroom(256 << 20):
            tracemalloc.start()
            try:
                with pytest.raises(GroupError, match=f"^order {order} exceeds the cap 48$"):
                    builtin_group(name)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 1 << 20

    def test_missing_inverse(self):
        # associative, with 0 a two-sided identity, but 1 * x is never 0
        with pytest.raises(GroupError, match="element 1 has no two-sided inverse"):
            load_group({"order": 2, "table": [[0, 1], [1, 1]]})

    def test_ragged_table(self):
        with pytest.raises(GroupError):
            FiniteGroup([[0, 1], [1]])

    def test_inverses(self):
        for g in (cyclic(9), dihedral(6), symmetric(4), quaternion()):
            for x in range(g.order):
                assert g.table[x][g.inverses[x]] == 0
                assert g.table[g.inverses[x]][x] == 0


def light_agrees_with_the_triples(table) -> bool:
    """Build a group on `table`: it must raise the associativity error
    exactly when some triple fails, naming a triple that fails.  Returns
    whether one fails."""
    want = associative_by_triples(table)
    try:
        FiniteGroup(table)
        message = ""
    except GroupError as exc:
        message = str(exc)
    named = re.fullmatch(r"associativity fails at triple \((\d+), (\d+), (\d+)\)", message)
    assert (named is not None) == (want is not None), (table, message)
    if named:
        a, b, c = map(int, named.groups())
        assert table[table[a][b]][c] != table[a][table[b][c]], (table, message)
    return want is not None


def perturbed(table, changes):
    """A copy of `table` with each (a, b, value) in `changes` written in."""
    rows = [list(row) for row in table]
    for a, b, value in changes:
        rows[a][b] = value
    return rows


class TestLightsTest:
    @pytest.mark.parametrize("name", ["C6", "S3", "D4", "Q8"])
    def test_every_one_entry_perturbation_agrees_with_the_triples(self, name):
        # every entry off the identity row and column, set to every other value
        table = builtin_group(name).table
        n = len(table)
        verdicts = [
            light_agrees_with_the_triples(perturbed(table, [(a, b, v)]))
            for a in range(1, n) for b in range(1, n) for v in range(n) if v != table[a][b]
        ]
        assert len(verdicts) == (n - 1) ** 3
        assert all(verdicts)  # no one-entry change of these tables stays associative

    def test_every_two_entry_perturbation_of_s3_agrees_with_the_triples(self):
        # some of these fail only at triples whose middle element is not 1,
        # the first generator Light's test takes, so every generator counts
        table = builtin_group("S3").table
        entries = [(a, b, v) for a in range(1, 6) for b in range(1, 6) for v in range(6)
                   if v != table[a][b]]
        hidden = 0
        for i, first in enumerate(entries):
            for second in entries[i + 1:]:
                if first[:2] != second[:2]:
                    rows = perturbed(table, [first, second])
                    if light_agrees_with_the_triples(rows) and all(
                        rows[rows[x][1]][y] == rows[x][rows[1][y]] for x in range(6) for y in range(6)
                    ):
                        hidden += 1
        assert hidden == 40

    @given(name=st.sampled_from(["S4", "C12"]), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_perturbations_agree_with_the_triples(self, name, data):
        table = builtin_group(name).table
        n = len(table)
        entry = st.tuples(st.integers(1, n - 1), st.integers(1, n - 1), st.integers(0, n - 1))
        light_agrees_with_the_triples(perturbed(table, data.draw(st.lists(entry, min_size=1, max_size=3))))


class TestLoadGroup:
    def test_from_nested_table(self):
        g = load_group({"order": 2, "table": [[0, 1], [1, 0]], "name": "C2"})
        assert g.order == 2 and g.name == "C2"

    def test_from_row_major_flat_table(self):
        g = load_group({"order": 2, "table": [0, 1, 1, 0]})
        assert g.order == 2

    def test_from_name(self):
        assert builtin_group("S3").order == 6

    def test_wrong_length(self):
        with pytest.raises(GroupError):
            load_group({"order": 3, "table": [0, 1, 1, 0]})

    def test_order_cap(self):
        c49 = [[(i + j) % 49 for j in range(49)] for i in range(49)]
        with pytest.raises(GroupError, match="order 49 exceeds the cap 48"):
            load_group({"order": 49, "table": c49})
        c48 = [[(i + j) % 48 for j in range(48)] for i in range(48)]
        assert load_group({"order": 48, "table": c48}).order == 48


class TestSubgroups:
    def test_generated_c3_in_s3(self):
        s3 = symmetric(3)
        h = generated_subgroup(s3, [three_cycle(s3)])
        assert h.order == 3
        assert h.elements[0] == 0

    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_generated_subgroup_matches_the_closure_oracle(self, name):
        group = suite_groups((name,))[name]
        rng = random.Random(name)
        for count in range(4):
            for _ in range(6):
                gens = [rng.randrange(group.order) for _ in range(count)]
                assert generated_subgroup(group, gens).elements == tuple(
                    closure_oracle(group, gens)
                ), gens

    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_classes_match_the_relabelled_group(self, name):
        group = suite_groups((name,))[name]
        generated = {
            generated_subgroup(group, (a, b)).elements
            for a in group.elements
            for b in group.elements
        }
        for elems in generated:
            h = Subgroup(group, elems)
            want = relabelled_classes(group, elems)
            assert h.classes == want, elems
            assert h.class_index == {g: i for i, cls in enumerate(want) for g in cls}

    def test_a_subgroup_of_a_subgroup_holds_only_its_elements(self):
        s3 = symmetric(3)
        c3 = generated_subgroup(s3, [three_cycle(s3)])
        assert Subgroup(c3, c3.elements).elements == c3.elements

    def test_trivial_and_full(self):
        s3 = symmetric(3)
        assert Subgroup(s3, [0]).order == 1
        assert Subgroup(s3, range(s3.order)).order == 6

    def test_conjugate_subgroup(self):
        s3 = symmetric(3)
        c3 = generated_subgroup(s3, [three_cycle(s3)])
        for g in range(6):
            assert {s3.conjugate(g, x) for x in c3.elements} == set(c3.elements)  # normal
        flips = [x for x in range(6) if element_order(s3, x) == 2]
        for t in flips:  # the three C2 = <t> are conjugate to one another
            assert {s3.conjugate(g, t) for g in range(6)} == set(flips)

    def test_double_cosets_s3(self):
        s3 = symmetric(3)
        c3 = generated_subgroup(s3, [three_cycle(s3)])
        reps = double_cosets(c3, c3)
        assert len(reps) == 2
        assert reps[0] == 0

    def test_double_cosets_full_group(self):
        s3 = symmetric(3)
        whole, trivial = Subgroup(s3, range(6)), Subgroup(s3, [0])
        assert double_cosets(whole, trivial) == [0]
        assert double_cosets(whole, whole) == [0]
