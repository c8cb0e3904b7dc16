import tracemalloc
from dataclasses import replace
from fractions import Fraction
from math import gcd

import pytest

from weightdescent import descent
from weightdescent.descent import (
    BASE_WEIGHTS,
    DescentError,
    DescentGraph,
    InadmissibleM,
    ReductionStep,
    audit,
    build_graph,
    chain,
    choose_t,
    published_row,
    reduction_step,
    reference_table,
    select_prime,
    verify_termination,
)
from weightdescent.primes import sieve


class TestChooseT:
    def test_examples(self):
        assert choose_t(5) == 3
        assert choose_t(14) == 9
        assert choose_t(8) == 5
        assert choose_t(9) == 5
        assert choose_t(15) == 8
        assert choose_t(18) == 11

    def test_inadmissible(self):
        for m in (1, 2, 3, 4, 6):
            with pytest.raises(InadmissibleM):
                choose_t(m)

    def test_every_m_beyond_6_is_admissible(self):
        for m in range(7, 501):
            t = choose_t(m)
            assert gcd(t, m) == 1
            assert 1 < t < m - 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            choose_t(0)


class TestSelectPrime:
    def test_examples(self, table_2k):
        assert select_prime(10, table_2k) == (11, 0)
        assert select_prime(20, table_2k) == (23, 0)
        assert select_prime(32, table_2k) == (43, 2)

    def test_k32_rejections_are_the_published_ones(self, table_2k):
        # 37 gives m = 6, 41 gives gcd(40, 30) = 10 hence m = 4
        assert (37 - 1) // gcd(37 - 1, 30) == 6
        assert (41 - 1) // gcd(41 - 1, 30) == 4

    def test_precondition(self, table_2k):
        for k in (12, 14, 8, 9, -2):
            with pytest.raises(ValueError):
                select_prime(k, table_2k)


class TestReductionStep:
    @pytest.mark.parametrize(
        "k,expected",
        [
            (16, (17, 2, 8, 5, 10, 12, 8)),
            (26, (29, 4, 7, 4, 16, 18, 14)),
            (34, (37, 4, 9, 5, 20, 22, 18)),
            (36, (37, 2, 18, 11, 22, 24, 16)),
        ],
    )
    def test_examples(self, table_2k, k, expected):
        s = reduction_step(k, table_2k)
        assert (s.p, s.d, s.m, s.t, s.dt, s.k_hi, s.k_lo) == expected

    def test_invariants_over_a_range(self, table_2k):
        for k in [10] + list(range(16, 1500, 2)):
            s = reduction_step(k, table_2k)
            assert s.d == gcd(s.p - 1, s.k - 2)
            assert s.m * s.d == s.p - 1
            assert s.dt == s.d * s.t
            assert gcd(s.t, s.m) == 1 and 1 < s.t < s.m - 1
            assert s.k_hi % 2 == 0 and s.k_lo % 2 == 0
            assert s.k_hi < k and s.k_lo < k
            # the twist must change the exponent and avoid its conjugate
            assert s.dt % (s.p - 1) != (s.k - 2) % (s.p - 1)
            assert s.dt % (s.p - 1) != (2 - s.k) % (s.p - 1)

    def test_to_dict_schema(self, table_2k):
        d = reduction_step(16, table_2k).to_dict()
        assert set(d) == {
            "k", "p", "d", "m", "t", "dt", "k_hi", "k_lo",
            "prime_skips", "matches_paper",
        }
        assert d["matches_paper"] is None


class TestReferenceTable:
    def test_twelve_rows_with_single_divergence(self, table_2k):
        rows = reference_table(table_2k)
        assert [r.k for r in rows] == [10, 16, 18, 20, 22, 24, 26, 28, 30, 32, 34, 36]
        assert [r.k for r in rows if not r.matches_paper] == [36]

    def test_row_36_diverges_exactly_as_computed(self, table_2k):
        row = reference_table(table_2k)[-1]
        assert (row.k_hi, row.k_lo) == (24, 16)
        assert published_row(36)[-2:] == (22, 16)

    def test_row_30_matches(self, table_2k):
        row = next(r for r in reference_table(table_2k) if r.k == 30)
        assert (row.d, row.m, row.t, row.dt) == (2, 15, 8, 16)
        assert (row.k_hi, row.k_lo) == (18, 16)
        assert row.matches_paper


class TestGraph:
    def test_small_graph_edges(self, table_2k):
        g = build_graph(20, table_2k)
        assert (g.steps[10].k_hi, g.steps[10].k_lo) == (8, 6)
        assert (g.steps[16].k_hi, g.steps[16].k_lo) == (12, 8)
        assert 12 not in g.steps and 14 not in g.steps
        assert set(g.nodes) == set(range(2, 21, 2))

    def test_max_k_14_reduces_only_weight_10(self, table_2k):
        g = build_graph(14, table_2k)
        assert set(g.steps) == {10}

    def test_precondition(self, table_2k):
        with pytest.raises(ValueError):
            build_graph(12, table_2k)
        with pytest.raises(ValueError):
            build_graph(35, table_2k)

    def test_termination_to_36(self, table_2k):
        rep = verify_termination(build_graph(36, table_2k))
        assert rep.terminates
        assert rep.weights_with_skips == (32,)
        assert rep.skip_histogram == {0: 11, 2: 1}
        assert rep.longest_chain_path[0] == 32
        assert rep.longest_chain_path[-1] in BASE_WEIGHTS

    def test_child_outside_the_graph_breaks_termination(self):
        # k_lo = -2 fails validate(); built by hand, it must not be read as
        # the depth of some other weight
        bad = ReductionStep(k=10, p=11, d=2, m=5, t=3, dt=6, k_hi=8, k_lo=-2, prime_skips=0)
        with pytest.raises(DescentError):
            bad.validate()
        graph = DescentGraph(max_k=14, steps={10: bad})
        rep = verify_termination(graph)
        assert rep.terminates is False
        assert rep.node_count == 7 and rep.edge_count == 1

    def test_missing_step_of_a_child_breaks_termination(self, table_2k):
        steps = dict(build_graph(20, table_2k).steps)
        assert 10 in (steps[18].k_hi, steps[18].k_lo)
        del steps[10]
        rep = verify_termination(DescentGraph(max_k=20, steps=steps))
        assert rep.terminates is False
        assert rep.edge_count == len(steps)

    def test_report_does_not_depend_on_dict_order(self, table_2k):
        g = build_graph(1000, table_2k)
        shuffled = dict(reversed(list(g.steps.items())))
        assert list(shuffled) != list(g.steps)
        rep = verify_termination(DescentGraph(max_k=1000, steps=shuffled))
        assert rep == verify_termination(g)
        assert rep.terminates


class TestChain:
    def test_base_weight_gives_empty_path(self, table_2k):
        assert chain(12, "hi-branch", table_2k) == ([], [12])
        assert chain(2, "longest", table_2k) == ([], [2])

    def test_k10_hi(self, table_2k):
        path, walked = chain(10, "hi-branch", table_2k)
        assert len(path) == 1
        assert path[0].k_hi == 8
        assert walked == [10, 8]

    def test_k36_hi(self, table_2k):
        path, walked = chain(36, "hi-branch", table_2k)
        assert [s.k for s in path] == [36, 24, 20]
        assert path[-1].k_hi == 14
        assert walked == [36, 24, 20, 14]

    def test_policies_differ(self, table_2k):
        lo, walked = chain(36, "lo-branch", table_2k)
        assert [s.k for s in lo] == [36, 16]
        assert lo[-1].k_lo == 8
        assert walked == [36, 16, 8]
        longest, _ = chain(36, "longest", table_2k)
        assert len(longest) >= 3

    def test_walk_follows_the_steps(self, table_2k):
        for policy in ("hi-branch", "lo-branch", "longest"):
            for k in (30, 36, 100, 1000):
                path, walked = chain(k, policy, table_2k)
                assert walked[:-1] == [s.k for s in path]
                assert all(w in (s.k_hi, s.k_lo) for s, w in zip(path, walked[1:]))
                assert walked[-1] in BASE_WEIGHTS

    def test_longest_is_maximal_among_policies(self, table_2k):
        for k in (30, 36, 100):
            n = len(chain(k, "longest", table_2k)[0])
            assert n >= len(chain(k, "hi-branch", table_2k)[0])
            assert n >= len(chain(k, "lo-branch", table_2k)[0])

    def test_bad_policy(self, table_2k):
        with pytest.raises(ValueError):
            chain(36, "sideways", table_2k)


class TestAudit:
    @pytest.mark.parametrize("n", [14, 16, 36, 38, 1000, 10000])
    def test_pass_agrees_with_the_stored_graph(self, n):
        assert audit(n).termination == verify_termination(build_graph(n))

    def test_holds_one_step_at_a_time(self):
        table = sieve(20_000 + 512)
        tracemalloc.start()
        try:
            report = audit(20_000, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 1_000_000

    def test_checks_run_on_every_weight_above_36(self, monkeypatch, table_2k):
        real = descent.reduction_step
        monkeypatch.setattr(descent, "reduction_step",
                            lambda k, table: replace(real(k, table), m=6, prime_skips=1))
        monkeypatch.setattr(descent, "RATIO_BOUND", Fraction(10**6))
        report = audit(100, table_2k)
        above = tuple(range(38, 101, 2))
        assert report.skip_failures == above
        assert report.m_bound_failures == above
        assert [f[:2] for f in report.ratio_failures] == [
            (k, side) for k in above for side in ("hi", "lo")
        ]
        assert report.termination.terminates and not report.passed

    def test_audit_to_10k(self):
        report = audit(10000)
        assert report.passed
        assert report.termination.terminates
        assert report.termination.weights_with_skips == (32,)
        assert report.ratio_failures == ()
        assert report.m_bound_failures == ()
        assert report.skip_failures == ()

    def test_audit_dict_roundtrippable(self):
        import json

        d = audit(1000).to_dict()
        assert json.loads(json.dumps(d)) == d
