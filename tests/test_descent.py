import json
import tracemalloc
from dataclasses import asdict, astuple, replace
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weightdescent import descent, primes
from weightdescent.cli import canonical_json
from weightdescent.descent import (
    BASE_WEIGHTS,
    DescentGraph,
    ReductionStep,
    TerminationReport,
    audit,
    build_graph,
    chain,
    choose_t,
    reduction_step,
    reference_table,
    verify_termination,
)
from weightdescent.primes import next_prime, sieve

from oracles import audit_oracle, recipe_oracle, trial_division_is_prime


class TestChooseT:
    def test_examples(self):
        assert choose_t(5) == 3
        assert choose_t(14) == 9
        assert choose_t(8) == 5
        assert choose_t(9) == 5
        assert choose_t(15) == 8
        assert choose_t(18) == 11

    def test_inadmissible(self):
        for m in range(1, 501):
            if m in (1, 2, 3, 4, 6):
                assert choose_t(m) is None
            else:
                assert isinstance(choose_t(m), int)

    def test_every_m_beyond_6_is_admissible(self):
        for m in range(7, 501):
            t = choose_t(m)
            assert gcd(t, m) == 1
            assert 1 < t < m - 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            choose_t(0)


class TestSelectPrime:
    """The prime a step takes: the smallest prime above k whose m admits a
    twist exponent, with the smaller primes it rejected counted as skips."""

    def test_examples(self):
        for k, p, skips in ((10, 11, 0), (20, 23, 0), (32, 43, 2)):
            s = reduction_step(k)
            assert (s.p, s.prime_skips) == (p, skips)

    def test_k32_rejections_are_the_published_ones(self):
        # 37 gives m = 6, 41 gives gcd(40, 30) = 10 hence m = 4
        assert (37 - 1) // gcd(37 - 1, 30) == 6
        assert (41 - 1) // gcd(41 - 1, 30) == 4

    def test_precondition(self):
        for k in sorted(BASE_WEIGHTS):
            with pytest.raises(ValueError, match="base case"):
                reduction_step(k)
        for k in (9, -2):
            with pytest.raises(ValueError):
                reduction_step(k)
        assert reduction_step(10).k == 10
        assert reduction_step(16).k == 16


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

    # beyond the audit's range and the table, so through sieved windows; d runs
    # from 2 to 64
    FAR = [10**6, 1_000_042, 100_000_130, 4_294_967_296, 10**10, 10_000_000_154,
           31_622_776_602, 123_456_789_012, 999_999_999_998, 10**12, 1_000_000_000_214]

    def test_invariants_over_a_range(self, table_2k):
        for k in [10] + list(range(16, 1500, 2)) + self.FAR:
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

    def test_fields_are_the_kernel_tuple_in_order(self):
        # every field but matches_paper, in declaration order, is the kernel's
        # step (k, p, skips, d, m, t, dt, k_hi, k_lo)
        for k in range(10, 2001, 2):
            if k not in BASE_WEIGHTS:
                *fields, matches = astuple(reduction_step(k))
                assert (tuple(fields), matches) == (descent._kernel_step(k), None)

    def test_to_dict_schema(self, table_2k):
        d = json.loads(canonical_json(reduction_step(16, table_2k)))
        assert set(d) == {
            "k", "p", "d", "m", "t", "dt", "k_hi", "k_lo",
            "prime_skips", "matches_paper",
        }
        assert d["matches_paper"] is None


class TestRecipeOracle:
    NON_BASE = [10] + list(range(16, 20_001, 2))

    @staticmethod
    def fields(step):
        return (step.p, step.prime_skips, step.d, step.m, step.t, step.dt, step.k_hi, step.k_lo)

    def test_reduction_step_matches_the_oracle_to_20000(self):
        table = sieve(20_000 + 512)
        for k in self.NON_BASE:
            expected = recipe_oracle(k)
            assert self.fields(reduction_step(k)) == expected, k
            assert self.fields(reduction_step(k, table)) == expected, k

    def test_swept_steps_match_the_oracle_to_20000(self):
        # the audit's route: the kernel over each run of reducible weights,
        # a prime gap at a time from one stream
        runs = list(descent._reducible_runs(20_000))
        assert runs == [(10, 10), (16, 20_000)]
        swept = []
        for lo, hi in runs:
            descent._recipes(lo, hi, next_prime(lo), swept)
        assert [s[0] for s in swept] == self.NON_BASE
        for k, *fields in swept:
            assert tuple(fields) == recipe_oracle(k), k

    @pytest.mark.parametrize("lo,hi", [(16, 16), (22, 22), (24, 28), (30, 36), (32, 32),
                                       (38, 38), (90, 98), (1000, 1200), (31398, 31470)])
    def test_any_window_of_weights_matches_the_oracle(self, lo, hi):
        # windows that start and end inside a gap, on either side of a prime,
        # at the skipping weight 32, and across the gap of 72 after 31397
        swept = []
        descent._recipes(lo, hi, next_prime(lo), swept)
        assert [s[0] for s in swept] == list(range(lo, hi + 1, 2))
        assert [s[1:] for s in swept] == [recipe_oracle(k) for k in range(lo, hi + 1, 2)]

    @pytest.mark.parametrize("segment_size", [1, 2, 7])
    @pytest.mark.parametrize("lo,hi", [(16, 17), (16, 18), (16, 23), (16, 24), (38, 41), (38, 42),
                                       (1000, 1009), (1000, 1010), (31396, 31398),
                                       (31398, 31469), (31398, 31470)])
    def test_the_closed_stream_reaches_the_last_gap(self, monkeypatch, lo, hi, segment_size):
        # hi prime, so the last gap's top is hi itself, or one above a prime,
        # so the kernel asks the stream, bounded at 2 * hi, for the prime
        # after a top just below hi; over tiny windows, so that the last one
        # asked for ends at or near that prime
        monkeypatch.setattr(primes, "SEGMENT_SIZE", segment_size)
        swept = []
        descent._recipes(lo, hi, next_prime(lo), swept)
        weights = range(lo, hi + 1, 2)
        assert [s[0] for s in swept] == list(weights)
        assert [s[1:] for s in swept] == [recipe_oracle(k) for k in weights]


class TestClassLemma:
    """The fact the audit's kernel shares steps by: in a prime gap q < p, a
    weight that takes p itself has a step that depends on k only through
    d = gcd(p-1, k-2).  Checked on the oracle alone."""

    @given(k=st.integers(8, 500_000).map(lambda n: 2 * n), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_weights_of_a_gap_with_one_d_have_one_step(self, k, data):
        step = recipe_oracle(k)
        p, skips, d = step[:3]
        assume(skips == 0)
        q = k - 1
        while not trial_division_is_prime(q):
            q -= 1
        mates = [w for w in range(q + 1, p, 2) if w != k and gcd(p - 1, w - 2) == d]
        assume(mates)
        # equal tuples: the mate takes p with no skip, and every other field agrees
        assert recipe_oracle(data.draw(st.sampled_from(mates))) == step


class TestReferenceTable:
    def test_twelve_rows_with_single_divergence(self):
        rows = reference_table()
        assert [r.k for r in rows] == [10, 16, 18, 20, 22, 24, 26, 28, 30, 32, 34, 36]
        assert [r.k for r in rows if not r.matches_paper] == [36]

    def test_row_36_diverges_exactly_as_computed(self):
        row = reference_table()[-1]
        assert (row.k_hi, row.k_lo) == (24, 16)
        assert descent._PUBLISHED_ROWS[36][-2:] == (22, 16)

    def test_row_30_matches(self):
        row = next(r for r in reference_table() if r.k == 30)
        assert (row.d, row.m, row.t, row.dt) == (2, 15, 8, 16)
        assert (row.k_hi, row.k_lo) == (18, 16)
        assert row.matches_paper

    def test_each_row_is_the_reduction_step_at_its_weight(self):
        # the rows come from one kernel pass per run of weights, the steps
        # from one kernel call per weight
        for row in reference_table():
            assert replace(row, matches_paper=None) == reduction_step(row.k)


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

    @pytest.mark.parametrize(
        "k_lo", [-2, 7, 10, 12], ids=["negative", "odd", "equal-to-k", "base-weight-above-k"]
    )
    def test_child_outside_the_graph_breaks_termination(self, k_lo):
        # no recipe gives these k_lo: from the same k and p the kernel gives
        # k_lo = 6.  Built by hand, the step must not be read as the depth of
        # some other weight: as an index, -2 reads weight 14's byte, 7 weight
        # 6's and 12 the base weight 12's, all settled
        bad = ReductionStep(k=10, p=11, d=2, m=5, t=3, dt=6, k_hi=8, k_lo=k_lo, prime_skips=0)
        kernel = []
        descent._recipes(10, 10, 11, kernel)
        assert kernel == [(10, 11, 0, 2, 5, 3, 6, 8, 6)]
        graph = DescentGraph(max_k=14, steps={10: bad})
        rep = verify_termination(graph)
        assert rep.terminates is False
        assert rep.node_count == 7 and rep.edge_count == 1

    def test_skips_of_a_malformed_step_still_count(self, table_2k):
        # the step at 16 is left unsettled, and its skip is still counted
        steps = dict(build_graph(20, table_2k).steps)
        steps[16] = replace(steps[16], k_lo=-2, prime_skips=1)
        rep = verify_termination(DescentGraph(max_k=20, steps=steps))
        assert rep == TerminationReport(
            terminates=False,
            longest_chain_length=2,
            longest_chain_path=(18, 10, 8),
            weights_with_skips=(16,),
            skip_histogram={0: 3, 1: 1},
            node_count=10,
            edge_count=4,
        )

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
    def test_base_weight_gives_empty_path(self):
        assert chain(12, "hi-branch") == ([], [12])
        assert chain(2, "longest") == ([], [2])

    def test_k10_hi(self):
        path, walked = chain(10, "hi-branch")
        assert len(path) == 1
        assert path[0].k_hi == 8
        assert walked == [10, 8]

    def test_k36_hi(self):
        path, walked = chain(36, "hi-branch")
        assert [s.k for s in path] == [36, 24, 20]
        assert path[-1].k_hi == 14
        assert walked == [36, 24, 20, 14]

    def test_policies_differ(self):
        lo, walked = chain(36, "lo-branch")
        assert [s.k for s in lo] == [36, 16]
        assert lo[-1].k_lo == 8
        assert walked == [36, 16, 8]
        longest, _ = chain(36, "longest")
        assert len(longest) >= 3

    def test_walk_follows_the_steps(self):
        for policy in ("hi-branch", "lo-branch", "longest"):
            for k in (30, 36, 100, 1000):
                path, walked = chain(k, policy)
                assert walked[:-1] == [s.k for s in path]
                assert all(w in (s.k_hi, s.k_lo) for s, w in zip(path, walked[1:]))
                assert walked[-1] in BASE_WEIGHTS

    def test_longest_is_maximal_among_policies(self):
        for k in (30, 36, 100):
            n = len(chain(k, "longest")[0])
            assert n >= len(chain(k, "hi-branch")[0])
            assert n >= len(chain(k, "lo-branch")[0])

    @pytest.mark.parametrize("policy", ["hi-branch", "lo-branch", "longest"])
    def test_reduces_each_weight_once(self, monkeypatch, policy):
        # chain runs the kernel once per weight, through _kernel_step
        reduced = []
        real = descent._kernel_step
        monkeypatch.setattr(descent, "_kernel_step", lambda k: reduced.append(k) or real(k))
        path, walked = chain(999998, policy)
        monkeypatch.undo()
        assert path == [reduction_step(k) for k in walked[:-1]]
        if policy != "longest":
            assert reduced == walked[:-1]
            return
        # the depths read every weight below k once
        below, todo = set(), [999998]
        while todo:
            w = todo.pop()
            if w not in BASE_WEIGHTS and w not in below:
                below.add(w)
                step = reduction_step(w)
                todo += [step.k_hi, step.k_lo]
        assert sorted(reduced) == sorted(below)

    def test_bad_policy(self):
        with pytest.raises(ValueError):
            chain(36, "sideways")

    @pytest.mark.parametrize("k", [15, 0, -4])
    def test_a_weight_outside_the_recipe_fails_as_its_step_does(self, k):
        with pytest.raises(ValueError) as step_error:
            reduction_step(k)
        for policy in ("hi-branch", "lo-branch", "longest"):
            with pytest.raises(ValueError) as chain_error:
                chain(k, policy)
            assert str(chain_error.value) == str(step_error.value)


class TestAudit:
    @pytest.mark.parametrize("n", [14, 16, 36, 38, 1000, 10000])
    def test_pass_agrees_with_the_stored_graph(self, n):
        assert audit(n).termination == verify_termination(build_graph(n))

    def test_holds_one_step_at_a_time(self):
        # the prime stream is measured too: no table is built outside
        tracemalloc.start()
        try:
            report = audit(20_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 1_000_000

    def test_forms_steps_only_along_the_longest_chain(self, monkeypatch):
        formed = []
        real = descent.reduction_step
        monkeypatch.setattr(descent, "reduction_step", lambda k: formed.append(k) or real(k))
        term = audit(10000).termination
        assert formed == list(term.longest_chain_path[:-1])

    def test_checks_run_on_every_weight_above_36(self, monkeypatch):
        # every weight refuses the first prime it tries and then takes its
        # real step, one skip more than the recipe's own, under a bound no
        # ratio passes; the children are the real ones, so the graph still
        # terminates.  A skip at every weight shows that no failing class
        # was shared: the recipe ran at each weight
        real_t, real_next = descent.choose_t, descent.next_prime
        state = {"refuse": True, "retake": False}

        def rule(m):
            if state["refuse"]:
                state.update(refuse=False, retake=True)
                return None
            t = real_t(m)
            state["refuse"] = t is not None
            return t

        def retaking_next_prime(n, table=None):
            # the prime the rule refused is tried again, once
            if state["retake"]:
                state["retake"] = False
                return n
            return real_next(n, table)

        monkeypatch.setattr(descent, "choose_t", rule)
        monkeypatch.setattr(descent, "next_prime", retaking_next_prime)
        monkeypatch.setattr(descent, "RATIO_BOUND", Fraction(10**6))
        report = audit(100)
        weights = (10, *range(16, 101, 2))
        above = tuple(range(38, 101, 2))
        assert report.termination.weights_with_skips == weights
        assert report.termination.skip_histogram == {1: len(weights) - 1, 3: 1}
        assert report.skip_failures == above
        assert [f[:2] for f in report.ratio_failures] == [
            (k, side) for k in above for side in ("hi", "lo")
        ]
        assert report.unexpected_skippers == tuple(k for k in weights if k != 32)
        assert report.termination.terminates and not report.passed
        # the real m exceeds 6 above 36; test_an_m_of_at_most_6_is_listed
        # reaches the m-bound check
        assert report.m_bound_failures == ()

    def test_an_m_of_at_most_6_is_listed(self, monkeypatch):
        # no step the kernel accepts at k > 36 has m <= 6 with its first
        # usable prime.  Refusing every m > 6 at k = 50 skips 53 and 59 and
        # takes 61: d = 12, m = 5, t = 3, children 38 and 26, both settled
        real_t = descent.choose_t
        monkeypatch.setattr(descent, "choose_t", lambda m: real_t(m) if m <= 6 else None)
        level = bytearray([1]) * 26
        found = []
        descent._recipes(50, 50, 53, found, level)
        assert found == [(50, "skip", 2), (50, "m", 5)]
        assert level[25] == 2

    def test_a_weight_that_skips_takes_no_shared_byte(self, monkeypatch):
        # in the gap 47 < 53, 48 is clean with d = 2.  Refusing m = 13 makes
        # 50 (d = 4) skip to 59, where d = gcd(58, 48) = 2 again: the byte
        # shared at 53 must not be read at 59, and the skip is listed
        real_t = descent.choose_t
        monkeypatch.setattr(descent, "choose_t", lambda m: None if m == 13 else real_t(m))
        level = bytearray([1]) * 24 + bytearray(3)
        found = []
        descent._recipes(48, 52, 53, found, level)
        assert found == [(50, "skip", 1)]
        assert level[24:] == bytearray([2, 2, 2])

    def test_an_unsettled_child_leaves_the_weight_unsettled(self):
        # weight 8 unsettled: 10 (children 8 and 6) stays unsettled too,
        # and lists nothing, as k <= 36 is not checked
        level = descent._base_level(14)
        level[4] = 0
        found = []
        descent._recipes(10, 10, 11, found, level)
        assert found == [] and level[5] == 0

    @pytest.mark.parametrize("bound,failures", [(Fraction(2), 3547), (Fraction(19, 10), 59)])
    def test_failing_weights_are_reported_one_by_one(self, monkeypatch, bound, failures):
        # under these bounds whole (gap, d) classes of several weights fail;
        # each weight must still be listed, in ascending k
        expected = []
        for k in range(38, 5001, 2):
            p, _, _, _, _, _, k_hi, k_lo = recipe_oracle(k)
            expected += [(k, side, p, w) for side, w in (("hi", k_hi), ("lo", k_lo))
                         if Fraction(p, w) <= bound]
        monkeypatch.setattr(descent, "RATIO_BOUND", bound)
        report = audit(5000)
        assert len(expected) == failures
        assert report.ratio_failures == tuple(expected)

    @pytest.mark.parametrize("bound", [Fraction(143, 125), Fraction(2), Fraction(19, 10),
                                       Fraction(3, 2)])
    def test_every_field_matches_the_oracle(self, monkeypatch, bound):
        # the oracle runs one step per weight with no class sharing, so it
        # guards the kernel's inlined checks and its shared bytes
        monkeypatch.setattr(descent, "RATIO_BOUND", bound)
        for n in [*range(14, 401, 2), 5000]:
            assert asdict(audit(n)) == audit_oracle(n, bound), n

    def test_audit_to_10k(self):
        report = audit(10000)
        assert report.passed
        assert report.termination.terminates
        assert report.termination.weights_with_skips == (32,)
        assert report.ratio_failures == ()
        assert report.m_bound_failures == ()
        assert report.skip_failures == ()

    def test_audit_dict_roundtrippable(self):
        d = json.loads(canonical_json(audit(1000)))
        assert json.loads(json.dumps(d)) == d
