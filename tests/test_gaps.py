import json
from fractions import Fraction
from itertools import pairwise
from math import gcd

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weightdescent import gaps
from weightdescent.cli import canonical_json, main
from weightdescent.descent import choose_t
from weightdescent.gaps import (
    X0,
    chebyshev_threshold,
    m_bound_check,
    star_inequality_check,
    verify_ratio,
    verify_shifted_ratio,
)
from weightdescent.numeric import M_BOUND_RATIO, RATIO_BOUND, SHIFTED_RATIO_BOUND
from weightdescent.primes import PrimeTable, iter_primes, next_prime, sieve

from oracles import (
    gap_string,
    m_bound_oracle,
    max_ratio_pair_scan,
    reference_scan,
    star_grid_oracle,
    trial_division_next_prime,
)

TABLE_LIMIT = 2 * 10**5


def table_of(seq) -> PrimeTable:
    """A table of an increasing sequence, with its gap string."""
    return PrimeTable(seq[-1] if seq else 1, tuple(seq), gap_string(seq))


@st.composite
def scan_inputs(draw):
    """(pairs, bound, shift): the adjacent pairs of an increasing sequence
    from p0 >= 2 with gaps 1..200, and a bound above, at or below 1, or on
    one of the pairs, the widest among them.  Half the sequences open with
    two pairs of equal ratio 1 + g/x, (x, x+g) and (2x, 2x+2g) shifted,
    which no other pair reaches: the pair between them has the lower ratio
    2x/(x+g) as 2x^2 < (x+g)^2, and a later pair has a gap of at most 2g at
    p - shift >= 2x+2g, so a ratio of at most 1 + g/(x+g)."""
    shift = draw(st.sampled_from((0, 1)))
    if draw(st.booleans()):
        x = draw(st.integers(3, 100))
        g = draw(st.integers(x // 2 + 1, x - 1))
        seq, cap = [shift + n for n in (x, x + g, 2 * x, 2 * x + 2 * g)], 2 * g
    else:
        seq, cap = [draw(st.integers(2, 10**4))], 200
    for step in draw(st.lists(st.integers(1, cap), max_size=40)):
        seq.append(seq[-1] + step)
    pairs = list(pairwise(seq))
    kind = draw(st.sampled_from(("above", "one", "below", "on a pair", "on the widest pair")))
    if kind == "above" or (not pairs and kind.startswith("on")):
        den = draw(st.integers(1, 1000))
        bound = Fraction(draw(st.integers(den + 1, 3 * den)), den)
    elif kind == "one":
        bound = Fraction(1)
    elif kind == "below":
        num = draw(st.integers(1, 1000))
        bound = Fraction(num, draw(st.integers(num + 1, 3 * num)))
    else:
        widest = max(q - p for p, q in pairs)
        on = draw(st.sampled_from(pairs)) if kind == "on a pair" else next(
            (p, q) for p, q in pairs if q - p == widest)
        bound = Fraction(on[1] - shift, on[0] - shift)
    return pairs, bound, shift


class TestRatioScans:
    @given(scan=scan_inputs())
    @example(scan=([(2, 3), (3, 4), (4, 6)], Fraction(3, 2), 0))
    @example(scan=([(3, 4), (4, 5), (5, 7)], Fraction(3, 2), 1))
    @example(scan=([], Fraction(143, 125), 0))
    @example(scan=([(2, 3), (3, 5), (5, 305), (305, 307), (307, 1307)], Fraction(143, 125), 0))
    @settings(max_examples=400, deadline=None)
    def test_the_record_scan_agrees_with_the_per_pair_scan(self, scan):
        # violations, the first pair of maximum ratio and the count, against
        # the per-pair loop, over a table of the pairs' sequence; a pair on
        # the bound violates it, and of equal ratios the first is the max
        pairs, bound, shift = scan
        table = table_of([p for p, _ in pairs[:1]] + [q for _, q in pairs])
        report = gaps._scan(table, 0, table.limit, bound, shift)
        got = (report.violations, report.max_ratio_pair, report.pairs_checked)
        assert got == reference_scan(pairs, bound, shift)

    @pytest.mark.parametrize("shifted", [False, True])
    @given(
        low=st.integers(-3, TABLE_LIMIT),
        width=st.one_of(st.integers(-3, 60), st.integers(0, TABLE_LIMIT)),
        bound=st.sampled_from((RATIO_BOUND, SHIFTED_RATIO_BOUND, Fraction(1), Fraction(1, 2),
                               Fraction(3, 2), Fraction(1001, 1000))),
    )
    @example(low=20, width=4, bound=RATIO_BOUND)  # (23, 29) lies past the end
    @example(low=20, width=9, bound=RATIO_BOUND)  # (23, 29) is the last pair
    @example(low=29, width=2, bound=RATIO_BOUND)  # (23, 29) lies before the start
    @example(low=-3, width=2, bound=RATIO_BOUND)
    @example(low=0, width=TABLE_LIMIT, bound=Fraction(3, 2))
    @settings(max_examples=150, deadline=None)
    def test_a_scan_of_the_table_agrees_with_trial_division(
        self, shifted, low, width, bound, trial_primes_200k
    ):
        # any range of sieve(2 * 10^5), ranges below 2 and without a pair
        # included, against the per-pair loop over the trial-division primes
        high = min(low + width, TABLE_LIMIT)
        shift = int(shifted)
        verify = verify_shifted_ratio if shifted else verify_ratio
        report = verify(sieve(TABLE_LIMIT), low, high, bound)
        pairs = [(p, q) for p, q in pairwise(trial_primes_200k) if low < q <= high]
        got = (report.violations, report.max_ratio_pair, report.pairs_checked)
        assert got == reference_scan(pairs, bound, shift)

    def test_the_search_pattern_matches_the_wider_gaps_only(self):
        # every width up to 259, the regex metacharacters among them, and
        # the last two code points of the two-byte and the whole range
        for g in [*range(260), 0xFFFF, 0x10FFFE]:
            near = range(max(g - 300, 0), min(g + 300, 0x10FFFF) + 1)
            pattern = gaps._wider_than(g)
            assert [c for c in near if pattern.fullmatch(chr(c))] == [c for c in near if c > g], g

    @pytest.mark.parametrize("low, high", [(37, X0), (2, TABLE_LIMIT), (1000, 1500), (31400, 31500)])
    def test_the_scan_compares_ratios_at_the_records_only(
        self, monkeypatch, low, high, trial_primes_200k
    ):
        # the scan searches once for a gap wider than 0 and then once past
        # each record for one wider than it, and compares a ratio after each
        # search that finds one: the searched widths are 0 and the record
        # gaps of the range in order, and the comparisons are as many as the
        # records
        widths = []

        def spy(g):
            widths.append(g)
            return real(g)

        real = gaps._wider_than
        monkeypatch.setattr(gaps, "_wider_than", spy)
        verify_ratio(sieve(TABLE_LIMIT), low, high)
        records = [0]
        for p, q in pairwise(trial_primes_200k):
            if low < q <= high and q - p > records[-1]:
                records.append(q - p)
        assert widths == records

    def test_full_range_passes(self, table_100k):
        report = verify_ratio(table_100k, 37, X0)
        assert report.passed
        assert report.violations == ()
        assert report.pairs_checked == 9592 - 12  # primes in (37, 100000]

    def test_max_ratio_pair_matches_exhaustive_oracle(self, table_100k, trial_primes_100k):
        report = verify_ratio(table_100k, 37, X0)
        oracle = max_ratio_pair_scan(trial_primes_100k, 37, X0)
        assert report.max_ratio_pair == oracle == (47, 53)

    def test_violation_example(self, table_100k):
        report = verify_ratio(table_100k, 20, 32)
        assert not report.passed
        assert (23, 29) in report.violations
        assert 29 * 125 == 3625 and 23 * 143 == 3289  # 29/23 > 143/125
        assert report.max_ratio_pair == (23, 29)

    def test_shifted_full_range_passes(self, table_100k):
        report = verify_shifted_ratio(table_100k, 37, X0)
        assert report.passed

    def test_shifted_113_127_not_a_violation(self):
        # (127-1)/(113-1) = 9/8 < 23/20
        assert 126 * 20 < 112 * 23

    def test_vacuous_range(self, table_100k):
        report = verify_ratio(table_100k, 37, 37)
        assert report.passed
        assert report.pairs_checked == 0
        assert report.max_ratio_pair is None

    def test_pass_is_monotone_in_bound(self, table_100k):
        # pass at bound b must imply pass at every larger bound
        bounds = [Fraction(9, 8), Fraction(143, 125), Fraction(6, 5), Fraction(3, 2)]
        passes = [verify_ratio(table_100k, 37, 2000, b).passed for b in bounds]
        for earlier, later in zip(passes, passes[1:]):
            assert later >= earlier

    def test_range_beyond_table(self, table_100k):
        with pytest.raises(ValueError):
            verify_ratio(table_100k, 37, X0 + 1)

    def test_report_dict(self, table_100k):
        d = json.loads(canonical_json(verify_ratio(table_100k, 20, 32)))
        assert d["bound"] == "143/125"
        assert d["range"] == [20, 32]
        assert d["verdict"] == "fail"
        assert [23, 29] in d["violations"]


class TestChebyshevThreshold:
    def test_defaults_certify_the_printed_value(self):
        r = chebyshev_threshold(digits=30)
        assert r.C == Fraction(1130289, 1000000)
        assert Fraction(r.exponent.lower) <= Fraction(1130289, 13711) <= Fraction(r.exponent.upper)
        # enclosure pinned inside [65530.89, 65530.90), certifying the
        # printed digits 65530.89...
        assert Fraction(r.threshold.lower) >= Fraction(6553089, 100)
        assert Fraction(r.threshold.upper) < Fraction(655309, 10)
        assert Fraction(r.threshold.upper) - Fraction(r.threshold.lower) < Fraction(1, 100)
        assert r.below_x0

    def test_against_mpmath_oracle(self):
        r = chebyshev_threshold(digits=40)
        mpmath.mp.dps = 60
        a = mpmath.mpf(143) / 125
        c = mpmath.mpf(1130289) / 1000000
        oracle = a ** (c / (a - c))
        assert Fraction(r.threshold.lower) < Fraction(str(oracle)) < Fraction(r.threshold.upper)

    def test_typo_variant(self):
        r = chebyshev_threshold(digits=30, typo_variant=True)
        exact = Fraction(143, 125) * Fraction(1130289, 13711)
        assert exact == Fraction(161631327, 1713875)
        assert Fraction(r.threshold.lower) <= exact <= Fraction(r.threshold.upper)
        # prints as 94.30...
        assert Fraction(943, 10) < exact < Fraction(9431, 100)

    def test_degenerate_a_equals_C(self):
        with pytest.raises(ValueError, match="degenerate"):
            chebyshev_threshold(a=Fraction(1130289, 1000000), digits=10)

    def test_nonpositive_inputs(self):
        with pytest.raises(ValueError, match="must be positive"):
            chebyshev_threshold(B=0, digits=10)
        with pytest.raises(ValueError, match="must be positive"):
            chebyshev_threshold(a=0, digits=10)

    def test_verdict_is_three_way(self):
        assert chebyshev_threshold(digits=20).below_x0 is True
        wide = chebyshev_threshold(digits=2)
        assert Fraction(wide.threshold.lower) < X0 <= Fraction(wide.threshold.upper)
        assert wide.below_x0 is None
        assert json.loads(canonical_json(wide))["below_x0"] is None
        # C = 1.14 against a = 1.144 puts a^(C/(a-C)) near 10^16
        high = chebyshev_threshold(B=Fraction(114, 100), digits=30)
        assert Fraction(high.threshold.lower) >= X0
        assert high.below_x0 is False

    def test_result_dict(self):
        d = json.loads(canonical_json(chebyshev_threshold(digits=20)))
        assert d["a"] == "143/125"
        assert d["below_x0"] is True
        assert set(d["threshold"]) == {"lower", "upper"}


@st.composite
def star_grids(draw):
    """(m_max, d_max, bound).  With bound num/den a row's side fails where
    d*s <= c, s = den*m - num*u (u = t or m-t) and c = 2num - den; the
    bounds make s positive, zero (a bound m/u on a drawn row) or negative,
    and c negative (a bound below 1/2), zero or positive."""
    m_max, d_max = draw(st.integers(7, 40)), draw(st.integers(1, 40))
    m = draw(st.integers(7, m_max))
    t = choose_t(m)
    bound = draw(st.sampled_from((RATIO_BOUND, Fraction(3, 2), Fraction(2), Fraction(1, 2),
                                  Fraction(1, 3), Fraction(m, t), Fraction(m, m - t)))
                 | st.fractions(Fraction(1, 4), Fraction(3), max_denominator=30))
    return m_max, d_max, bound


class TestStarInequality:
    def test_default_grid_passes(self):
        report = star_inequality_check(200, 200)
        assert report.passed
        assert report.failures == ()
        assert report.checked == (200 - 6) * 200

    def test_family_heads_match_printed_quotients(self):
        report = star_inequality_check(20, 5)
        quotients = {h["m"]: h["quotient"] for h in report.family_heads}
        assert quotients == {
            7: "(7d+1)/(4d+2)",
            9: "(9d+1)/(5d+2)",
            11: "(11d+1)/(6d+2)",
            10: "(10d+1)/(7d+2)",
            14: "(14d+1)/(9d+2)",
            18: "(18d+1)/(11d+2)",
            8: "(8d+1)/(5d+2)",
            12: "(12d+1)/(7d+2)",
            16: "(16d+1)/(9d+2)",
        }
        assert report.heads_match

    def test_head_values(self):
        # m = 7, d = 1 gives 8/6 = 4/3; m = 10, d = 1 gives 11/9
        assert Fraction(7 * 1 + 1, 4 * 1 + 2) == Fraction(4, 3) > RATIO_BOUND
        assert Fraction(10 * 1 + 1, 7 * 1 + 2) == Fraction(11, 9) > RATIO_BOUND

    def test_hi_ratio_monotone_in_d_so_minimum_on_boundary(self):
        for m in (7, 8, 10, 9, 14, 16):
            t = choose_t(m)
            prev = None
            for d in range(1, 51):
                ratio = Fraction(m * d + 1, d * t + 2)
                if prev is not None:
                    assert ratio > prev
                prev = ratio

    def test_grid_preconditions(self):
        with pytest.raises(ValueError):
            star_inequality_check(6, 10)
        with pytest.raises(ValueError):
            star_inequality_check(10, 0)

    @given(grid=star_grids())
    @example(grid=(7, 5, Fraction(7, 5)))   # m = 7 hi: s = 7 > 0, fails at d = 1 only
    @example(grid=(7, 5, Fraction(7, 4)))   # m = 7 hi: s = 0 and c = 10, every d fails
    @example(grid=(10, 3, Fraction(3, 2)))  # m = 10 hi: s = -1, every d fails
    @example(grid=(9, 4, Fraction(1, 2)))   # c = 0: s > 0 everywhere, nothing fails
    @example(grid=(9, 4, Fraction(1, 3)))   # c = -1 < 0
    @settings(max_examples=300, deadline=None)
    def test_rows_equal_the_per_cell_oracle(self, grid):
        """Each row's closed-form failure intervals list the cells that the
        per-cell grid fails, in its order, hi before lo."""
        m_max, d_max, bound = grid
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gaps, "RATIO_BOUND", bound)
            report = star_inequality_check(m_max, d_max)
        assert (report.failures, report.checked) == star_grid_oracle(m_max, d_max, bound)
        assert report.bound == bound


@st.composite
def fake_prime_gaps(draw):
    """An increasing odd "prime" stream from 37 with gaps up to 80 wide, and a
    k_max, odd or even, below its last element."""
    stream = [37]
    for h in draw(st.lists(st.integers(1, 40), min_size=1, max_size=12)):
        stream.append(stream[-1] + 2 * h)
    return stream, draw(st.integers(38, stream[-1] - 1))


class TestMBound:
    def test_k38_row(self):
        report = m_bound_check(38)
        assert report.passed
        # p = 41: ratio 40/36 = 10/9 < 6/5, d = 4, m = 10
        assert Fraction(40, 36) == Fraction(10, 9)
        assert (41 - 1) // gcd(40, 36) == 10

    def test_range_to_10k(self):
        report = m_bound_check(10000)
        assert report.passed
        assert report.checked == (10000 - 38) // 2 + 1

    def test_range_to_1e6(self):
        report = m_bound_check(1_000_000)
        assert report.passed
        assert report.failures == ()

    def test_near_miss_is_reported(self):
        report = m_bound_check(100)
        assert report.near_miss == {"k": 32, "p": 37, "ratio": "36/30", "m": 6}

    def test_precondition(self):
        with pytest.raises(ValueError):
            m_bound_check(36)

    def test_coprime_cofactor_exhaustion(self):
        # whenever m <= 6 and s < m are coprime, m/s >= 6/5; so a ratio
        # strictly below 6/5 forces m > 6 (equality is attained at 6/5)
        ratios = [
            Fraction(m, s)
            for m in range(2, 7)
            for s in range(1, m)
            if gcd(m, s) == 1
        ]
        assert min(ratios) == Fraction(6, 5) == M_BOUND_RATIO
        assert all(r >= Fraction(6, 5) for r in ratios)

    @given(k_max=st.integers(38, 20000))
    @settings(max_examples=25, deadline=None)
    def test_the_ratio_clause_agrees_with_both_clauses(self, k_max):
        report = m_bound_check(k_max)
        checked, failures = m_bound_oracle(k_max)
        assert (report.checked, report.failures) == (checked, tuple(failures))

    def test_m_at_most_6_only_where_the_ratio_fails(self):
        # below 38, where the ratio does fail, every weight with m <= 6 is
        # already among its failures
        ratio_fails, small_m = [], []
        for k in range(4, 20001, 2):
            p = trial_division_next_prime(k)
            if 5 * (p - 1) >= 6 * (k - 2):
                ratio_fails.append(k)
            if (p - 1) // gcd(p - 1, k - 2) <= 6:
                small_m.append(k)
        assert ratio_fails == [4, 6, 8, 10, 12, 14, 20, 24, 32]
        assert len(small_m) == 7 and set(small_m) <= set(ratio_fails)

    def test_the_chain_tests_odd_candidates_only(self, monkeypatch):
        is_prime, tested = gaps.is_prime, []
        monkeypatch.setattr(gaps, "is_prime", lambda n: tested.append(n) or is_prime(n))
        assert m_bound_check(100_000).passed
        assert tested and all(n % 2 == 1 and n > 37 for n in tested)

    def test_a_failing_weight_is_reported(self, monkeypatch, capsys):
        # (38, 100000] holds no failure, so the primes the chain tests are
        # faked: 46/36 > 6/5, and in the gap (37, 47) the clause fails at 38
        # and 40 (46/38 >= 6/5) but not at 42 (46/40 < 6/5)
        monkeypatch.setattr(gaps, "is_prime", lambda n: n in (37, 47))
        monkeypatch.setattr(gaps, "next_prime", lambda n: 37 if n < 37 else 47)
        report = m_bound_check(38)
        assert report.failures == ((38, 47),)
        assert json.loads(canonical_json(report))["verdict"] == "fail"
        assert main(["mbound", "--max-k", "38"]) == 1
        assert m_bound_check(46).failures == ((38, 47), (40, 47))

    @given(case=fake_prime_gaps())
    @example(case=([37, 47], 38))  # the first gap fails at k = 38
    @example(case=([37, 41, 61], 45))  # (41, 61) fails to k = 52; k_max cuts it
    @example(case=([37, 41, 61], 44))
    @settings(max_examples=200, deadline=None)
    def test_the_gap_expansion_agrees_with_a_weight_loop(self, case):
        # real primes hold no failure above 36, so the primes are faked, to
        # reach the chain's jumps and the expansion arithmetic
        stream, k_max = case

        def fake_next_prime(n):
            return next(q for q in stream if q > n)

        expected = []
        for k in range(38, k_max + 1, 2):
            p = fake_next_prime(k)
            if 5 * (p - 1) >= 6 * (k - 2):
                expected.append((k, p))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gaps, "is_prime", set(stream).__contains__)
            mp.setattr(gaps, "next_prime", fake_next_prime)
            report = m_bound_check(k_max)
        assert report.failures == tuple(expected)
        assert report.checked == len(range(38, k_max + 1, 2))

    @pytest.mark.parametrize("ratio", [M_BOUND_RATIO, Fraction(11, 10), Fraction(21, 20)])
    @given(k_max=st.integers(38, 10**6))
    @example(k_max=38)
    @example(k_max=39)
    @example(k_max=10**6)
    @example(k_max=10**6 + 1)
    @settings(max_examples=20, deadline=None)
    def test_the_chain_agrees_with_the_stream_scan(self, ratio, k_max):
        # the failures of the chain against those of the shifted scan over
        # every adjacent pair of the stream from 37 to the prime after k_max;
        # real primes break 6/5 nowhere above 36, so two smaller ratios,
        # which they do break, reach the chain's violation branch
        num, den = ratio.numerator, ratio.denominator
        end = next_prime(k_max)
        stream = list(iter_primes(37, end))
        scan = gaps._scan(table_of(stream), 37, end, ratio, shift=1)
        expected = tuple(
            (k, p)
            for q, p in scan.violations
            for k in range(max(38, q + 1), min(k_max, 2 + den * (p - 1) // num) + 1, 2)
        )
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gaps, "M_BOUND_RATIO", ratio)
            assert m_bound_check(k_max).failures == expected
        assert bool(expected) == (ratio != M_BOUND_RATIO)

    def test_the_chain_reaches_1e12(self):
        report = m_bound_check(10**12)
        assert report.passed
        assert report.checked == (10**12 - 38) // 2 + 1
