"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 2's maximum-ratio clause: over (37, 100000] the largest q/p among
adjacent primes is 53/47, not 127/113, since 53*113 = 5989 > 5969 = 127*47,
and the pair stays below the bound, since 53*125 = 6625 < 6721 = 47*143.
The published pair (113, 127) is the maximum for scans that start at
53 <= low < 127, where (47, 53) is out of range.  Both maxima are checked
against an exhaustive Fraction scan over trial-division primes.
"""

import random
import time
from fractions import Fraction

from weightdescent import descent, gaps
from weightdescent.charconj.campaigns import (
    frobenius_campaign,
    invariance_campaign,
    mackey_campaign,
    random_class_function,
    random_subgroup,
    suite_groups,
)
from weightdescent.charconj.characters import induce
from weightdescent.primes import sieve

from oracles import (
    brute_force_induced_values,
    lifted,
    max_ratio_pair_scan,
    trial_division_primes,
)


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{criterion}] {status} {detail}".rstrip())


# the published bullet rows: k -> (p, d, m, t, dt, k_hi, k_lo)
PUBLISHED = {
    10: (11, 2, 5, 3, 6, 8, 6),
    16: (17, 2, 8, 5, 10, 12, 8),
    18: (19, 2, 9, 5, 10, 12, 10),
    20: (23, 2, 11, 6, 12, 14, 12),
    22: (23, 2, 11, 6, 12, 14, 12),
    24: (29, 2, 14, 9, 18, 20, 12),
    26: (29, 4, 7, 4, 16, 18, 14),
    28: (29, 2, 14, 9, 18, 20, 12),
    30: (31, 2, 15, 8, 16, 18, 16),
    32: (43, 6, 7, 4, 24, 26, 20),
}


def test_criterion_1_table_reproduction():
    t0 = time.perf_counter()
    rows = {r.k: r for r in descent.reference_table()}
    elapsed = time.perf_counter() - t0

    assert len(rows) == 12
    for k, expected in PUBLISHED.items():
        r = rows[k]
        assert (r.p, r.d, r.m, r.t, r.dt, r.k_hi, r.k_lo) == expected, f"row k = {k}"
        assert r.matches_paper
    r34 = rows[34]
    assert (r34.k_hi, r34.k_lo) == (22, 18)
    assert (r34.d, r34.m, r34.t, r34.dt) == (4, 9, 5, 20)
    assert r34.matches_paper
    r36 = rows[36]
    assert (r36.k_hi, r36.k_lo) == (24, 16)
    assert not r36.matches_paper  # published row prints {22, 16}
    assert elapsed < 1.0
    report("criterion 1", True, f"12 rows reproduced, k=36 flagged ({elapsed:.3f}s)")


def test_criterion_2_gap_audit(table_100k):
    t0 = time.perf_counter()
    plain = gaps.verify_ratio(table_100k, 37, 100000, Fraction(143, 125))
    shifted = gaps.verify_shifted_ratio(table_100k, 37, 100000, Fraction(23, 20))
    elapsed = time.perf_counter() - t0

    assert plain.violations == ()
    assert shifted.violations == ()
    assert plain.pairs_checked == shifted.pairs_checked == 9580
    assert elapsed < 5.0
    report(
        "criterion 2",
        True,
        f"zero violations in both scans over (37, 100000], "
        f"max ratio pair {plain.max_ratio_pair} ({elapsed:.3f}s)",
    )


def test_criterion_2_max_ratio_pair_as_published(table_100k, trial_primes_100k):
    bound = Fraction(143, 125)
    plain = gaps.verify_ratio(table_100k, 37, 100000, bound)
    shifted = gaps.verify_shifted_ratio(table_100k, 37, 100000, Fraction(23, 20))
    oracle = max_ratio_pair_scan(trial_primes_100k, 37, 100000)
    oracle_shifted = max_ratio_pair_scan(trial_primes_100k, 37, 100000, shift=1)
    edge = gaps.verify_ratio(table_100k, 52, 100000, bound)
    published = gaps.verify_ratio(table_100k, 53, 100000, bound)
    published_oracle = max_ratio_pair_scan(trial_primes_100k, 53, 100000)

    ok = (
        plain.max_ratio_pair == oracle == (47, 53)
        and shifted.max_ratio_pair == oracle_shifted == (47, 53)
        and edge.max_ratio_pair == (47, 53)
        and published.max_ratio_pair == published_oracle == (113, 127)
    )
    report(
        "criterion 2 (max pair clause)",
        ok,
        f"max pair {plain.max_ratio_pair} over (37, 100000] "
        f"(53*113 = 5989 > 5969 = 127*47), "
        f"{published.max_ratio_pair} over (53, 100000]",
    )
    # (47, 53) beats (113, 127) and is itself below the bound
    assert 53 * 113 > 127 * 47
    assert 53 * bound.denominator < 47 * bound.numerator
    assert plain.max_ratio_pair == oracle == (47, 53)
    assert shifted.max_ratio_pair == oracle_shifted == (47, 53)
    # the published pair takes over once the scan starts at 53
    assert edge.max_ratio_pair == (47, 53)
    assert published.max_ratio_pair == published_oracle == (113, 127)


def test_criterion_3_chebyshev_threshold():
    t0 = time.perf_counter()
    result = gaps.chebyshev_threshold(B=Fraction("1.130289"), a=Fraction("1.144"), digits=30)
    elapsed = time.perf_counter() - t0

    lower, upper = Fraction(result.threshold.lower), Fraction(result.threshold.upper)
    assert upper - lower < Fraction(1, 100)
    # certifies the printed digits 65530.89...
    assert Fraction(6553089, 100) <= lower
    assert upper < Fraction(655309, 10)
    assert upper < 100000
    assert result.below_x0
    assert result.A == 1
    assert elapsed < 1.0
    report(
        "criterion 3",
        True,
        f"threshold in {result.threshold}, width {result.threshold.width()} ({elapsed:.3f}s)",
    )


def test_criterion_4_descent_termination_to_1e6():
    t0 = time.perf_counter()
    audit = descent.audit(1_000_000)
    elapsed = time.perf_counter() - t0

    term = audit.termination
    assert term.terminates
    assert term.weights_with_skips == (32,)
    assert audit.skip_failures == ()     # p = next_prime(k) for k > 36
    assert audit.m_bound_failures == ()  # m > 6 for k > 36
    assert audit.ratio_failures == ()    # p/k' > 143/125 exactly, both branches
    assert audit.passed
    assert elapsed < 60.0
    report(
        "criterion 4",
        True,
        f"{term.edge_count} weights reduced, longest chain {term.longest_chain_length}, "
        f"unique skipper 32 ({elapsed:.1f}s)",
    )


def test_criterion_5_star_inequality():
    t0 = time.perf_counter()
    star = gaps.star_inequality_check(200, 200)
    elapsed = time.perf_counter() - t0

    assert star.failures == ()
    assert star.heads_match
    quotients = {h["m"]: h["quotient"] for h in star.family_heads}
    assert quotients == {
        7: "(7d+1)/(4d+2)", 9: "(9d+1)/(5d+2)", 11: "(11d+1)/(6d+2)",
        10: "(10d+1)/(7d+2)", 14: "(14d+1)/(9d+2)", 18: "(18d+1)/(11d+2)",
        8: "(8d+1)/(5d+2)", 12: "(12d+1)/(7d+2)", 16: "(16d+1)/(9d+2)",
    }
    assert elapsed < 1.0
    report("criterion 5", True, f"{star.checked} grid cells, 9 family heads ({elapsed:.3f}s)")


def test_criterion_6_character_suite():
    t0 = time.perf_counter()
    frob = frobenius_campaign(draws=50, seed=2024)
    mack = mackey_campaign(draws=50, seed=2024)
    inv = invariance_campaign(trials=100, seed=2024)

    rng = random.Random(2024)
    oracle_checks = 0
    for name, g in suite_groups().items():
        assert g.order <= 24
        for _ in range(3):
            h = random_subgroup(rng, g)
            chi = random_class_function(rng, h)
            assert lifted(induce(h, chi)) == brute_force_induced_values(g, h, chi), name
            oracle_checks += 1
    elapsed = time.perf_counter() - t0

    assert frob.passed and frob.checks_run >= 50 * 15
    assert mack.passed and mack.checks_run >= 50 * 15
    assert inv.passed and inv.checks_run == 100
    assert elapsed < 30.0
    report(
        "criterion 6",
        True,
        f"reciprocity {frob.checks_run}, mackey {mack.checks_run}, "
        f"invariance {inv.checks_run}, induced-oracle {oracle_checks} ({elapsed:.1f}s)",
    )


def test_criterion_7_oracle_independence():
    oracle_count = len(trial_division_primes(100000))
    sieve_count = sieve(100000).count
    ok = oracle_count == sieve_count == 9592
    report("criterion 7", ok, f"trial division {oracle_count}, sieve {sieve_count}")
    assert oracle_count == 9592
    assert sieve_count == 9592
