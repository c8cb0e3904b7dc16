import random
import tracemalloc
from array import array
from bisect import bisect_right
from itertools import islice
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weightdescent import descent, primes
from weightdescent.primes import (
    SEGMENT_SIZE,
    PrimeTable,
    consecutive_pairs,
    iter_primes,
    next_prime,
    sieve,
)

from oracles import (
    gap_string,
    strong_probable_prime,
    trial_division_is_prime,
    trial_division_next_prime,
    trial_division_primes,
)


def empty_the_array(monkeypatch):
    """Give the test an empty prime array and gap string, as at the start of
    a process."""
    monkeypatch.setattr(primes, "_PRIMES", array("q"))
    monkeypatch.setattr(primes, "_GAPS", "")
    monkeypatch.setattr(primes, "_covered", 1)


@pytest.fixture
def fresh_primes(monkeypatch):
    empty_the_array(monkeypatch)


def test_sieve_30():
    table = sieve(30)
    assert tuple(table.primes) == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
    assert table.count == 10


def test_sieve_edges():
    assert tuple(sieve(0).primes) == ()
    assert tuple(sieve(1).primes) == ()
    assert tuple(sieve(2).primes) == (2,)
    assert sieve(0).gaps == sieve(1).gaps == sieve(2).gaps == ""
    assert sieve(3).gaps == "\x01"
    with pytest.raises(ValueError):
        sieve(-1)


def test_sieve_matches_trial_division_small():
    assert list(sieve(10000).primes) == trial_division_primes(10000)


def test_sieve_strictly_increasing(table_100k):
    ps = table_100k.primes
    assert all(ps[i] < ps[i + 1] for i in range(len(ps) - 1))


def test_sieve_spot_check_random_subranges(table_100k):
    rng = random.Random(20240811)
    members = set(table_100k.primes)
    for _ in range(5):
        lo = rng.randrange(2, 99000)
        for n in range(lo, lo + 200):
            assert (n in members) == trial_division_is_prime(n)


def test_every_small_window_against_trial_division():
    # every [lo, hi] in [2, 200], even and odd ends alike, over the base primes
    # up to isqrt(hi) and over a longer base: a slip in the odd-only flag
    # index or the first odd multiple shows in some window
    expected = trial_division_primes(200)
    long_base = trial_division_primes(50)
    for hi in range(2, 201):
        base = trial_division_primes(isqrt(hi))
        for lo in range(2, hi + 1):
            want = [p for p in expected if lo <= p <= hi]
            assert list(primes._mark_segment(base, lo, hi)) == want, (lo, hi)
            assert list(primes._mark_segment(long_base, lo, hi)) == want, (lo, hi)


def test_segment_boundaries(monkeypatch):
    # tiny segments force many windows; result must not depend on the split
    expected = sieve(1000).primes
    empty_the_array(monkeypatch)
    monkeypatch.setattr(primes, "SEGMENT_SIZE", 16)
    assert sieve(1000).primes == expected


def test_next_prime_examples(table_100k):
    assert next_prime(24, table_100k) == 29
    assert next_prime(32, table_100k) == 37
    assert next_prime(36, table_100k) == 37
    assert next_prime(1) == 2
    with pytest.raises(ValueError):
        next_prime(0)


def test_next_prime_extends_past_table():
    small = sieve(30)
    assert next_prime(29, small) == 31
    assert next_prime(96, small) == 97
    assert next_prime(100000, small) == 100003


@pytest.mark.parametrize("n", [14, 38, 1000, 10000])
def test_stream_equals_the_table_and_trial_division(monkeypatch, n):
    expected = trial_division_primes(n)
    assert list(sieve(n).primes) == expected
    assert sieve(n).gaps == gap_string(expected)
    assert list(islice(iter_primes(2, 2 * n), len(expected))) == expected
    for segment_size in (1, 2, 7, 16, 300, SEGMENT_SIZE):
        # an empty array, so that the table is sieved in windows of this
        # size and not cut from an array grown before
        empty_the_array(monkeypatch)
        monkeypatch.setattr(primes, "SEGMENT_SIZE", segment_size)
        table = sieve(n)
        assert (tuple(table.primes), table.gaps) == (tuple(expected), gap_string(expected))
        assert list(iter_primes(2, n)) == expected
        for lo in (0, 3, n // 3, n):
            assert list(iter_primes(lo, n)) == [p for p in expected if p >= lo]


def test_an_empty_range_streams_nothing():
    for lo, hi in [(10, 9), (3, 2), (100, 1), (0, -5), (0, 1), (-3, 1), (24, 28)]:
        assert list(iter_primes(lo, hi)) == []


@pytest.mark.parametrize("segment_size", [1, 2, 3, 7])
def test_the_stream_is_exact_across_window_edges(monkeypatch, segment_size):
    # windows start at lo, so over every lo and hi the ends fall on every
    # offset of a window, on primes and on composites alike
    expected = trial_division_primes(90)
    empty_the_array(monkeypatch)
    monkeypatch.setattr(primes, "SEGMENT_SIZE", segment_size)
    for lo in range(0, 50):
        for hi in range(lo - 2, 91):
            assert list(iter_primes(lo, hi)) == [p for p in expected if lo <= p <= hi], (lo, hi)


@pytest.mark.parametrize("lo", [1009**2 - 1000, 1031**2 - 1000, 65521**2 - 1000, 10**10 - 1000])
def test_stream_across_a_prime_square_where_the_base_must_grow(lo):
    # the window ends pass 1009^2, 1031^2, 65521^2 or 10^10 = 100000^2, so
    # the base primes must grow mid-stream; a base that stopped short of 1009,
    # of 1031 (the first prime past 1024 = 2^10) or of 65521 would list its
    # square as a prime
    expected = [n for n in range(lo, lo + 3001) if trial_division_is_prime(n)]
    assert list(iter_primes(lo, lo + 3000)) == expected


@pytest.mark.parametrize("limit", [0, 2, 30, 1000])
def test_next_prime_walks_into_and_past_the_table(limit):
    # without a table, and with one the answer lies inside, at its end or past it
    ns = [1, 2, 2, 3, 10, 11, 12, 29, 30, 31, 96, 500, 996, 997, 1000, 1008, 1010]
    expected = [trial_division_next_prime(n) for n in ns]
    assert [next_prime(n) for n in ns] == expected
    table = sieve(limit)
    assert [next_prime(n, table) for n in ns] == expected


def test_every_integer_is_sieved_at_most_once_per_process(monkeypatch, fresh_primes):
    # the process's prime array grows only through primes.iter_primes, called
    # on the stretch past what it covers; the kernel's and the chain's streams
    # call the loop directly and read their base primes from the array. Across
    # a chain, two equal tables, a larger one and an audit, the stretches are
    # disjoint and adjacent, a repeated table sieves nothing, and the array
    # ends where the largest table asked
    grown = []
    real = primes.iter_primes

    def recording(lo, hi):
        grown.append((lo, hi))
        return real(lo, hi)

    monkeypatch.setattr(primes, "iter_primes", recording)
    descent.chain(999998, "longest")
    assert sieve(10**5).count == 9592
    stretches = len(grown)
    assert sieve(10**5).count == 9592
    assert len(grown) == stretches
    assert sieve(2 * 10**5).count == 17984
    descent.audit(10**6)
    assert grown[0][0] == 2 and grown[-1][1] == 2 * 10**5
    assert all(lo == prev_hi + 1 for (_, prev_hi), (lo, _) in zip(grown, grown[1:])), grown
    assert list(primes._PRIMES) == trial_division_primes(2 * 10**5)


def test_an_audit_grows_the_array_to_its_square_root(fresh_primes):
    # the audit's stream needs base primes up to the square root of its last
    # window's end, a little past sqrt(10^6), and no table
    descent.audit(10**6)
    assert 1000 <= primes._covered <= 1100
    assert list(primes._PRIMES) == trial_division_primes(primes._covered)


def test_the_gap_string_stays_aligned_with_the_array(fresh_primes):
    # grown stretch by stretch, from inside a stream and by a table: after
    # each step, character i of the gap string is the gap after prime i
    for n in (3, 15, 255, 65535, 10**5 + 3, 2 * 10**5):
        primes._grow(n)
        assert primes._covered == n
        assert primes._GAPS == gap_string(primes._PRIMES), n
    assert list(primes._PRIMES) == trial_division_primes(2 * 10**5)


def test_an_audit_stream_keeps_the_gap_string_aligned(fresh_primes):
    descent.audit(10**4)
    assert primes._covered > 1
    assert primes._GAPS == gap_string(primes._PRIMES)
    assert list(primes._PRIMES) == trial_division_primes(primes._covered)


@pytest.mark.parametrize("limit", [0, 1, 2, 3, 4, 5, 30, 1000, 10**4, 10**5])
def test_a_table_holds_the_gaps_of_its_primes(limit, trial_primes_100k):
    # cut from an array grown past the limit, so the string is cut too
    expected = [p for p in trial_primes_100k if p <= limit]
    sieve(2 * 10**5)
    table = sieve(limit)
    assert tuple(table.primes) == tuple(expected)
    assert table.gaps == gap_string(expected)


def test_a_large_base_holds_eight_bytes_a_prime(fresh_primes):
    # the 295,947 primes below 2^22 take ~2.4 MB in the array as 8-byte
    # integers and ~12 MB as a tuple of int objects, and their gap string one
    # byte a prime more; grown in windows, the flags add one window, where
    # one segment [2, 2^22] peaks at ~8 MB, and the gaps are joined a run at
    # a time, where one join of them all lists 8 bytes a gap
    tracemalloc.start()
    try:
        primes._grow(1 << 22)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    base = primes._PRIMES
    assert (len(base), base[0], base[-1]) == (295947, 2, 4194301)
    assert len(primes._GAPS) == len(base) - 1
    assert kept < 3 * 2**20
    assert peak < 3 * 2**20


def test_a_table_holds_its_primes_as_8_byte_integers():
    table = sieve(1000)
    assert isinstance(table.primes, array)
    assert (table.primes.typecode, table.primes.itemsize) == ("q", 8)
    assert table.count == len(table.primes) == 168


def test_a_table_is_a_copy_that_a_later_growth_leaves_alone(fresh_primes):
    n = 10**4
    table = sieve(n)
    before = (list(table.primes), table.gaps)
    primes._grow(2 * n)
    assert table.primes is not primes._PRIMES
    assert (list(table.primes), table.gaps) == before
    assert before[0] == trial_division_primes(n)
    assert len(primes._PRIMES) > table.count


def test_a_warm_table_takes_about_nine_bytes_a_prime():
    # the 78,498 primes below 10^6 as a tuple of ints took ~36 bytes a prime
    # (an 8-byte slot and a 28-byte int); sliced from the array they take 8,
    # and their gap string one more
    sieve(10**6)
    tracemalloc.start()
    try:
        table = sieve(10**6)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.count == 78498
    assert kept < 12 * table.count
    assert peak < 12 * table.count


# maximal prime gaps: 72 after 31397 and 114 after 492113
GAP_EDGES = [31396, 31397, 31430, 31468, 31469, 492112, 492113, 492170, 492226, 492227]


@pytest.mark.parametrize("stride", [256, 16, 1])
def test_next_prime_without_table_across_maximal_gaps(monkeypatch, stride):
    # next_prime tests single numbers: across the longest gaps below 10^6 it
    # agrees with trial division and sieves no window. Each gap is walked
    # from the prime before it to the prime after it, every stride-th integer
    def refuse(base, lo, hi):
        raise AssertionError(f"a window [{lo}, {hi}] was sieved")

    monkeypatch.setattr(primes, "_mark_segment", refuse)
    walked = set(GAP_EDGES)
    for p, q in [(31397, 31469), (492113, 492227)]:
        walked.update(range(p - 1, q + 1, stride))
    for n in sorted(walked):
        assert next_prime(n) == trial_division_next_prime(n), n
    # stride 1 visits every integer of both gaps
    assert (len(walked) == 72 + 114 + 4) == (stride == 1)


# the odd composites below 10^5 that are strong probable primes to base 2
# (OEIS A001262)
BASE_2_PSEUDOPRIMES = [2047, 3277, 4033, 4681, 8321, 15841, 29341, 42799, 49141,
                       52633, 65281, 74665, 80581, 85489, 88357, 90751]
# psi_t, t = 1..13 (OEIS A014233)
PUBLISHED_PSI = [2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
                 341550071728321, 341550071728321, 3825123056546413051,
                 3825123056546413051, 3825123056546413051, 318665857834031151167461,
                 3317044064679887385961981]
PSI_13 = PUBLISHED_PSI[-1]


def test_is_prime_agrees_with_trial_division_to_1e5():
    assert [n for n in range(-3, 10**5 + 1) if primes.is_prime(n)] == trial_division_primes(10**5)


def test_the_base_2_pseudoprimes_below_1e5_are_rejected():
    found = [n for n in range(3, 10**5, 2)
             if strong_probable_prime(n, 2) and not trial_division_is_prime(n)]
    assert found == BASE_2_PSEUDOPRIMES
    assert not any(map(primes.is_prime, found))


def test_every_psi_below_psi13_is_rejected_and_psi13_is_refused():
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    assert primes._PSI == tuple(PUBLISHED_PSI)
    for t, psi in enumerate(PUBLISHED_PSI, 1):
        # each is a strong probable prime to the first t bases
        assert all(strong_probable_prime(psi, a) for a in bases[:t]), t
    assert not any(map(primes.is_prime, PUBLISHED_PSI[:-1]))
    # psi13 = 1287836182261 * 2575672364521 passes all 13 tests
    assert 1287836182261 * 2575672364521 == PSI_13
    with pytest.raises(primes.CannotCertifyError, match="cannot certify 3317044064679887385961981"):
        primes.is_prime(PSI_13)


def test_next_prime_equals_trial_division_to_1e5():
    # next_prime tries only odd candidates past 2; every n in [1, 10^5],
    # against the first trial-division prime above n (100003 is prime)
    ps = trial_division_primes(100003)
    assert ps[-1] == trial_division_next_prime(10**5)
    ns = range(1, 10**5 + 1)
    assert [next_prime(n) for n in ns] == [ps[bisect_right(ps, n)] for n in ns]


@pytest.mark.parametrize("n", [PSI_13 - 2, PSI_13 - 1, 2**89 - 3, 2**89 - 2])
def test_next_prime_refuses_to_certify_past_psi13(n):
    # the first candidate passing all 13 tests is psi13 (composite) or the
    # Mersenne prime 2^89 - 1, neither provable; odd candidates still reach it
    with pytest.raises(primes.CannotCertifyError, match=f"cannot certify {(n + 1) | 1}"):
        next_prime(n)


def test_is_prime_proves_composites_beyond_psi13():
    # a failed test is a proof at any size; only an n passing all 13 is refused
    assert not primes.is_prime(PSI_13 + 2 * 43)
    assert not primes.is_prime(PSI_13 * 3)
    assert not primes.is_prime(2**89 + 1)
    with pytest.raises(primes.CannotCertifyError):
        primes.is_prime(2**89 - 1)  # a Mersenne prime, past psi13


@given(n=st.integers(1, 10**12))
@example(n=1)
@example(n=2)
@example(n=492113)
@example(n=10**12)
@example(n=2152302898747 - 1)  # psi_5
@settings(max_examples=200, deadline=None)
def test_next_prime_is_the_first_prime_of_the_stream(n):
    # by Bertrand's postulate a prime lies in (n, 2n]
    assert next_prime(n) == next(iter_primes(n + 1, 2 * n))


def test_consecutive_pairs_examples(table_100k):
    assert consecutive_pairs(table_100k, 37, 48) == [(37, 41), (41, 43), (43, 47)]
    assert consecutive_pairs(table_100k, 37, 37) == []
    pairs = consecutive_pairs(table_100k, 100, 130)
    assert (113, 127) in pairs
    assert pairs[0] == (97, 101)


def test_consecutive_pairs_range_check(table_100k):
    with pytest.raises(ValueError):
        consecutive_pairs(table_100k, 0, 100001)
    with pytest.raises(ValueError, match="exceeds the table limit 200"):
        consecutive_pairs(sieve(200), 0, 201)


def test_consecutive_pairs_of_every_small_range_against_trial_division():
    table = sieve(200)
    ps = trial_division_primes(200)
    adjacent = list(zip(ps, ps[1:]))
    for high in range(1, 201):
        for low in range(high):
            want = [(p, q) for p, q in adjacent if low < q <= high]
            assert consecutive_pairs(table, low, high) == want, (low, high)


def test_pairs_are_adjacent_and_next_prime_consistent(table_100k):
    rng = random.Random(7)
    pairs = consecutive_pairs(table_100k, 1000, 99000)
    for p, q in rng.sample(pairs, 50):
        assert not any(trial_division_is_prime(n) for n in range(p + 1, q))
        assert next_prime(p, table_100k) == q


def test_table_membership(table_100k):
    assert 99991 in table_100k.primes
    assert 99987 not in table_100k.primes  # divisible by 3
    assert isinstance(table_100k, PrimeTable)
