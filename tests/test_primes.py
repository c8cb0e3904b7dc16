import random

import pytest

from weightdescent.primes import PrimeTable, consecutive_pairs, next_prime, next_primes, sieve

from oracles import trial_division_is_prime, trial_division_next_prime, trial_division_primes


def test_sieve_30():
    table = sieve(30)
    assert table.primes == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
    assert table.count == 10


def test_sieve_edges():
    assert sieve(0).primes == ()
    assert sieve(1).primes == ()
    assert sieve(2).primes == (2,)
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


def test_segment_boundaries():
    # tiny segments force many windows; result must not depend on the split
    assert sieve(1000, segment_size=16).primes == sieve(1000).primes


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


@pytest.mark.parametrize("limit", [0, 2, 30, 1000])
def test_next_primes_walks_into_and_past_the_table(limit):
    ns = [1, 2, 2, 3, 10, 11, 12, 29, 30, 31, 96, 500, 996, 997, 1000, 1008, 1010]
    assert list(next_primes(ns, sieve(limit))) == [(n, trial_division_next_prime(n)) for n in ns]


def test_consecutive_pairs_examples(table_100k):
    assert consecutive_pairs(table_100k, 37, 48) == [(37, 41), (41, 43), (43, 47)]
    assert consecutive_pairs(table_100k, 37, 37) == []
    pairs = consecutive_pairs(table_100k, 100, 130)
    assert (113, 127) in pairs
    assert pairs[0] == (97, 101)


def test_consecutive_pairs_range_check(table_100k):
    with pytest.raises(ValueError):
        consecutive_pairs(table_100k, 0, 100001)


def test_pairs_are_adjacent_and_next_prime_consistent(table_100k):
    rng = random.Random(7)
    pairs = consecutive_pairs(table_100k, 1000, 99000)
    for p, q in rng.sample(pairs, 50):
        assert not any(trial_division_is_prime(n) for n in range(p + 1, q))
        assert next_prime(p, table_100k) == q


def test_table_membership(table_100k):
    assert 99991 in table_100k
    assert 99987 not in table_100k  # divisible by 3
    assert isinstance(table_100k, PrimeTable)
