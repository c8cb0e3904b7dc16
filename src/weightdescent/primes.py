"""Prime generation, consecutive-prime iteration and single-prime tests.

One segmented stream, `iter_primes`, produces the primes of a closed range
in increasing order.  It sieves one window of SEGMENT_SIZE integers at a
time, so it holds one window plus the base primes up to the square root of
the window's end.  One loop, `_mark_segment`, marks composites, keeping a
flag for each odd integer of its window only and giving 2 on its own.  The
process keeps one array, `_PRIMES`, of every prime up to a covered bound,
8 bytes a prime, and beside it one string, `_GAPS`, of the gaps between
consecutive primes of the array, one character a gap; both grow together,
only past that bound, and only through the stream, so no integer is sieved
twice to fill them.  Every stream takes its base primes from the array,
and `sieve` grows both to its limit and cuts a `PrimeTable` from them, an
array slice of the primes up to that limit and a string slice of their
gaps, for the scans that index consecutive pairs.  The stream is the one
source of prime ranges; `is_prime`, a strong probable-prime test proven
deterministic below psi13 ~ 3.3 * 10^24, is the one test of a single
number, and `next_prime` searches with it, so a lookup costs a few modular
powers for each candidate that survives trial division, whatever the size
of n.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import chain, compress, count, pairwise
from math import gcd, isqrt
from operator import sub

SEGMENT_SIZE = 1 << 16

# The 13 prime bases of is_prime, and psi_t (OEIS A014233): the least odd
# composite that is a strong probable prime to each of the first t bases.
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051,
    3825123056546413051, 3825123056546413051, 318665857834031151167461,
    3317044064679887385961981,
)
_BASE_PRODUCT = 304250263527210  # 2 * 3 * 5 * ... * 41


class CannotCertifyError(Exception):
    """A number passed all 13 strong probable-prime tests at or beyond
    psi13, where they prove nothing: neither prime nor composite is known."""


@dataclass(frozen=True)
class PrimeTable:
    """All primes <= limit, strictly increasing, and their gaps: character i
    of gaps is chr(primes[i+1] - primes[i])."""

    limit: int
    primes: array  # array('q'), 8 bytes a prime
    gaps: str

    @property
    def count(self) -> int:
        return len(self.primes)


def _mark_segment(base: Sequence[int], lo: int, hi: int) -> Iterator[int]:
    """Primes in [lo, hi], ascending; lo >= 2 and base holds every odd prime up
    to isqrt(hi), ascending.

    Flag i stands for the odd integer first + 2i, so a window keeps one flag
    per odd integer and 2 is yielded on its own.  An odd prime p marks its
    odd multiples from the first at or above max(lo, p*p), one flag in p.
    """
    first = lo | 1
    flags = bytearray(b"\x01") * ((hi - first) // 2 + 1)
    for p in base:
        if p * p > hi:
            break
        if p == 2:
            continue
        start = p * p if p * p >= lo else lo + -lo % p
        if not start & 1:
            start += p
        if start <= hi:
            flags[(start - first) // 2 :: p] = b"\x00" * ((hi - start) // (2 * p) + 1)
    odd = compress(range(first, hi + 1, 2), flags)
    return chain((2,), odd) if lo <= 2 <= hi else odd


# Every prime <= _covered, ascending: the base primes of every stream and
# the source of every table; and the gaps between them, character i being
# chr(_PRIMES[i+1] - _PRIMES[i]).  They only grow, together, by _grow.
_PRIMES = array("q")
_GAPS = ""
_covered = 1
# join lists the strings it joins, so _grow joins the new gaps _GAP_RUN at a
# time, over views of the array: a growth holds a 32 KB list and the new
# gaps twice, not a list of them all (8 bytes a gap) and copies of the array
_GAP_RUN = 1 << 12


def _grow(n: int) -> None:
    """Extend _PRIMES to every prime <= n, sieving only past _covered, and
    _GAPS with the gaps that the new primes close.

    Each stretch ends below (_covered + 1)^2, so the array already holds the
    base primes of every window in it and the stream never grows the array
    from inside a growth: from 1 the stretches end at 3, 15, 255, 65535 and
    then at n itself, for any n below 2^32.
    """
    global _GAPS, _covered
    while _covered < n:
        top = min(n, (_covered + 1) ** 2 - 1)
        old = max(len(_PRIMES), 1)
        _PRIMES.extend(iter_primes(_covered + 1, top))
        with memoryview(_PRIMES) as view:
            _GAPS += "".join(
                "".join(map(chr, map(sub, view[i : i + _GAP_RUN], view[i - 1 : i - 1 + _GAP_RUN])))
                for i in range(old, len(view), _GAP_RUN)
            )
        _covered = top


def iter_primes(lo: int, hi: int) -> Iterator[int]:
    """Every prime p with lo <= p <= hi in increasing order, lazily: a window
    is sieved only when the one before it is used up.

    Every window is SEGMENT_SIZE wide and takes its base primes from
    _PRIMES, first grown to the square root of the window's end.
    """
    lo = max(lo, 2)
    while lo <= hi:
        top = min(lo + SEGMENT_SIZE - 1, hi)
        _grow(isqrt(top))
        yield from _mark_segment(_PRIMES, lo, top)
        lo = top + 1


def sieve(limit: int) -> PrimeTable:
    """Table of all primes <= limit and their gaps: _PRIMES and _GAPS, grown
    to limit if they fall short, cut at limit.

    The table holds a copy of the array's first ~limit / ln(limit) primes,
    8 bytes a prime, and of their gaps, one byte a gap, each cut in one
    slice; the sieve that grows the array works one segment of at most
    SEGMENT_SIZE integers at a time.
    """
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    _grow(limit)
    n = bisect_right(_PRIMES, limit)
    return PrimeTable(limit, _PRIMES[:n], _GAPS[: max(n - 1, 0)])


def is_prime(n: int) -> bool:
    """Whether n is prime, proven for every n below psi13.

    n is trial-divided by the 13 prime bases 2..41 (past them, n < 43^2 is
    prime), then tested for a strong probable prime to those bases in
    order.  A failed test proves n composite.  Once n passes the first t
    bases and n < psi_t, the least odd composite passing them all, n is
    prime.  psi_1..psi_8 are tabulated in Jaeschke, "On strong pseudoprimes
    to several bases" (Math. Comp. 61, 1993), and psi_1..psi_13 in Sorenson
    and Webster, "Strong pseudoprimes to twelve prime bases" (Math. Comp.
    86, 2017, arXiv:1509.00864), who proved psi_12 and psi_13.  An n >=
    psi13 that passes all 13 raises CannotCertifyError.
    """
    if n <= _BASES[-1]:
        return n in _BASES
    if gcd(n, _BASE_PRODUCT) != 1:
        return False
    if n < 43 * 43:
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a, psi in zip(_BASES, _PSI):
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < psi:
            return True
    raise CannotCertifyError(
        f"cannot certify {n} as prime: it passes all {len(_BASES)} strong "
        f"probable-prime tests, which prove nothing at or beyond psi13 = {_PSI[-1]}"
    )


def next_prime(n: int, table: PrimeTable | None = None) -> int:
    """Smallest prime strictly greater than n.

    Uses the table when the answer is inside it, otherwise the first n' > n
    with is_prime(n'), trying odd n' only past 2.
    """
    if n < 1:
        raise ValueError("next_prime requires n >= 1")
    if table is not None and n < table.limit:
        i = bisect_right(table.primes, n)
        if i < len(table.primes):
            return table.primes[i]
    if n < 2:
        return 2
    return next(q for q in count((n + 1) | 1, 2) if is_prime(q))


def consecutive_pairs(table: PrimeTable, low: int, high: int) -> list[tuple[int, int]]:
    """All adjacent prime pairs (p, q) with low < q <= high, in order."""
    if high > table.limit:
        raise ValueError(f"range end {high} exceeds the table limit {table.limit}")
    ps = table.primes
    start = max(bisect_right(ps, low), 1)
    return list(pairwise(ps[start - 1 : bisect_right(ps, high)]))
