"""Prime generation and consecutive-prime iteration.

One segmented stream, `iter_primes`, produces the primes of a range in
increasing order.  It sieves one window at a time, starting a few hundred
integers wide and doubling up to SEGMENT_SIZE, so it holds one window plus
the base primes up to the square root of the window's end, and taking a
single prime (`next_prime`) sieves only a few hundred integers.  One loop,
`_mark_segment`, marks composites, keeping a flag for each odd integer of
its window only and giving 2 on its own.  The base primes up to a
power-of-two bound are the stream itself from 2 to that bound, collected
once per process as 8-byte integers, so a run of lookups (a descent chain)
sieves its base once.  `sieve` materialises the stream into a `PrimeTable`
of every prime up to its limit, for the scans that index consecutive pairs.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cache
from itertools import chain, compress, pairwise
from math import isqrt

SEGMENT_SIZE = 1 << 16
# Width of a stream's first window.  The largest gap between primes below
# 10^6 is 114 (after 492113), so one window almost always holds the prime
# after any such n; the stream widens when it does not.
_FIRST_WINDOW = 256


@dataclass(frozen=True)
class PrimeTable:
    """All primes <= limit, strictly increasing."""

    limit: int
    primes: tuple[int, ...]

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


@cache
def _base_primes(n: int) -> array:
    """Every prime <= n, collected from iter_primes as 8-byte integers."""
    return array("q", iter_primes(2, n))


def iter_primes(lo: int = 2, hi: int | None = None) -> Iterator[int]:
    """Every prime p with lo <= p <= hi in increasing order; with hi None, every
    prime from lo on, without end.

    Windows start _FIRST_WINDOW wide and double up to SEGMENT_SIZE.  Each
    window takes the shared base primes up to the power of two above its
    end's square root, so the cache keys stay few; one ending below 9 takes
    none, as 3, 5 and 7 are prime, which ends _base_primes' recursion.
    """
    lo = max(lo, 2)
    width = min(_FIRST_WINDOW, SEGMENT_SIZE)
    while hi is None or lo <= hi:
        top = lo + width - 1 if hi is None else min(lo + width - 1, hi)
        base = _base_primes(1 << isqrt(top).bit_length()) if top >= 9 else ()
        yield from _mark_segment(base, lo, top)
        lo, width = top + 1, min(2 * width, SEGMENT_SIZE)


def sieve(limit: int) -> PrimeTable:
    """Table of all primes <= limit, collected from iter_primes.

    The table holds every prime it lists (~limit / ln(limit) ints); the sieve
    behind it works one segment of at most SEGMENT_SIZE integers at a time.
    """
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    return PrimeTable(limit, tuple(iter_primes(2, limit)))


def next_prime(n: int, table: PrimeTable | None = None) -> int:
    """Smallest prime strictly greater than n.

    Uses the table when the answer is inside it, otherwise takes the first
    prime of a stream started at n + 1.
    """
    if n < 1:
        raise ValueError("next_prime requires n >= 1")
    if table is not None and n < table.limit:
        i = bisect_right(table.primes, n)
        if i < len(table.primes):
            return table.primes[i]
    return next(iter_primes(n + 1))


def consecutive_pairs(table: PrimeTable, low: int, high: int) -> list[tuple[int, int]]:
    """All adjacent prime pairs (p, q) with low < q <= high, in order."""
    if high > table.limit:
        raise ValueError(f"range end {high} exceeds the table limit {table.limit}")
    ps = table.primes
    start = max(bisect_right(ps, low), 1)
    return list(pairwise(ps[start - 1 : bisect_right(ps, high)]))
