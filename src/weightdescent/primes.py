"""Prime generation and consecutive-prime iteration.

A segmented sieve keeps memory flat while producing every prime up to the
requested limit; `next_prime` keeps sieving past the table so callers near
the limit never see an error.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from math import isqrt

SEGMENT_SIZE = 1 << 16


@dataclass(frozen=True)
class PrimeTable:
    """All primes <= limit, strictly increasing."""

    limit: int
    primes: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.primes)

    def __contains__(self, n: int) -> bool:
        i = bisect_right(self.primes, n)
        return i > 0 and self.primes[i - 1] == n


def _simple_sieve(limit: int) -> list[int]:
    # plain sieve, used for base primes up to sqrt(limit)
    if limit < 2:
        return []
    flags = bytearray(b"\x01") * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            start = p * p
            flags[start :: p] = b"\x00" * ((limit - start) // p + 1)
    return [i for i, f in enumerate(flags) if f]


def _mark_segment(base: list[int], lo: int, hi: int) -> list[int]:
    """Primes in [lo, hi]; base holds every prime up to isqrt(hi), and lo > isqrt(hi)."""
    flags = bytearray(b"\x01") * (hi - lo + 1)
    for p in base:
        start = max(p * p, ((lo + p - 1) // p) * p)
        if start > hi:
            continue
        flags[start - lo :: p] = b"\x00" * ((hi - start) // p + 1)
    return [i + lo for i, f in enumerate(flags) if f]


def sieve(limit: int, segment_size: int = SEGMENT_SIZE) -> PrimeTable:
    """Table of all primes <= limit (segmented, memory O(segment_size))."""
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    if limit < 2:
        return PrimeTable(limit, ())
    root = isqrt(limit)
    base = _simple_sieve(root)
    primes = list(base)
    for lo in range(root + 1, limit + 1, segment_size):
        primes.extend(_mark_segment(base, lo, min(lo + segment_size - 1, limit)))
    return PrimeTable(limit, tuple(primes))


def next_prime(n: int, table: PrimeTable | None = None) -> int:
    """Smallest prime strictly greater than n.

    Uses the table when the answer is inside it, otherwise sieves further
    segments instead of failing.
    """
    if n < 1:
        raise ValueError("next_prime requires n >= 1")
    if table is not None and n < table.limit:
        i = bisect_right(table.primes, n)
        if i < len(table.primes):
            return table.primes[i]
    lo = n + 1
    while True:
        hi = lo + SEGMENT_SIZE - 1
        root = isqrt(hi)
        base = _simple_sieve(root)
        found = [p for p in base if p >= lo] or _mark_segment(base, max(lo, root + 1), hi)
        if found:
            return found[0]
        lo = hi + 1


def next_primes(ns: Iterable[int], table: PrimeTable) -> Iterator[tuple[int, int]]:
    """(n, next_prime(n, table)) for each n of an ascending sequence.

    One pointer walks table.primes forward; past the table's end next_prime
    sieves further, once per prime reached.  While n stays below the last
    prime found, that prime is still the smallest one above n.
    """
    ps = table.primes
    i, end = 0, len(ps)
    p = 0
    for n in ns:
        if p <= n:
            while i < end and ps[i] <= n:
                i += 1
            p = ps[i] if i < end else next_prime(n, table)
        yield n, p


def consecutive_pairs(table: PrimeTable, low: int, high: int) -> list[tuple[int, int]]:
    """All adjacent prime pairs (p, q) with low < q <= high, in order."""
    if high > table.limit:
        raise ValueError(f"range end {high} exceeds the table limit {table.limit}")
    ps = table.primes
    out = []
    start = max(bisect_right(ps, low), 1)
    for j in range(start, len(ps)):
        q = ps[j]
        if q > high:
            break
        out.append((ps[j - 1], q))
    return out
