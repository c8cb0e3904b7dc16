"""The weight-reduction recipe and the induction audit built on it.

For an even weight k (k = 10 or k >= 16) pick the smallest usable prime
p > k, set d = gcd(p-1, k-2) and m = (p-1)/d, choose the halfway twist
exponent t, and reduce to the two candidate weights dt+2 and p+1-dt.  One
kernel runs this recipe for every caller, over a range of weights a prime
gap at a time.  It checks in integers the two facts of a step that can fail,
an admissible twist exponent and both candidates below k; the other
invariants hold by construction (see _recipes).  As both candidates are
below k, a weight is settled once both children are, so the audit is one
ascending sweep: given a depth byte per weight, the kernel itself settles
each weight, checks its k > 36 inequalities and lists its skips and
failures, with no call per step.  A stored graph's steps get a depth pass
of their own, with no inequality checks.  Within a prime gap a step depends
on k only through d, so the kernel runs the recipe once per (gap, d) class
and copies a clean class's depth byte to its later weights.
No step object is formed except along the longest chain, the audit holds no
table of primes, and a step given no table, like the kernel's skip past a
prime, takes its next prime from primes.is_prime, tried above k.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import cache
from math import gcd

from .numeric import RATIO_BOUND
from .primes import PrimeTable, iter_primes, next_prime

BASE_WEIGHTS = frozenset({2, 4, 6, 8, 12, 14})

CHAIN_POLICIES = ("hi-branch", "lo-branch", "longest")


class DescentError(Exception):
    """A reduction step could not be formed or violated its invariants."""


def _check_weight(k: int) -> None:
    if k % 2 != 0 or k <= 0:
        raise ValueError(f"weight must be a positive even integer, got {k}")
    if k in BASE_WEIGHTS:
        raise ValueError(f"weight {k} is a base case or below the recipe's range")


def choose_t(m: int) -> int | None:
    """Twist exponent near m/2: (m+1)/2, m/2+2 or m/2+1 by the class of m.

    Valid only when gcd(t, m) = 1 and 1 < t < m-1 (t = 1 would reproduce the
    original exponent orbit and t = m-1 its complex conjugate); None when m
    admits no such t, which is m <= 4 and m = 6.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if m % 2 == 1:
        t = (m + 1) // 2
    elif m % 4 == 2:
        t = m // 2 + 2
    else:
        t = m // 2 + 1
    return t if gcd(t, m) == 1 and 1 < t < m - 1 else None


@dataclass(frozen=True, slots=True)
class ReductionStep:
    """One application of the recipe at weight k, fully checked."""

    k: int
    p: int
    d: int
    m: int
    t: int
    dt: int
    k_hi: int
    k_lo: int
    prime_skips: int
    matches_paper: bool | None = None


def _recipes(lo: int, hi: int, p: int, out: list[tuple], level: bytearray | None = None) -> None:
    """Run the checked recipe at every even k in [lo, hi], ascending; p is
    the smallest prime above lo.  With no level, append each step (k, p,
    skips, d, m, t, dt, k_hi, k_lo) to out.  With a level, settle each weight
    in it and append to out only what the audit reports, in ascending k:
    (k, "skip", skips), (k, "m", m), (k, "hi", p, k_hi) and (k, "lo", p, k_lo).

    Every even k between consecutive primes q < p has p as its next prime, so
    the weights are taken a gap at a time from one lazy stream of the primes
    in (p, 2 hi].  Primes whose m admits no twist exponent are skipped.
    DescentError is raised by the two checks that can fail, choose_t's
    contract and k_hi, k_lo < k.
    The other invariants hold by construction, one lemma each (n = p-1):
    d = gcd(n, k-2), m*d = n, dt = d*t, k_hi and k_lo hold by assignment.
    k_hi, k_lo are even weights in [6, k), so their bytes are read unchecked:
    p odd and k even make d even, 1 < t < m-1 gives 2d <= dt <= n-2d.
    The twist moves the exponent: the twist check gives 0 < dt < n and k < p
    gives 0 < k-2 < n, so dt = ±(k-2) mod n means k_hi = k or k_lo = k.

    Settling k: level[w // 2] is 0 while weight w is unsettled and 1 + its
    chain depth once settled (a byte: a depth above 254 raises instead of
    wrapping).  k is settled, with 1 + the larger child byte, once both
    children are.  Each k > 36 is checked for m > 6 and both exact ratios
    p/k_hi and p/k_lo above RATIO_BOUND; a failure or a skip goes to out.

    The weights of a gap that share d form a class.  A step is clean when it
    skips no prime, settles k and fails no check; its class's later weights
    k' then get level[k' // 2] = k's byte, with no recipe run.  Any other
    class is run and settled at each of its weights, so out sees every
    weight that skips or fails, in ascending k.  With no level no class is
    clean, and every weight is run.  Three facts make the copy exact:
    - In a gap with top prime p, the step depends on k only through d: m =
      n/d, t = choose_t(m), dt, k_hi = dt+2 and k_lo = p+1-dt, so m > 6 and
      both ratios p/k_hi, p/k_lo too.  A clean step took p itself, so every
      weight of its class does (choose_t(m) is not None).  Whether k > 36 is
      fixed in a gap as well, since 37 is prime.
    - The checks at the class's smallest k cover every larger k: the twist
      check reads t and m alone, and k_hi, k_lo < k_first < k'.
    - The byte read at the class's first weight is final: both children lie
      below k_first, and the kernel writes only level[k // 2] at the current
      weight of an ascending walk, so the children's bytes cannot change by
      the time k' is reached, and the same two bytes would be read at k'.
    """
    num, den = RATIO_BOUND.as_integer_ratio()
    # The prime after a top is asked for only when that top is below hi, and
    # by Bertrand's postulate it lies below 2 * top, so below 2 * hi.
    primes = iter_primes(p + 1, 2 * hi)
    top, k = p, lo
    while True:
        settled: dict[int, int] = {}  # d -> depth byte of a clean class of this gap
        n = top - 1
        for k in range(k, min(top, hi + 1), 2):
            p, q, skips = top, n, 0
            # Ends: once p - 1 > 6(k - 2), m >= (p - 1)/(k - 2) > 6, and every
            # m >= 7 is admissible in choose_t.
            while True:
                d = gcd(q, k - 2)
                if not skips:
                    byte = settled.get(d)
                    if byte:
                        level[k // 2] = byte
                        break
                m = q // d
                t = choose_t(m)
                if t is None:
                    skips += 1
                    p = next_prime(p)
                    q = p - 1
                    continue
                dt = d * t
                k_hi, k_lo = dt + 2, p + 1 - dt
                if gcd(t, m) != 1 or not (1 < t < m - 1):
                    raise DescentError(f"invalid twist exponent t = {t} at k = {k}")
                if k_hi >= k or k_lo >= k:
                    raise DescentError(f"non-decreasing step at k = {k}")
                if level is None:
                    out.append((k, p, skips, d, m, t, dt, k_hi, k_lo))
                    break
                byte = 0
                l_hi, l_lo = level[k_hi // 2], level[k_lo // 2]
                if l_hi and l_lo:
                    byte = level[k // 2] = 1 + (l_hi if l_hi >= l_lo else l_lo)
                if skips:
                    out.append((k, "skip", skips))
                    byte = 0
                if k > 36:
                    if m <= 6:
                        out.append((k, "m", m))
                        byte = 0
                    if den * p <= num * k_hi:
                        out.append((k, "hi", p, k_hi))
                        byte = 0
                    if den * p <= num * k_lo:
                        out.append((k, "lo", p, k_lo))
                        byte = 0
                if byte:
                    settled[d] = byte
                break
        k = top + 1
        if k > hi:
            return
        top = next(primes)


def _kernel_step(k: int, table: PrimeTable | None = None) -> tuple[int, ...]:
    """The kernel's step (k, p, skips, d, m, t, dt, k_hi, k_lo) at weight k."""
    _check_weight(k)
    steps: list[tuple[int, ...]] = []
    _recipes(k, k, next_prime(k, table), steps)
    [step] = steps
    return step


def _as_step(step: tuple[int, ...], matches_paper: bool | None = None) -> ReductionStep:
    k, p, skips, d, m, t, dt, k_hi, k_lo = step
    return ReductionStep(k, p, d, m, t, dt, k_hi, k_lo, skips, matches_paper)


def reduction_step(k: int, table: PrimeTable | None = None) -> ReductionStep:
    """Fully populated, validated reduction step at weight k.

    The first prime above k comes from the table when it holds it, otherwise
    from primes.next_prime's single-prime tests just above k.
    """
    return _as_step(_kernel_step(k, table))


def _reducible_runs(max_k: int) -> Iterator[tuple[int, int]]:
    """The maximal runs [lo, hi] of even weights <= max_k outside BASE_WEIGHTS."""
    lo = 2
    for base in sorted(w for w in BASE_WEIGHTS if w <= max_k) + [max_k + 2]:
        if lo < base:
            yield lo, base - 2
        lo = base + 2


# Published values of the twelve hand-checkable rows.  For k = 34 and 36
# only p and the two candidate weights were printed.
_PUBLISHED_ROWS: dict[int, tuple] = {
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
    34: (37, None, None, None, None, 22, 18),
    36: (37, None, None, None, None, 22, 16),
}


def reference_table() -> list[ReductionStep]:
    """The 12 rows for k = 10 and 16..36, each flagged against the published
    values (matches_paper False marks a divergence).  The kernel makes them
    one run of weights at a time, [10, 10] and [16, 36]."""
    steps: list[tuple[int, ...]] = []
    for lo, hi in _reducible_runs(max(_PUBLISHED_ROWS)):
        _recipes(lo, hi, next_prime(lo), steps)
    rows = []
    for published, step in zip(_PUBLISHED_ROWS.values(), steps, strict=True):
        _, p, _, d, m, t, dt, k_hi, k_lo = step
        matches = all(
            expected is None or expected == actual
            for expected, actual in zip(published, (p, d, m, t, dt, k_hi, k_lo))
        )
        rows.append(_as_step(step, matches))
    return rows


@dataclass(frozen=True)
class DescentGraph:
    """Directed graph on even weights: k -> (k_hi, k_lo) for non-base nodes."""

    max_k: int
    steps: dict[int, ReductionStep]

    @property
    def nodes(self) -> range:
        return range(2, self.max_k + 1, 2)


def _check_max_k(max_k: int) -> None:
    if max_k < 14 or max_k % 2 != 0:
        raise ValueError("max_k must be an even integer >= 14")


def build_graph(max_k: int, table: PrimeTable | None = None) -> DescentGraph:
    """Graph over all even weights <= max_k, one validated reduction_step per
    non-base node (memoized: each weight is reduced exactly once).

    Each step finds its own prime, in the table when given, so the graph is
    a route to the audit's verdict independent of the audit's prime stream.
    """
    _check_max_k(max_k)
    return DescentGraph(max_k=max_k, steps={
        k: reduction_step(k, table)
        for lo, hi in _reducible_runs(max_k)
        for k in range(lo, hi + 1, 2)
    })


@dataclass(frozen=True)
class TerminationReport:
    terminates: bool
    longest_chain_length: int
    longest_chain_path: tuple[int, ...]
    weights_with_skips: tuple[int, ...]
    skip_histogram: dict[int, int]
    node_count: int
    edge_count: int


@dataclass(frozen=True)
class AuditReport:
    """Termination plus the exhaustive per-step inequality checks."""

    max_k: int
    termination: TerminationReport
    ratio_failures: tuple[tuple[int, str, int, int], ...]
    m_bound_failures: tuple[int, ...]
    skip_failures: tuple[int, ...]
    unexpected_skippers: tuple[int, ...]
    passed: bool


def _base_level(max_k: int) -> bytearray:
    """Depth bytes of the weights <= max_k, only the base weights settled."""
    level = bytearray(max_k // 2 + 1)
    for w in BASE_WEIGHTS:
        level[w // 2] = 1
    return level


def _termination(
    level: bytearray, skipped: list[tuple[int, int]], edges: int,
    step_at: Callable[[int], ReductionStep],
) -> TerminationReport:
    """The termination report of a finished depth pass over `edges` steps:
    level as _recipes settles it, skipped the (k, skips) of every step that
    skipped a prime, in ascending k.  Termination needs every weight settled;
    the longest chain is walked down from the first deepest weight through
    step_at."""
    histogram = {0: edges - len(skipped)} if edges > len(skipped) else {}
    for _, skips in skipped:
        histogram[skips] = histogram.get(skips, 0) + 1
    top = max(level)
    path: list[int] = []
    if top > 1:
        node = 2 * level.index(top)
        path.append(node)
        while level[node // 2] > 1:
            step = step_at(node)
            hi, lo = step.k_hi, step.k_lo
            node = hi if level[hi // 2] >= level[lo // 2] else lo
            path.append(node)
    return TerminationReport(
        terminates=level.find(0, 1) == -1,
        longest_chain_length=top - 1,
        longest_chain_path=tuple(path),
        weights_with_skips=tuple(k for k, _ in skipped),
        skip_histogram=histogram,
        node_count=len(level) - 1,
        edge_count=edges,
    )


def verify_termination(graph: DescentGraph) -> TerminationReport:
    """Walk every node down to the base set and report chain statistics: one
    depth pass over the graph's stored steps in ascending k, settling each
    as _recipes does, with no inequality checks.  A child that is not an
    even weight in [2, k) is read as unsettled, so k stays unsettled and its
    skips still count."""
    steps = graph.steps
    level = _base_level(graph.max_k)
    skipped = []
    for s in map(steps.__getitem__, sorted(steps)):
        if s.prime_skips:
            skipped.append((s.k, s.prime_skips))
        l_hi, l_lo = (level[c // 2] if c % 2 == 0 and 2 <= c < s.k else 0 for c in (s.k_hi, s.k_lo))
        if l_hi and l_lo:
            level[s.k // 2] = 1 + (l_hi if l_hi >= l_lo else l_lo)
    return _termination(level, skipped, len(steps), steps.__getitem__)


def audit(max_k: int) -> AuditReport:
    """Full descent audit up to max_k, in one ascending sweep over the weights.

    Requires, for every k > 36: no skipped primes, m > 6, and both exact
    ratios p/k_hi and p/k_lo above RATIO_BOUND; and for the whole graph:
    termination with 32 as the only weight needing a skipped prime.  The
    kernel takes each run of reducible weights a prime gap at a time from one
    stream of primes, runs the recipe once per (gap, d) class, settles each
    weight's depth byte in level and checks it, and lists the skips and
    failures; the report is built from those lists.  terminates already
    follows from the kernel's descent check and its [6, k) lemma: both
    children of each k are even weights below k, so by induction on k every
    weight is settled when the sweep reaches it.  Reading every byte of
    level is kept as a cross-check.  No step object is formed
    except the longest chain's, each taking its prime from single-prime tests
    above its weight.  Memory is the depth byte per weight and one window.
    """
    _check_max_k(max_k)
    runs = list(_reducible_runs(max_k))
    level = _base_level(max_k)
    found: list[tuple] = []
    for lo, hi in runs:
        _recipes(lo, hi, next_prime(lo), found, level)
    skipped = [(k, skips) for k, kind, skips, *_ in found if kind == "skip"]
    edges = sum((hi - lo) // 2 + 1 for lo, hi in runs)
    term = _termination(level, skipped, edges, reduction_step)
    ratio_failures = tuple(f for f in found if f[1] in ("hi", "lo"))
    m_bound_failures = tuple(k for k, kind, *_ in found if kind == "m")
    skippers = term.weights_with_skips
    unexpected = tuple(k for k in skippers if k != 32)
    # every skip failure (k > 36) is also unexpected (k != 32)
    passed = term.terminates and not (ratio_failures or m_bound_failures or unexpected)
    return AuditReport(
        max_k=max_k,
        termination=term,
        ratio_failures=ratio_failures,
        m_bound_failures=m_bound_failures,
        skip_failures=tuple(k for k in skippers if k > 36),
        unexpected_skippers=unexpected,
        passed=passed,
    )


def chain(k: int, policy: str = "hi-branch") -> tuple[list[ReductionStep], list[int]]:
    """A concrete descent path from k to the base set under a branch policy.

    Returns the steps taken and the weights walked, k first and a base
    weight last.  Base weights give no steps and the walk [k].
    """
    if policy not in CHAIN_POLICIES:
        raise ValueError(f"policy must be one of {CHAIN_POLICIES}")
    if k in BASE_WEIGHTS:
        return [], [k]
    # kernel tuples, (k, p, skips, d, m, t, dt, k_hi, k_lo): the depths of
    # longest read every weight below k, and only the path's steps are built
    step_of = cache(_kernel_step)

    @cache
    def depth(w: int) -> int:
        if w in BASE_WEIGHTS:
            return 0
        hi, lo = step_of(w)[-2:]
        return 1 + max(depth(hi), depth(lo))

    path = []
    walked = [k]
    node = k
    while node not in BASE_WEIGHTS:
        s = step_of(node)
        path.append(_as_step(s))
        hi, lo = s[-2:]
        if policy == "hi-branch":
            node = hi
        elif policy == "lo-branch":
            node = lo
        else:
            node = hi if depth(hi) >= depth(lo) else lo
        walked.append(node)
    return path, walked
