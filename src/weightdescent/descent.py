"""The weight-reduction recipe and the induction audit built on it.

For an even weight k (k = 10 or k >= 16) pick the smallest usable prime
p > k, set d = gcd(p-1, k-2) and m = (p-1)/d, choose the halfway twist
exponent t, and reduce to the two candidate weights dt+2 and p+1-dt.  Both
are strictly smaller than k, so a weight is settled once both children are.
The audit is therefore one ascending pass over k that settles every weight
down to the base weights while holding one step at a time.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import asdict, dataclass, replace
from math import gcd

from .numeric import RATIO_BOUND
from .primes import PrimeTable, next_prime, sieve

BASE_WEIGHTS = frozenset({2, 4, 6, 8, 12, 14})

CHAIN_POLICIES = ("hi-branch", "lo-branch", "longest")


class DescentError(Exception):
    """A reduction step could not be formed or violated its invariants."""


class InadmissibleM(DescentError):
    """No valid twist exponent exists for this m."""


def _check_weight(k: int) -> None:
    if k % 2 != 0 or k <= 0:
        raise ValueError(f"weight must be a positive even integer, got {k}")
    if not (k == 10 or k >= 16):
        raise ValueError(f"weight {k} is a base case or below the recipe's range")


def choose_t(m: int) -> int:
    """Twist exponent near m/2: (m+1)/2, m/2+2 or m/2+1 by the class of m.

    Valid only when gcd(t, m) = 1 and 1 < t < m-1 (t = 1 would reproduce the
    original exponent orbit and t = m-1 its complex conjugate); raises
    InadmissibleM otherwise, e.g. for m <= 4 and m = 6.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if m % 2 == 1:
        t = (m + 1) // 2
    elif m % 4 == 2:
        t = m // 2 + 2
    else:
        t = m // 2 + 1
    if gcd(t, m) != 1 or not (1 < t < m - 1):
        raise InadmissibleM(f"inadmissible m: m = {m} gives t = {t}")
    return t


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

    def validate(self) -> None:
        k, p, d, m, t, dt = self.k, self.p, self.d, self.m, self.t, self.dt
        if d != gcd(p - 1, k - 2) or m * d != p - 1 or dt != d * t:
            raise DescentError(f"inconsistent arithmetic in step at k = {k}")
        if gcd(t, m) != 1 or not (1 < t < m - 1):
            raise DescentError(f"invalid twist exponent t = {t} at k = {k}")
        if self.k_hi != dt + 2 or self.k_lo != p + 1 - dt:
            raise DescentError(f"candidate weights mismatch at k = {k}")
        if self.k_hi % 2 or self.k_lo % 2:
            raise DescentError(f"odd candidate weight at k = {k}")
        if not (self.k_hi < k and self.k_lo < k):
            raise DescentError(f"non-decreasing step at k = {k}")
        if dt % (p - 1) in ((k - 2) % (p - 1), (2 - k) % (p - 1)):
            raise DescentError(f"twist reproduces the original exponent at k = {k}")

    def to_dict(self) -> dict:
        return asdict(self)


def select_prime(k: int, table: PrimeTable) -> tuple[int, int]:
    """Smallest prime p > k whose m admits a twist exponent.

    Returns (p, skips) where skips counts the rejected smaller primes.
    """
    _check_weight(k)
    skips = 0
    p = next_prime(k, table)
    # Ends: once p - 1 > 6(k - 2), m >= (p - 1)/(k - 2) > 6, and every m >= 7
    # is admissible in choose_t.
    while True:
        m = (p - 1) // gcd(p - 1, k - 2)
        try:
            choose_t(m)
            return p, skips
        except InadmissibleM:
            skips += 1
            p = next_prime(p, table)


def reduction_step(k: int, table: PrimeTable) -> ReductionStep:
    """Fully populated, validated reduction step at weight k."""
    p, skips = select_prime(k, table)
    d = gcd(p - 1, k - 2)
    m = (p - 1) // d
    t = choose_t(m)
    dt = d * t
    step = ReductionStep(
        k=k, p=p, d=d, m=m, t=t, dt=dt,
        k_hi=dt + 2, k_lo=p + 1 - dt, prime_skips=skips,
    )
    step.validate()
    return step


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

TABLE_WEIGHTS = (10, 16, 18, 20, 22, 24, 26, 28, 30, 32, 34, 36)


def published_row(k: int) -> tuple:
    return _PUBLISHED_ROWS[k]


def reference_table(table: PrimeTable | None = None) -> list[ReductionStep]:
    """The 12 rows for k = 10 and 16..36, each flagged against the published
    values (matches_paper False marks a divergence)."""
    if table is None:
        table = sieve(64)
    rows = []
    for k in TABLE_WEIGHTS:
        step = reduction_step(k, table)
        fields = (step.p, step.d, step.m, step.t, step.dt, step.k_hi, step.k_lo)
        matches = all(
            expected is None or expected == actual
            for expected, actual in zip(_PUBLISHED_ROWS[k], fields)
        )
        rows.append(replace(step, matches_paper=matches))
    return rows


@dataclass(frozen=True)
class DescentGraph:
    """Directed graph on even weights: k -> (k_hi, k_lo) for non-base nodes."""

    max_k: int
    steps: dict[int, ReductionStep]

    @property
    def nodes(self) -> range:
        return range(2, self.max_k + 1, 2)


def _graph_table(max_k: int, table: PrimeTable | None) -> PrimeTable:
    if max_k < 14 or max_k % 2 != 0:
        raise ValueError("max_k must be an even integer >= 14")
    return sieve(max_k + 512) if table is None else table


def _steps(max_k: int, table: PrimeTable) -> Iterator[ReductionStep]:
    """The validated step of every non-base weight <= max_k, ascending in k."""
    return (reduction_step(k, table) for k in range(10, max_k + 1, 2) if k not in BASE_WEIGHTS)


def build_graph(max_k: int, table: PrimeTable | None = None) -> DescentGraph:
    """Graph over all even weights <= max_k, one validated step per non-base
    node (memoized: each weight is reduced exactly once)."""
    table = _graph_table(max_k, table)
    return DescentGraph(max_k=max_k, steps={s.k: s for s in _steps(max_k, table)})


@dataclass(frozen=True)
class TerminationReport:
    terminates: bool
    longest_chain_length: int
    longest_chain_path: tuple[int, ...]
    weights_with_skips: tuple[int, ...]
    skip_histogram: dict[int, int]
    node_count: int
    edge_count: int

    def to_dict(self) -> dict:
        return {
            "terminates": self.terminates,
            "longest_chain_length": self.longest_chain_length,
            "longest_chain_path": list(self.longest_chain_path),
            "weights_with_skips": list(self.weights_with_skips),
            "skip_histogram": {str(k): v for k, v in sorted(self.skip_histogram.items())},
            "node_count": self.node_count,
            "edge_count": self.edge_count,
        }


def _fold(
    max_k: int, steps: Iterable[ReductionStep], step_at: Callable[[int], ReductionStep]
) -> TerminationReport:
    """Termination and chain statistics in one pass over steps ascending in k.

    level[w // 2] is 0 while weight w is unsettled and 1 + its chain depth
    once settled (a byte: a depth above 254 raises instead of wrapping).  Base
    weights start settled; a step settles k once both children are settled
    even weights in [2, k).  Termination needs every weight <= max_k settled.
    The longest chain is then walked down through step_at.
    """
    level = bytearray(max_k // 2 + 1)
    for w in BASE_WEIGHTS:
        level[w // 2] = 1
    histogram: dict[int, int] = {}
    skippers = []
    for step in steps:
        k, hi, lo, skips = step.k, step.k_hi, step.k_lo, step.prime_skips
        histogram[skips] = histogram.get(skips, 0) + 1
        if skips:
            skippers.append(k)
        if hi % 2 == 0 and lo % 2 == 0 and 2 <= hi < k and 2 <= lo < k:
            l_hi, l_lo = level[hi // 2], level[lo // 2]
            if l_hi and l_lo:
                level[k // 2] = 1 + max(l_hi, l_lo)

    # walk down from the first deepest node to a base weight (level 1)
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
        weights_with_skips=tuple(skippers),
        skip_histogram=histogram,
        node_count=max_k // 2,
        edge_count=sum(histogram.values()),
    )


def verify_termination(graph: DescentGraph) -> TerminationReport:
    """Walk every node down to the base set and report chain statistics."""
    steps = graph.steps
    return _fold(graph.max_k, (steps[k] for k in sorted(steps)), steps.__getitem__)


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

    def to_dict(self) -> dict:
        return {
            "max_k": self.max_k,
            "termination": self.termination.to_dict(),
            "ratio_failures": [list(f) for f in self.ratio_failures],
            "m_bound_failures": list(self.m_bound_failures),
            "skip_failures": list(self.skip_failures),
            "unexpected_skippers": list(self.unexpected_skippers),
            "passed": self.passed,
        }


def audit(max_k: int, table: PrimeTable | None = None) -> AuditReport:
    """Full descent audit up to max_k, in one ascending pass over the weights.

    Requires, for every k > 36: no skipped primes, m > 6, and both exact
    ratios p/k_hi and p/k_lo above RATIO_BOUND; and for the whole graph:
    termination with 32 as the only weight needing a skipped prime.  One
    step is held at a time; the longest chain's steps are formed again.
    """
    table = _graph_table(max_k, table)
    num, den = RATIO_BOUND.numerator, RATIO_BOUND.denominator
    ratio_failures, m_bound_failures, skip_failures = [], [], []

    def checked() -> Iterator[ReductionStep]:
        for step in _steps(max_k, table):
            if step.k > 36:
                if step.prime_skips != 0:
                    skip_failures.append(step.k)
                if step.m <= 6:
                    m_bound_failures.append(step.k)
                if den * step.p <= num * step.k_hi:
                    ratio_failures.append((step.k, "hi", step.p, step.k_hi))
                if den * step.p <= num * step.k_lo:
                    ratio_failures.append((step.k, "lo", step.p, step.k_lo))
            yield step

    term = _fold(max_k, checked(), lambda k: reduction_step(k, table))
    unexpected = tuple(k for k in term.weights_with_skips if k != 32)
    passed = term.terminates and not (
        ratio_failures or m_bound_failures or skip_failures or unexpected
    )
    return AuditReport(
        max_k=max_k,
        termination=term,
        ratio_failures=tuple(ratio_failures),
        m_bound_failures=tuple(m_bound_failures),
        skip_failures=tuple(skip_failures),
        unexpected_skippers=unexpected,
        passed=passed,
    )


def chain(
    k: int, policy: str = "hi-branch", table: PrimeTable | None = None
) -> tuple[list[ReductionStep], list[int]]:
    """A concrete descent path from k to the base set under a branch policy.

    Returns the steps taken and the weights walked, k first and a base
    weight last.  Base weights give no steps and the walk [k].
    """
    if policy not in CHAIN_POLICIES:
        raise ValueError(f"policy must be one of {CHAIN_POLICIES}")
    if k in BASE_WEIGHTS:
        return [], [k]
    _check_weight(k)
    if table is None:
        table = sieve(k + 512)
    memo: dict[int, ReductionStep] = {}

    def step_of(w: int) -> ReductionStep:
        if w not in memo:
            memo[w] = reduction_step(w, table)
        return memo[w]

    depth_memo: dict[int, int] = {}

    def depth(w: int) -> int:
        if w in BASE_WEIGHTS:
            return 0
        if w not in depth_memo:
            s = step_of(w)
            depth_memo[w] = 1 + max(depth(s.k_hi), depth(s.k_lo))
        return depth_memo[w]

    path = []
    walked = [k]
    node = k
    while node not in BASE_WEIGHTS:
        s = step_of(node)
        path.append(s)
        if policy == "hi-branch":
            node = s.k_hi
        elif policy == "lo-branch":
            node = s.k_lo
        else:
            node = s.k_hi if depth(s.k_hi) >= depth(s.k_lo) else s.k_lo
        walked.append(node)
    return path, walked
