"""What each per-layer metric should move, which `BENCHMARK.json` has no field for.

Names, units and directions of every metric, and the workloads, are read
from `BENCHMARK.json` at the repository root.
"""

from __future__ import annotations

# Request batches the traced run replays.  The character campaigns
# (`char-suite`) are not an end-to-end workload: their run-to-run spread on a
# 2-vCPU host whose speed drifts by ~1.5x over minutes was ~0.2, too close to
# the largest allowed bound of 0.25 to gate later changes.
LAYER_BATCHES = ("audit-1e6", "char-suite", "queries")

# The sixteen groups of `weightdescent.charconj.SUITE_NAMES`, in order.
SUITE_NAMES = tuple(f"C{n}" for n in range(1, 13)) + ("S3", "S4", "D4", "Q8")

_AUDIT = "audit-1e6 wall_s/items_per_s"
_QUERIES = "queries query_p50_ms/query_p95_ms"
_CHAR = "char demo latency in queries (campaigns: traced char-suite replay only); audit-1e6 unchanged"

# per-layer metric -> the end-to-end metric and workload it should move
MOVES = {
    "primes.sieve_s": _QUERIES + " (~1% of audit-1e6 wall_s)",
    "primes.sieve_calls": _QUERIES,
    "primes.primes_listed": _QUERIES,
    "primes.consecutive_pairs_s": _QUERIES,
    "primes.pairs": _QUERIES,
    "primes.sieve_share": _QUERIES,
    "descent.build_graph_s": _AUDIT,
    "descent.steps_built": _AUDIT,
    "descent.graph_bytes_per_weight": "audit-1e6 peak_rss_mb",
    "descent.verify_termination_s": _AUDIT,
    "descent.audit_s": _AUDIT,
    "descent.reduction_step_us": _QUERIES,
    "descent.chain_s": _QUERIES,
    "gaps.m_bound_check_s": _QUERIES + " (audit-1e6 if folded into the audit)",
    "gaps.m_bound_weights": _QUERIES + " (audit-1e6 if folded into the audit)",
    "gaps.verify_ratio_s": _QUERIES,
    "gaps.pairs_checked": _QUERIES,
    "gaps.chebyshev_threshold_s": _QUERIES,
    "gaps.star_s": _QUERIES,
    "gaps.star_cells": _QUERIES,
    "numeric.pow_enclosure_s": _QUERIES + " (threshold requests)",
    "cyclotomic.add_per_s": _CHAR,
    "cyclotomic.mul_per_s": _CHAR,
    "cyclotomic.galois_per_s": _CHAR,
    "characters.induce_s": _CHAR,
    "characters.induce_calls": _CHAR,
    "characters.inner_product_s": _CHAR,
    "characters.inner_product_calls": _CHAR,
    "characters.restrict_s": _CHAR,
    "characters.mackey_check_s": _CHAR,
    "characters.verify_conjugation_invariance_s": _CHAR,
    "groups.suite_build_s": _CHAR,
    **{f"campaigns.{campaign}.{group}_s": _CHAR
       for campaign in ("frobenius", "mackey") for group in SUITE_NAMES},
    "campaigns.invariance_s": _CHAR,
    "trace_overhead_s": "none: traced minus untraced time of the queries batch",
}
