"""Request streams, generated from the run's seed.

A run spawns children one after another; child `index` of a run with seed
`seed` gets `batch(workload, seed, index)`, a list of CLI argument vectors.
The program sees only these vectors.  `char-suite` is not an end-to-end
workload; the traced run replays its batch for the campaign layers.
"""

from __future__ import annotations

import random

from metrics import SUITE_NAMES

# char-suite: every group and all three campaigns, like
# `char verify --group all`, at a fifth of the default draw counts so that the
# traced run stays short (the default 50/100 takes ~20 s on 2 cores).
CHAR_DRAWS = 10
CHAR_TRIALS = 20

# queries: the request kinds of the stream, each sent the same number of
# times per child (9 x 32 = 288 requests), in a seeded order.  Equal counts
# weigh no layer above another; `run.py` reports each kind's latency and share
# of request time, which shows what the pooled percentiles gate.
QUERY_KINDS = ("reduce", "chain", "table", "gaps", "gaps-shifted", "threshold",
               "star", "mbound", "char-demo")
QUERIES_PER_KIND = 32

MAX_QUERY_K = 1_000_000
GAP_LOW, GAP_HIGH, GAP_MIN_WIDTH = 37, 100_000, 1000
MAX_MBOUND_K = 100_000
CHAIN_POLICIES = ("hi-branch", "lo-branch", "longest")


def _strata(rng: random.Random, low: int, high: int, n: int = QUERIES_PER_KIND,
            step: int = 1) -> list[int]:
    """n multiples of `step` in [low, high], one drawn uniformly from each of
    n equal slices, in a seeded order.  Stratified draws keep each child's
    total cost close to the next one's, so that the run-to-run spread of the
    metrics is the program's and the host's, not the sampling's."""
    values = []
    for i in range(n):
        a = low + (high - low) * i // n
        b = low + (high - low) * (i + 1) // n
        values.append(step * rng.randint(-(-a // step), b // step))
    rng.shuffle(values)
    return values


def _queries(rng: random.Random, name: str) -> list[list[str]]:
    n = QUERIES_PER_KIND
    if name == "reduce":
        return [["reduce", str(k)] for k in _strata(rng, 16, MAX_QUERY_K, step=2)]
    if name == "chain":
        return [["chain", str(k), "--policy", CHAIN_POLICIES[i % len(CHAIN_POLICIES)]]
                for i, k in enumerate(_strata(rng, 16, MAX_QUERY_K, step=2))]
    if name == "table":
        return [["table"]] * n
    if name in ("gaps", "gaps-shifted"):
        out = []
        for width in _strata(rng, GAP_MIN_WIDTH, GAP_HIGH - GAP_LOW):
            low = rng.randint(GAP_LOW, GAP_HIGH - width)
            out.append([name, "--low", str(low), "--high", str(low + width)])
        return out
    if name == "threshold":
        return [["threshold", "--digits", str(d)] for d in _strata(rng, 20, 200)]
    if name == "star":
        return [["star", "--m-max", str(m), "--d-max", str(d)]
                for m, d in zip(_strata(rng, 7, 60), _strata(rng, 1, 60))]
    if name == "mbound":
        return [["mbound", "--max-k", str(k)] for k in _strata(rng, 38, MAX_MBOUND_K, step=2)]
    if name == "char-demo":
        # every group equally often
        groups = [SUITE_NAMES[i % len(SUITE_NAMES)] for i in range(n)]
        return [["char", "demo", "--group", group, "--seed", str(rng.randrange(10**6))]
                for group in groups]
    raise ValueError(f"unknown query kind {name!r}")


def kind(argv: list[str]) -> str:
    """The request kind of an argument vector, as named in `QUERY_KINDS`."""
    return f"char-{argv[1]}" if argv[0] == "char" else argv[0]


def batch(workload: str, seed: int, index: int) -> list[list[str]]:
    """The argument vectors child `index` runs, each with `--format json`."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == "audit-1e6":
        requests = [["audit", "--max-k", "1000000"]]
    elif workload == "char-suite":
        requests = [["char", "verify", "--group", "all", "--draws", str(CHAR_DRAWS),
                     "--trials", str(CHAR_TRIALS), "--seed", str(rng.randrange(10**6))]]
    elif workload == "queries":
        requests = [argv for name in QUERY_KINDS for argv in _queries(rng, name)]
        rng.shuffle(requests)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [argv + ["--format", "json"] for argv in requests]
