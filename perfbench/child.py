"""One benchmark child: imports the program, runs a job, prints one JSON line.

`run.py` starts it with `python3 perfbench/child.py`, `PYTHONPATH` pointing
at the checkout's `src`, and the job as JSON on stdin:

- `{"mode": "probe"}` only imports the program (a set-up sample);
- `{"mode": "batch", "requests": [argv, ...]}` calls
  `weightdescent.cli.main(argv)` once per request, in-process, and returns
  each request's exit status, stdout and latency;
- `{"mode": "profile", "batches": {workload: [argv, ...]}, "paired":
  [workload, ...], "seed": n}` does the same with spans around the program's
  layer functions (running each request of a paired workload once more,
  untraced), then measures the layers that need inputs of their own
  (kernel rates, step cost, graph memory, group construction);
- `{"mode": "yardstick"}` times `yardstick()`, a fixed pure-Python job that
  uses none of the program, to gauge the host's current speed.

The first thing it does is import `weightdescent.cli`; the moment that
returns is reported as `ready` (CLOCK_MONOTONIC, comparable with the
parent's clock).
"""

import time

import weightdescent.cli as cli

READY = time.monotonic()

import contextlib  # noqa: E402  (after the timed import on purpose)
import dataclasses  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402

from spans import Tracer  # noqa: E402

CYCLO_POOL = 256
CYCLO_OPS = {"add": 4000, "mul": 1000, "galois": 4000}
GALOIS_EXPONENTS = (7, 11, 13, 17, 19, 23)  # coprime to every pool conductor
STEP_PROBE_CALLS = 2000
STEP_PROBE_MAX_K = 1_000_000
GRAPH_PROBE_K = 200_000
REPEATS = 5
YARDSTICK_NODES = 150_000


@dataclasses.dataclass(frozen=True)
class _Node:
    k: int
    hi: int
    lo: int
    key: tuple


def yardstick() -> float:
    """Seconds this process takes to build and walk a 150,000-node graph of
    frozen dataclasses, dicts and tuples (~1 s, ~80 MB): the kind of work the
    program does, in code of the benchmark's own, so that it changes only
    with the host's speed."""
    n = YARDSTICK_NODES
    start = time.perf_counter()
    nodes, edges = {}, {}
    for k in range(n):
        node = _Node(k, k * 7919 % n, k * 104729 % n, (k, k >> 3))
        nodes[k] = node
        edges[k] = (node.hi, node.lo)
    spread = 0
    for k in nodes:
        hi, lo = edges[k]
        spread = max(spread, nodes[hi].key[1] - nodes[lo].key[1])
    return time.perf_counter() - start


def run_request(argv: list[str]) -> dict:
    buf = io.StringIO()
    status, error = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            status = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        status = exc.code
    except Exception as exc:  # a crash is a failed request, not a dead child
        error = repr(exc)
    latency = time.perf_counter() - start
    return {"argv": argv, "status": status, "error": error,
            "stdout": buf.getvalue(), "latency_s": latency}


def _install(tracer: Tracer) -> None:
    from weightdescent import descent, gaps
    from weightdescent.charconj import campaigns

    def count(attr):
        return lambda args, result: {"count": getattr(result, attr)}

    tracer.patch(cli, "sieve", "primes.sieve", count("count"))
    tracer.patch(gaps, "consecutive_pairs", "primes.consecutive_pairs",
                 lambda args, result: {"count": len(result)})
    tracer.patch(descent, "build_graph", "descent.build_graph",
                 lambda args, result: {"count": len(result.steps)})
    tracer.patch(descent, "verify_termination", "descent.verify_termination")
    tracer.patch(descent, "audit", "descent.audit")
    tracer.patch(descent, "chain", "descent.chain")
    tracer.patch(gaps, "m_bound_check", "gaps.m_bound_check", count("checked"))
    tracer.patch(gaps, "verify_ratio", "gaps.verify_ratio", count("pairs_checked"))
    tracer.patch(gaps, "verify_shifted_ratio", "gaps.verify_ratio", count("pairs_checked"))
    tracer.patch(gaps, "chebyshev_threshold", "gaps.chebyshev_threshold")
    tracer.patch(gaps, "pow_enclosure", "numeric.pow_enclosure")
    tracer.patch(gaps, "star_inequality_check", "gaps.star", count("checked"))
    for attr in ("frobenius", "mackey", "invariance"):
        tracer.patch(cli, f"{attr}_campaign", f"campaigns.{attr}", count("checks_run"))
    tracer.patch(campaigns, "random_subgroup", "groups.random_subgroup",
                 lambda args, result: {"group": args[1].name})
    for attr in ("induce", "inner_product", "restrict", "mackey_check",
                 "verify_conjugation_invariance"):
        tracer.patch(campaigns, attr, f"characters.{attr}")
    tracer.patch(cli, "verify_conjugation_invariance", "characters.verify_conjugation_invariance")


def _median_time(fn) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _layer_probes(seed: int) -> dict:
    from weightdescent import descent, primes
    from weightdescent.charconj import campaigns

    rng = random.Random(f"probes:{seed}")
    out = {}

    pool = [campaigns.random_cyclo(rng) for _ in range(CYCLO_POOL)]
    pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(max(CYCLO_OPS.values()))]
    kernels = {
        "add": lambda: [x + y for x, y in pairs[:CYCLO_OPS["add"]]],
        "mul": lambda: [x * y for x, y in pairs[:CYCLO_OPS["mul"]]],
        "galois": lambda: [x.galois(GALOIS_EXPONENTS[i % len(GALOIS_EXPONENTS)])
                           for i, (x, _) in enumerate(pairs[:CYCLO_OPS["galois"]])],
    }
    for op, kernel in kernels.items():
        out[f"cyclotomic.{op}_per_s"] = CYCLO_OPS[op] / _median_time(kernel)

    table = primes.sieve(STEP_PROBE_MAX_K + 512)
    ks = [2 * rng.randint(8, STEP_PROBE_MAX_K // 2) for _ in range(STEP_PROBE_CALLS)]
    per_call = _median_time(lambda: [descent.reduction_step(k, table) for k in ks])
    out["descent.reduction_step_us"] = per_call / STEP_PROBE_CALLS * 1e6

    out["groups.suite_build_s"] = _median_time(campaigns.suite_groups)

    table = primes.sieve(GRAPH_PROBE_K + 512)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        graph = descent.build_graph(GRAPH_PROBE_K, table)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    out["descent.graph_bytes_per_weight"] = (after - before) / len(graph.nodes)
    return out


def _untraced(tracer: Tracer, argv: list[str]) -> dict:
    tracer.enable(False)
    try:
        return run_request(argv)
    finally:
        tracer.enable(True)


def _profile(job: dict) -> dict:
    tracer = Tracer()
    _install(tracer)
    traced, untraced = {}, {}
    try:
        for workload, requests in job["batches"].items():
            tracer.batch = workload
            traced[workload], untraced[workload] = [], []
            paired = workload in job["paired"]
            for i, argv in enumerate(requests):
                # a paired request also runs untraced, right after or right
                # before (alternating, as a second run of the same request in
                # one process is faster), so that the difference is the
                # tracing cost and not the host's drift
                if paired and i % 2:
                    untraced[workload].append(_untraced(tracer, argv))
                span = tracer.open("request", command=argv[0])
                traced[workload].append(run_request(argv))
                tracer.close(span)
                if paired and not i % 2:
                    untraced[workload].append(_untraced(tracer, argv))
    finally:
        tracer.enable(False)
    return {"results": traced, "untraced": untraced, "spans": tracer.spans,
            "probes": _layer_probes(job["seed"])}


def _peak_rss_kb() -> int:
    """This process's peak resident set.  `VmHWM` is the high-water mark of
    its own address space; `ru_maxrss` also keeps the parent's peak across
    the spawn's exec, so it is only the fallback where /proc is missing."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> None:
    job = json.load(sys.stdin)
    out = {"ready": READY}
    if job["mode"] == "batch":
        out["results"] = [run_request(argv) for argv in job["requests"]]
    elif job["mode"] == "profile":
        out.update(_profile(job))
    elif job["mode"] == "yardstick":
        out["yardstick_s"] = yardstick()
    out["maxrss_kb"] = _peak_rss_kb()
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
