"""Benchmark of the weightdescent CLI: end-to-end runs and a traced layer run.

Run from the repository root (the program is imported from `src/`):

    python3 perfbench/run.py --workload queries --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seconds 60

Workloads, metric names, units and directions, and the default `--seconds`
come from `BENCHMARK.json`; requests are in `workloads.py`.  A run is a
closed loop with one client: it starts one child process at a time
(`child.py`), each calling `weightdescent.cli.main(argv)` in-process once
per request of its batch, and checks every request's output (`checks.py`).
Before timing it starts one discarded warm-up child, so that byte-compilation
does not land in set-up time, and `WEIGHTDESCENT_SIEVE_LIMIT` is removed from
every child's environment.

`--trace 0` spends `--seconds` on set-up probes and batches and reports the
end-to-end metrics.  A shared host's speed can drift by 1.5x within
minutes, so such a run also times a yardstick job (`child.yardstick`,
code of the benchmark's own) in a fresh child before the first batch and
after each one.  Times are reported as on a nominal host on which the
yardstick takes `YARDSTICK_NOMINAL_S`: measured time x host speed, where host
speed is that nominal time over the run's median yardstick time (rates are
divided by it).  The measured values are printed and stored beside them.

`--trace 1` does a fixed amount of work instead: one profile child replays
the first batch of every workload and of the character campaigns
(`metrics.LAYER_BATCHES`) with spans around the program's layer functions
and measures the layers that need inputs of their own; it reports the
per-layer metrics, `trace_overhead_s` being the traced minus the untraced
time of the queries batch, each request run both ways back to back in
alternating order, whatever `--workload` is.
`--workload all` runs every workload untraced and then one traced run, and
prints each metric with its unit.

Every run writes its result set, with the machine context, to
`perfbench/out/`; a traced run also writes its per-layer table and spans
there.  The last line of stdout is one JSON object: correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from checks import Checker, check_result
from metrics import LAYER_BATCHES, MOVES, SUITE_NAMES
from spans import group_segments, self_times
from workloads import batch, kind

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")
OUT_DIR = os.path.join(HERE, "out")

SIEVE_LIMIT_ENV = "WEIGHTDESCENT_SIEVE_LIMIT"
CHILD_TIMEOUT_S = 170
SETUP_PROBES = 5
MIN_CHILDREN = 2
WARM_UP = [["table", "--format", "json"]]
# the yardstick's time on the nominal host that times are reported for
YARDSTICK_NOMINAL_S = 1.0
TIMES = ("wall_s", "setup_s", "query_p50_ms", "query_p95_ms")
# the batch whose traced and untraced times give `trace_overhead_s`
OVERHEAD_BATCH = "queries"


class BenchError(Exception):
    """The benchmark cannot produce a result (missing program, dead child)."""


class Harness:
    """Starts children one at a time and grades their requests."""

    def __init__(self):
        self.env = dict(os.environ)
        self.sieve_limit_cleared = self.env.pop(SIEVE_LIMIT_ENV, None) is not None
        self.env["PYTHONPATH"] = SRC
        self.env["PYTHONHASHSEED"] = "0"
        self.checker = Checker()

    def spawn(self, job: dict) -> dict:
        start = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, CHILD], input=json.dumps(job), capture_output=True,
                text=True, env=self.env, cwd=ROOT, timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"child ran over {CHILD_TIMEOUT_S} s") from exc
        wall = time.monotonic() - start
        if proc.returncode != 0:
            raise BenchError(f"child exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        out = json.loads(proc.stdout)
        out["wall_s"] = wall
        out["setup_s"] = out["ready"] - start
        out["rss_mb"] = out["maxrss_kb"] / 1024
        return out

    def yardstick(self) -> float:
        return self.spawn({"mode": "yardstick"})["yardstick_s"]

    def grade(self, results: list[dict]) -> dict:
        items, problems, failed = 0, [], 0
        for result in results:
            got, bad = check_result(self.checker, result)
            items += got
            if bad:
                failed += 1
                problems.append(f"{' '.join(result['argv'])}: {'; '.join(bad)}")
        return {"attempted": len(results), "failed": failed, "items": items,
                "problems": problems, "latencies_s": [r["latency_s"] for r in results],
                "kinds": [kind(r["argv"]) for r in results]}

    def warm_up(self) -> None:
        try:
            graded = self.grade(self.spawn({"mode": "batch", "requests": WARM_UP})["results"])
        except BenchError as exc:
            raise BenchError(f"the program does not start: {exc}") from exc
        if graded["failed"]:
            raise BenchError(f"warm-up request failed: {graded['problems']}")

    def run_batch(self, requests: list[list[str]]) -> dict:
        try:
            out = self.spawn({"mode": "batch", "requests": requests})
        except BenchError as exc:
            return {"attempted": len(requests), "failed": len(requests), "items": 0,
                    "problems": [str(exc)], "latencies_s": [], "kinds": [], "wall_s": None}
        summary = self.grade(out["results"])
        summary.update({k: out[k] for k in ("wall_s", "setup_s", "rss_mb")})
        return summary


def percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def describe(values: list[float], scale: float = 1.0) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    text = f"median {statistics.median(values) * scale:.6g}"
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            text += f", p{p} {percentile(values, p) * scale:.6g}"
            break
    else:
        text += f", max {max(values) * scale:.6g}"
    return text + f" (n = {n})"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _code_identity() -> dict:
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def machine_context() -> dict:
    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), **_code_identity(),
            "loadavg_before": os.getloadavg()}


def timed_run(h: Harness, workload: str, seed: int, seconds: float) -> dict:
    h.warm_up()
    start = time.monotonic()
    yardsticks = [h.yardstick()]
    setups = [h.spawn({"mode": "probe"})["setup_s"] for _ in range(SETUP_PROBES)]
    children: list[dict] = []
    while True:
        children.append(h.run_batch(batch(workload, seed, len(children))))
        yardsticks.append(h.yardstick())
        walls = [c["wall_s"] for c in children if c["wall_s"] is not None]
        elapsed = time.monotonic() - start
        if len(children) >= MIN_CHILDREN and (
                not walls or elapsed + statistics.median(walls) + yardsticks[-1] > seconds):
            break
    ok = [c for c in children if c["wall_s"] is not None]
    if not ok:
        raise BenchError(f"every child failed: {children[0]['problems']}")
    latencies = [x for c in ok for x in c["latencies_s"]]
    samples = {
        "wall_s": [c["wall_s"] for c in ok],
        "setup_s": setups + [c["setup_s"] for c in ok],
        "peak_rss_mb": [c["rss_mb"] for c in ok],
        "items_per_s": [_items(workload, c) / (c["wall_s"] - c["setup_s"]) for c in ok],
    }
    raw = {name: statistics.median(values) for name, values in samples.items()}
    raw["query_p50_ms"] = percentile(latencies, 50) * 1000
    raw["query_p95_ms"] = percentile(latencies, 95) * 1000
    # host speed relative to the nominal one: > 1 while the host is fast
    speed = YARDSTICK_NOMINAL_S / statistics.median(yardsticks)
    metrics = dict(raw)
    for name in TIMES:
        metrics[name] *= speed
    metrics["items_per_s"] /= speed
    summary = {name: describe(values) for name, values in samples.items()}
    summary["query_ms"] = describe(latencies, 1000)
    summary["yardstick_s"] = describe(yardsticks)
    return {"metrics": metrics, "raw_metrics": raw, "host_speed": speed,
            "yardsticks_s": yardsticks, "samples": summary, "by_kind": by_kind(ok),
            "children": children, "measured_s": time.monotonic() - start,
            **_totals(children)}


def by_kind(children: list[dict]) -> dict:
    """Each request kind's count, median and p95 latency, and share of the
    summed request time: what the pooled percentiles are made of."""
    latencies: dict[str, list[float]] = {}
    for child in children:
        for name, latency in zip(child["kinds"], child["latencies_s"]):
            latencies.setdefault(name, []).append(latency)
    total = sum(sum(values) for values in latencies.values())
    return {name: {"n": len(values), "median_ms": statistics.median(values) * 1000,
                   "p95_ms": percentile(values, 95) * 1000, "share": sum(values) / total}
            for name, values in sorted(latencies.items())}


def _items(workload: str, child: dict) -> int:
    """Certified weights (audit-1e6) or answered requests (queries)."""
    if workload == "queries":
        return child["attempted"] - child["failed"]
    return child["items"]


def _totals(graded: list[dict]) -> dict:
    attempted = sum(g["attempted"] for g in graded)
    failed = sum(g["failed"] for g in graded)
    return {"attempted": attempted, "failed": failed, "fail_share": failed / attempted,
            "problems": [p for g in graded for p in g["problems"]][:50]}


def layer_metrics(spans: list[dict], probes: dict) -> dict:
    times = self_times(spans)
    zero = {"self_s": 0.0, "total_s": 0.0, "calls": 0, "count": 0}

    def get(workload, name, field="self_s"):
        return times.get((workload, name), zero)[field]

    a, c, q = "audit-1e6", "char-suite", "queries"
    out = {
        "primes.sieve_s": get(q, "primes.sieve"),
        "primes.sieve_calls": get(q, "primes.sieve", "calls"),
        "primes.primes_listed": get(q, "primes.sieve", "count"),
        "primes.consecutive_pairs_s": get(q, "primes.consecutive_pairs"),
        "primes.pairs": get(q, "primes.consecutive_pairs", "count"),
        "primes.sieve_share": get(q, "primes.sieve") / get(q, "request", "total_s"),
        "descent.build_graph_s": get(a, "descent.build_graph"),
        "descent.steps_built": get(a, "descent.build_graph", "count"),
        "descent.verify_termination_s": get(a, "descent.verify_termination"),
        "descent.audit_s": get(a, "descent.audit"),
        "descent.chain_s": get(q, "descent.chain"),
        "gaps.m_bound_check_s": get(q, "gaps.m_bound_check"),
        "gaps.m_bound_weights": get(q, "gaps.m_bound_check", "count"),
        "gaps.verify_ratio_s": get(q, "gaps.verify_ratio"),
        "gaps.pairs_checked": get(q, "gaps.verify_ratio", "count"),
        "gaps.chebyshev_threshold_s": get(q, "gaps.chebyshev_threshold"),
        "gaps.star_s": get(q, "gaps.star"),
        "gaps.star_cells": get(q, "gaps.star", "count"),
        "numeric.pow_enclosure_s": get(q, "numeric.pow_enclosure"),
        "characters.induce_s": get(c, "characters.induce"),
        "characters.induce_calls": get(c, "characters.induce", "calls"),
        "characters.inner_product_s": get(c, "characters.inner_product"),
        "characters.inner_product_calls": get(c, "characters.inner_product", "calls"),
        "characters.restrict_s": get(c, "characters.restrict"),
        "characters.mackey_check_s": get(c, "characters.mackey_check"),
        "characters.verify_conjugation_invariance_s":
            get(c, "characters.verify_conjugation_invariance"),
        "campaigns.invariance_s": get(c, "campaigns.invariance", "total_s"),
        **probes,
    }
    char_spans = [s for s in spans if s["batch"] == c]
    for campaign in ("frobenius", "mackey"):
        segments = group_segments(char_spans, f"campaigns.{campaign}", "groups.random_subgroup")
        for group in SUITE_NAMES:
            out[f"campaigns.{campaign}.{group}_s"] = segments.get(group, 0.0)
    return out


def traced_run(h: Harness, seed: int) -> dict:
    h.warm_up()
    profile = h.spawn({"mode": "profile", "seed": seed, "paired": [OVERHEAD_BATCH],
                       "batches": {w: batch(w, seed, 0) for w in LAYER_BATCHES}})
    traced = {w: h.grade(results) for w, results in profile["results"].items()}
    untraced = h.grade(profile["untraced"][OVERHEAD_BATCH])
    layers = layer_metrics(profile["spans"], profile["probes"])
    layers["trace_overhead_s"] = (sum(traced[OVERHEAD_BATCH]["latencies_s"])
                                  - sum(untraced["latencies_s"]))
    return {"metrics": layers, "spans": profile["spans"],
            **_totals([untraced, *traced.values()])}


def print_end_to_end(workload: str, res: dict, units: dict[str, str]) -> None:
    print(f"== {workload}: {len(res['children'])} children in {res['measured_s']:.1f} s, "
          f"closed loop, 1 client, 1 child at a time")
    for name, value in res["metrics"].items():
        print(f"  {name:<14} {value:>14.6g} {units[name]:<5} "
              f"(measured {res['raw_metrics'][name]:.6g})")
    print(f"  host speed {res['host_speed']:.4f}: yardstick {YARDSTICK_NOMINAL_S} s nominal")
    for name, text in res["samples"].items():
        print(f"  samples {name:<12} {text} (measured)")
    if len(res["by_kind"]) > 1:
        for name, row in res["by_kind"].items():
            print(f"  kind {name:<13} n {row['n']:>5}  median {row['median_ms']:9.3f} ms  "
                  f"p95 {row['p95_ms']:9.3f} ms  share of request time {row['share']:.3f}")
    print(f"  fail_share     {res['fail_share']:.6g} ({res['failed']} of {res['attempted']} requests)")
    for problem in res["problems"][:10]:
        print(f"  FAILED {problem}")


def print_layers(res: dict, table: list[dict]) -> None:
    print("== per-layer (traced run)")
    for row in table:
        print(f"  {row['name']:<44} {row['value']:>14.6g} {row['unit']:<6} moves: {row['moves']}")
    for problem in res["problems"][:10]:
        print(f"  FAILED {problem}")


def write_out(name: str, payload: dict) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
    return path


def load_manifest() -> dict:
    try:
        with open(MANIFEST, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {MANIFEST}: {exc}") from exc


def run(args, manifest: dict) -> int:
    if not os.path.isfile(os.path.join(SRC, "weightdescent", "cli.py")):
        raise BenchError(f"no program to measure: {SRC}/weightdescent/cli.py is missing")
    context = machine_context()
    h = Harness()
    context["sieve_limit_env_cleared"] = h.sieve_limit_cleared
    workloads = ([w["name"] for w in manifest["workloads"]] if args.workload == "all"
                 else [args.workload])
    tag = f"{args.workload}-seed{args.seed}"
    if args.workload != "all":
        tag += f"-trace{args.trace}"

    timed = {}
    if args.workload == "all" or not args.trace:
        units = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
        for workload in workloads:
            timed[workload] = timed_run(h, workload, args.seed, args.seconds)
            print_end_to_end(workload, timed[workload], units)
    traced = None
    if args.workload == "all" or args.trace:
        traced = traced_run(h, args.seed)
        table = [{**m, "value": traced["metrics"][m["name"]], "moves": MOVES[m["name"]]}
                 for m in manifest["per_layer"]]
        print_layers(traced, table)
        trace_path = write_out(f"trace-{args.workload}-seed{args.seed}.json", {
            "per_layer": table, "spans": traced.pop("spans")})
        print(f"per-layer table and spans: {trace_path}")
    context["loadavg_after"] = os.getloadavg()
    result_path = write_out(f"result-{tag}.json", {
        "context": context, "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "end_to_end": timed, "per_layer": traced})
    print(f"result set: {result_path}")
    print("context: " + json.dumps(context))

    graded = list(timed.values()) + ([traced] if traced else [])
    attempted = sum(g["attempted"] for g in graded)
    failed = sum(g["failed"] for g in graded)
    if args.workload == "all":
        print(f"all workloads: {failed} of {attempted} requests failed")
        return 1 if failed else 0
    res = traced if args.trace else timed[args.workload]
    reported = manifest["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": res["metrics"][m["name"]], "unit": m["unit"]}
                    for m in reported},
    }))
    return 1 if failed else 0


def main(argv=None) -> int:
    try:
        manifest = load_manifest()
        parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
        parser.add_argument("--workload", required=True,
                            choices=[w["name"] for w in manifest["workloads"]] + ["all"])
        parser.add_argument("--seed", type=int, default=0)
        parser.add_argument("--seconds", type=float, default=manifest["run_seconds"])
        parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
        return run(parser.parse_args(argv), manifest)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
