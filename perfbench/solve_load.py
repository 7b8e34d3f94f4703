"""The two in-process solve workloads, run as a child of ``run.py``.

The child prints ``ready`` once set-up is done (imports, graph, pool,
one warm-up solve), so the parent can time set-up from process spawn.
With ``--setup-only`` it then exits; otherwise it runs the timed phase
and prints one JSON summary line.

``--trace 0`` times untraced ``solve()`` calls in a closed loop with one
caller.  ``--trace 1`` alternates an untraced ``solve()`` with a
:mod:`replay` of the same seed, checks the two agree bit for bit, and
reports per-layer medians.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import sys
import time
from collections import Counter
from typing import Any, Dict, Optional

from gates import check_result
from host import nproc, tree_peak_rss_mb
from measure import tail_percentile

#: name -> (graph spec, problem, k, run machines on a process pool,
#: reference solves per second).  The reference rate, about what the
#: first benchmarked commit reached on a 2-CPU host, fixes the sample
#: count the tail percentiles are chosen for, so they stay the same
#: percentiles however fast a later commit solves.
WORKLOADS = {
    # Theorem 1 as sweeps and `repro solve` run it: serial, Hopcroft-Karp
    # bound, no pool and no piece transfer.
    "coreset-matching": ("planted:n=8000,p=0.001", "matching", 8, False,
                         4.0),
    # Theorem 2 at m >= 1e5 on a persistent process pool: piece building
    # and the pickled barrier dominate; the plain (non-bipartite) Graph
    # selects the greedy combiner, so Hopcroft-Karp never runs.
    "coreset-cover-procs": ("skewed:n=40000", "vertex_cover", 8, True, 7.0),
}


def _next_seed(stream: random.Random) -> int:
    return stream.randrange(2**31)


class Bench:
    """A workload after set-up: its graph, pool and seed stream."""

    def __init__(self, workload: str, seed: int) -> None:
        from repro.dist.executor import ProcessExecutor
        from repro.graph.edgelist import Graph
        from repro.solve import RunContext, solve
        from repro.solve.graphs import load_graph
        from replay import SOLVERS

        (spec, self.problem, self.k, pooled,
         self.reference_rate) = WORKLOADS[workload]
        self.solver = SOLVERS[self.problem]
        self._solve, self._ctx = solve, RunContext
        self.seeds = random.Random(seed)
        graph = load_graph(spec, rng=_next_seed(self.seeds))
        if pooled:
            graph = Graph(graph.n_vertices, graph.edges)
        self.graph = graph
        self.pool = ProcessExecutor(max_workers=nproc()) if pooled else None
        self.solve(_next_seed(self.seeds))  # warm-up, untimed

    def solve(self, seed: int, executor: Any = None):
        ctx = self._ctx(seed=seed, k=self.k,
                        executor=executor if executor else self.pool)
        return self._solve(self.graph, self.solver, ctx)

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()


def maximal_matching_size(graph) -> int:
    """Size of a greedy maximal matching: a lower bound on the minimum
    vertex cover, computed here so the bound owes nothing to the program.
    Edges are walked in chunks to keep the peak memory flat."""
    matched = bytearray(graph.n_vertices)
    size = 0
    edges = graph.edges
    for start in range(0, len(edges), 1 << 16):
        chunk = edges[start:start + (1 << 16)]
        for u, v in zip(chunk[:, 0].tolist(), chunk[:, 1].tolist()):
            if not matched[u] and not matched[v]:
                matched[u] = matched[v] = 1
                size += 1
    return size


def timed(bench: Bench, seconds: float) -> Dict[str, Any]:
    """Closed loop, one caller, fresh seed per solve; gates run between
    solves and outside the timed calls."""
    n = bench.graph.n_vertices
    opt = lb = None
    if bench.problem == "matching":
        opt = n / 2  # the planted perfect matching
    else:
        lb = maximal_matching_size(bench.graph)
    latencies, ratios, bits = [], [], []
    failures: Counter = Counter()
    attempted = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        seed = _next_seed(bench.seeds)
        attempted += 1
        t = time.perf_counter()
        try:
            result = bench.solve(seed)
        except Exception as exc:  # noqa: BLE001 - counted, named, reported
            failures[f"error:{type(exc).__name__}"] += 1
            continue
        latencies.append((time.perf_counter() - t) * 1e3)
        failed, ratio = check_result(result.to_dict(), n, matching_opt=opt,
                                     cover_lower_bound=lb)
        failures.update(failed)
        if failed:
            continue
        ratios.append(ratio)
        bits.append(result.stats["total_bits"])
    rss = tree_peak_rss_mb(os.getpid())
    reference_n = round(bench.reference_rate * seconds)
    p90, q90 = tail_percentile(latencies, 0.90, reference_n)
    p99, q99 = tail_percentile(latencies, 0.99, reference_n)
    metrics = {
        "latency_p50_ms": statistics.median(latencies),
        "latency_p90_ms": p90,
        "throughput_per_s": len(latencies) / (sum(latencies) / 1e3),
        ("matching_ratio" if opt else "cover_ratio"): statistics.fmean(ratios),
        "coreset_bits": statistics.fmean(bits),
        "peak_rss_mb": rss,
    }
    return {
        "attempted": attempted,
        "failed": attempted - len(ratios),
        "failures": dict(failures),
        "metrics": metrics,
        "notes": {"latency": {"n": len(latencies), "reference_n": reference_n,
                              "q90": q90, "q99": q99, "p99_ms": p99},
                  "cover_lower_bound": lb},
    }


def traced(bench: Bench, seconds: float) -> Dict[str, Any]:
    """Untraced ``solve()`` and its replay, seed by seed; a replay that
    does not reproduce its solve raises and aborts the run."""
    from replay import count_kernel_calls, layer_medians, traced_solve

    rows = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        _, row = traced_solve(bench.graph, bench.problem,
                              _next_seed(bench.seeds), bench.k, bench.pool)
        rows.append(row)
    layer = layer_medians(rows)
    layer["matching.kernel_calls"] = count_kernel_calls(
        lambda: bench.solve(_next_seed(bench.seeds), executor="serial"))
    return {
        "attempted": len(rows),
        "failed": 0,
        "failures": {},
        "metrics": layer,
        "notes": {"replayed_solves": len(rows)},
    }


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    bench = Bench(args.workload, args.seed)
    try:
        print("ready", flush=True)
        if args.setup_only:
            return 0
        run = traced if args.trace else timed
        summary = run(bench, args.seconds)
    finally:
        bench.close()
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
