#!/usr/bin/env python
"""Process-parallel protocol execution: same seed, same bits, less wall-clock.

Scenario: the E8 MapReduce matching workload is CPU-bound — every machine
computes a maximum matching of its piece — and the machines are independent
by construction.  The executor backends (repro.dist.executor) exploit that:
the identical `run_simultaneous` / `mapreduce_matching` call runs the k
machines serially or on a process pool, and the determinism contract
(docs/PARALLELISM.md) guarantees the outputs are bit-identical per seed
across both — results are composed in machine-index order, never
completion order.

This script runs the workload once per backend, checks bit-identity against
serial, and reports wall-clock.  Speedups depend on your core count and the
per-machine piece size; `python -m repro experiment e21` prints the same
comparison as an experiment table.

Run:  python examples/parallel_mapreduce.py
"""

import time

import numpy as np

from repro.core.mapreduce_algos import mapreduce_matching
from repro.core.protocols import matching_coreset_protocol
from repro.dist.coordinator import run_simultaneous
from repro.graph.generators import planted_matching_gnp
from repro.graph.partition import random_k_partition
from repro.utils.rng import spawn_generators

BACKENDS = ["serial", "processes"]


def main() -> None:
    gens = spawn_generators(seed=21, n=2)
    half, k = 3000, 8
    graph, _ = planted_matching_gnp(half, half, p=24.0 / (2 * half),
                                    rng=gens[0])
    part = random_k_partition(graph, k, gens[1])
    print(f"workload: n={graph.n_vertices}, m={graph.n_edges}, k={k}\n")

    # --- the simultaneous protocol engine -------------------------------
    print("run_simultaneous(matching_coreset_protocol):")
    reference = None
    for backend in BACKENDS:
        start = time.perf_counter()
        res = run_simultaneous(matching_coreset_protocol(), part, rng=5,
                               executor=backend)
        wall = time.perf_counter() - start
        if reference is None:
            reference = res
        identical = (np.array_equal(res.output, reference.output)
                     and res.total_bits == reference.total_bits)
        print(f"  {backend:>9}: {wall:6.2f}s  matching={res.output.shape[0]}"
              f"  bits={res.total_bits}  identical_to_serial={identical}")
        assert identical, "determinism contract violated"

    # --- the MapReduce algorithm, on the same engine ---------------------
    print("\nmapreduce_matching (2 rounds, coreset to machine 0):")
    reference = None
    for backend in BACKENDS:
        start = time.perf_counter()
        res = mapreduce_matching(graph, k=k, rng=6, executor=backend)
        wall = time.perf_counter() - start
        if reference is None:
            reference = res
        identical = np.array_equal(res.matching, reference.matching)
        print(f"  {backend:>9}: {wall:6.2f}s  matching={res.matching.shape[0]}"
              f"  rounds={res.job.n_rounds}  identical_to_serial={identical}")
        assert identical, "determinism contract violated"

    print("\nSame seed, same bits, on every backend.")


if __name__ == "__main__":
    main()
