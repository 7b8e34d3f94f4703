"""repro — randomized composable coresets for matching and vertex cover.

A full reproduction of Assadi & Khanna, *Randomized Composable Coresets for
Matching and Vertex Cover*, SPAA 2017 (arXiv:1705.08242): the coresets
themselves, the simultaneous-communication and MapReduce substrates they run
on, the hard distributions behind the paper's lower bounds, and the baseline
algorithms they are compared against.

Quick start
-----------
>>> from repro import quickstart_matching
>>> result = quickstart_matching(n=2000, k=8, seed=0)
>>> result["ratio"] <= 3.0
True

See ``examples/`` for runnable end-to-end scenarios and ``benchmarks/`` for
the per-theorem experiment harness.
"""

from __future__ import annotations

__version__ = "1.0.0"

from repro.graph import BipartiteGraph, Graph, PartitionedGraph, WeightedGraph


def quickstart_matching(
    n: int = 2000, k: int = 8, seed: int | None = 0, executor=None
) -> dict:
    """One-call demo: random bipartite workload, Theorem 1 coreset protocol,
    measured approximation ratio and communication.

    ``executor`` picks where the k machines run (``"serial"``,
    ``"processes"``, ``"remote"``, or ``None`` for ``$REPRO_EXECUTOR``);
    the numbers are bit-identical across backends for the same seed.
    Returns a dict with keys ``optimum``, ``output``, ``ratio``,
    ``total_bits``, ``bits_per_machine``.
    """
    from repro.core.protocols import matching_coreset_protocol
    from repro.dist.coordinator import run_simultaneous
    from repro.graph.generators import planted_matching_gnp
    from repro.graph.partition import random_k_partition
    from repro.matching.api import matching_number
    from repro.utils.rng import spawn_generators

    gens = spawn_generators(seed, 3)
    graph, _ = planted_matching_gnp(n, n, p=2.0 / n, rng=gens[0])
    partitioned = random_k_partition(graph, k, gens[1])
    result = run_simultaneous(matching_coreset_protocol(), partitioned,
                              gens[2], executor=executor)
    optimum = matching_number(graph)
    output = int(result.output.shape[0])
    return {
        "optimum": optimum,
        "output": output,
        "ratio": optimum / max(1, output),
        "total_bits": result.total_bits,
        "bits_per_machine": result.ledger.max_player_bits(),
    }


__all__ = [
    "BipartiteGraph",
    "Graph",
    "PartitionedGraph",
    "WeightedGraph",
    "__version__",
    "quickstart_matching",
]
