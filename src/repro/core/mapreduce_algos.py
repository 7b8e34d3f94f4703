"""The paper's MapReduce algorithms (§1.1, "MapReduce Framework").

With ``k = √n`` machines of memory Õ(n·√n):

* **Round 1** — every machine re-routes each of its edges to a uniformly
  random machine.  This turns an *arbitrary* initial placement into exactly
  the random k-partitioning the coresets need.
* **Round 2** — every machine computes its randomized composable coreset
  (maximum matching, or VC peeling) and sends it to a designated machine M;
  since each coreset is Õ(n) and there are k = √n machines, M receives
  Õ(n·√n), within its memory.  M then solves the composed instance locally.

If the input is *already* randomly distributed, round 1 is skipped and the
whole computation takes **one** round (the paper cites [52] for when that
assumption applies) — exposed via ``assume_random_input=True``.

.. deprecated::
    As *entry points* these are superseded by the unified solver facade —
    ``repro.solve.solve(graph, "matching.mapreduce", ctx)`` /
    ``"vertex_cover.mapreduce"`` (see ``docs/SOLVER_API.md``).  The
    functions remain the implementations the facade adapters call and
    keep working unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.compose import compose_matching, compose_vertex_cover
from repro.core.vc_coreset import VCCoresetResult, vc_coreset
from repro.dist.executor import ExecutorSpec
from repro.dist.mapreduce import MapReduceJob, MapReduceSimulator
from repro.graph.bipartite import BipartiteGraph
from repro.graph.edgelist import Graph
from repro.matching.api import Algorithm, maximum_matching
from repro.utils.rng import RandomState, as_generator, spawn_generators

__all__ = ["MapReduceMatchingResult", "MapReduceCoverResult",
           "mapreduce_matching", "mapreduce_vertex_cover", "default_machine_count"]


def default_machine_count(n_vertices: int) -> int:
    """The paper's ``k = √n`` choice."""
    return max(1, int(math.isqrt(max(n_vertices, 1))))


def _initial_pieces(
    graph: Graph, k: int, how: str, rng: np.random.Generator
) -> list[np.ndarray]:
    """Round-0 placement of edges on machines.

    ``"contiguous"`` models an arbitrary/adversarial ingest (consecutive
    chunks of the edge list); ``"random"`` models an input that is already
    randomly distributed.
    """
    e = graph.edges
    if how == "contiguous":
        return [chunk for chunk in np.array_split(e, k)]
    if how == "random":
        dest = rng.integers(0, k, size=e.shape[0])
        return [e[dest == i] for i in range(k)]
    raise ValueError(f"unknown initial placement {how!r}")


# The round functions below are module-level dataclass callables rather
# than closures so that `executor="processes"` can pickle them into worker
# processes; they carry only small scalars or an edge-free template graph.
@dataclass(frozen=True)
class _UniformRoute:
    """Round-1 route: every edge to a uniformly random machine."""

    k: int

    def __call__(self, i: int, edges: np.ndarray,
                 rng: np.random.Generator) -> np.ndarray:
        return rng.integers(0, self.k, size=edges.shape[0])


@dataclass(frozen=True)
class _MatchingCoresetCompute:
    """Round-2 compute: a maximum matching of the machine's piece."""

    template: Graph  # edge-free; carries n and the bipartition only

    def __call__(self, i: int, edges: np.ndarray,
                 rng: np.random.Generator) -> np.ndarray:
        return maximum_matching(_piece_like(self.template, edges))


@dataclass(frozen=True)
class _VCCoresetCompute:
    """Round-2 compute: VC peeling; returns (residual edges, fixed vertices).

    The fixed vertices come back through :meth:`compute_round`'s aux
    channel (collected in machine-index order) instead of mutating caller
    state, which would not survive a process boundary.
    """

    n_vertices: int
    k: int
    log_slack: float

    def __call__(self, i: int, edges: np.ndarray,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        piece = Graph(self.n_vertices, edges)
        result = vc_coreset(piece, n=self.n_vertices, k=self.k,
                            log_slack=self.log_slack)
        return result.residual.edges, result.fixed_vertices


def _edge_free_template(graph: Graph) -> Graph:
    """``graph`` minus its edges: the cheap-to-pickle structural template."""
    if isinstance(graph, BipartiteGraph):
        return BipartiteGraph(graph.n_left, graph.n_right)
    return Graph(graph.n_vertices)


@dataclass
class MapReduceMatchingResult:
    matching: np.ndarray
    job: MapReduceJob
    k: int


@dataclass
class MapReduceCoverResult:
    cover: np.ndarray
    job: MapReduceJob
    k: int


def mapreduce_matching(
    graph: Graph,
    k: int | None = None,
    rng: RandomState = None,
    memory_cap_edges: int | None = None,
    assume_random_input: bool = False,
    combiner_algorithm: Algorithm = "auto",
    initial_placement: str = "contiguous",
    executor: ExecutorSpec = None,
) -> MapReduceMatchingResult:
    """O(1)-approximate maximum matching in ≤ 2 MapReduce rounds.

    ``executor`` selects the backend the simulated machines run on
    (serial / processes / remote; see :mod:`repro.dist.executor`) —
    results are bit-identical per seed across all backends.
    """
    gen = as_generator(rng)
    k = default_machine_count(graph.n_vertices) if k is None else int(k)
    # The context manager releases the simulator's worker pool when the
    # rounds are done (a pool the caller passed in stays open — see
    # MapReduceSimulator.close); the pool itself persists across both
    # rounds, so start-up is paid once per job.
    with MapReduceSimulator(
        graph.n_vertices, k, memory_cap_edges=memory_cap_edges, rng=gen,
        executor=executor,
    ) as sim:
        placement = "random" if assume_random_input else initial_placement
        sim.load(_initial_pieces(graph, k, placement, gen))

        if not assume_random_input:
            # Round 1: random re-partitioning.
            sim.shuffle_round(_UniformRoute(k))

        # Round 2: coreset per machine, shipped to machine 0.  The compute
        # callable carries only the edge-free template (n + bipartition), so
        # shipping it to process workers stays cheap.
        sim.compute_round(_MatchingCoresetCompute(_edge_free_template(graph)),
                          send_to=0)

        final_edges = sim.machine_edges(0)
    matching = compose_matching(
        graph.n_vertices, [final_edges], combiner="exact",
        algorithm=combiner_algorithm, template=graph,
    )
    return MapReduceMatchingResult(matching=matching, job=sim.job, k=k)


def mapreduce_vertex_cover(
    graph: Graph,
    k: int | None = None,
    rng: RandomState = None,
    memory_cap_edges: int | None = None,
    assume_random_input: bool = False,
    log_slack: float = 4.0,
    initial_placement: str = "contiguous",
    executor: ExecutorSpec = None,
) -> MapReduceCoverResult:
    """O(log n)-approximate vertex cover in ≤ 2 MapReduce rounds.

    ``executor`` selects the backend the simulated machines run on
    (serial / processes / remote; see :mod:`repro.dist.executor`) —
    results are bit-identical per seed across all backends.
    """
    gen, cover_gen = spawn_generators(rng, 2)
    k = default_machine_count(graph.n_vertices) if k is None else int(k)
    with MapReduceSimulator(
        graph.n_vertices, k, memory_cap_edges=memory_cap_edges, rng=gen,
        executor=executor,
    ) as sim:
        placement = "random" if assume_random_input else initial_placement
        sim.load(_initial_pieces(graph, k, placement, gen))

        if not assume_random_input:
            sim.shuffle_round(_UniformRoute(k))

        # Fixed vertices ride along with the residual edges; they are ≤ n
        # vertex ids, well inside the same Õ(n) message budget.  They come
        # back through the round's aux channel, keyed by machine index.
        aux = sim.compute_round(
            _VCCoresetCompute(graph.n_vertices, k, log_slack), send_to=0
        )
        fixed_sets: list[np.ndarray] = [
            a if a is not None else np.zeros(0, dtype=np.int64) for a in aux
        ]

        residual_union = Graph(graph.n_vertices, sim.machine_edges(0))
    results = [
        VCCoresetResult(
            fixed_vertices=fixed_sets[i],
            residual=residual_union if i == 0 else Graph(graph.n_vertices),
            trace=None,  # type: ignore[arg-type]
        )
        for i in range(k)
    ]
    cover = compose_vertex_cover(
        graph.n_vertices, results, combiner="auto", template=graph, rng=cover_gen
    )
    return MapReduceCoverResult(cover=cover, job=sim.job, k=k)


def _piece_like(template: Graph, edges: np.ndarray) -> Graph:
    """Rebuild a machine piece with the template's (possible) bipartition."""
    if isinstance(template, BipartiteGraph):
        return BipartiteGraph(template.n_left, template.n_right, edges)
    return Graph(template.n_vertices, edges)
