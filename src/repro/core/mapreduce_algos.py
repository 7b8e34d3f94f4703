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

Round 2 is the simultaneous protocol, so both rounds run on its engine:
round 1 is a seeded draw (:func:`~repro.graph.partition.shuffled_k_partition`),
from which each round-2 machine cuts its own piece, and round 2 is
:func:`~repro.dist.coordinator.run_simultaneous` with the Theorem 1 and 2
summarizers, machine 0 playing M.  The coordinator logs every round in a
:class:`~repro.dist.mapreduce.MapReduceJob` from the partition's keys and
the messages, and checks the per-machine memory cap after loading, after
the shuffle and on M's total.

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
from typing import Callable, TypeVar

import numpy as np

from repro.core.compose import compose_cover, compose_matching
from repro.core.protocols import MatchingCoresetSummarizer, VCCoresetSummarizer
from repro.dist.coordinator import Coordinator, SimultaneousProtocol, run_simultaneous
from repro.dist.executor import ExecutorSpec
from repro.dist.machine import Summarizer
from repro.dist.mapreduce import MapReduceJob
from repro.dist.message import Message
from repro.graph.edgelist import Graph
from repro.graph.partition import (
    PLACEMENTS,
    PartitionedGraph,
    random_k_partition,
    shuffled_k_partition,
)
from repro.matching.api import Algorithm
from repro.utils.rng import RandomState, as_generator, root_seed, spawn_generators

__all__ = ["MapReduceMatchingResult", "MapReduceCoverResult",
           "mapreduce_matching", "mapreduce_vertex_cover", "default_machine_count"]

T = TypeVar("T")


def default_machine_count(n_vertices: int) -> int:
    """The paper's ``k = √n`` choice."""
    return max(1, int(math.isqrt(max(n_vertices, 1))))


def _round_two_partition(
    graph: Graph, k: int, gen: np.random.Generator, placement: str,
    assume_random_input: bool,
) -> tuple[PartitionedGraph, np.ndarray | None]:
    """The random k-partitioning round 2 runs on, and each edge's round-0
    machine (``None`` when round 1 is skipped: the input is already that
    partitioning).  Either way ``gen`` first draws the root of round 1's
    route streams, so a pre-randomized input is placed by the stream a
    random placement would be."""
    if placement not in PLACEMENTS:
        raise ValueError(f"unknown initial placement {placement!r}")
    if not assume_random_input:
        return shuffled_k_partition(graph, k, gen, placement)
    root_seed(gen)
    return random_k_partition(graph, k, gen), None


def _run(
    graph: Graph, k: int, gen: np.random.Generator, summarizer: Summarizer,
    compose: Callable[[Coordinator, list[Message]], T], *,
    memory_cap_edges: int | None, assume_random_input: bool,
    initial_placement: str, executor: ExecutorSpec,
) -> tuple[T, MapReduceJob]:
    """Both rounds: the shuffle as a draw, then every machine's coreset to
    machine 0, which runs ``compose`` on the messages."""
    if memory_cap_edges is not None and memory_cap_edges < 0:
        raise ValueError(
            f"memory_cap_edges must be non-negative, got {memory_cap_edges}"
        )
    part, sources = _round_two_partition(graph, k, gen, initial_placement,
                                         assume_random_input)
    job = MapReduceJob()
    if sources is None:
        job.hold(part.piece_sizes(), memory_cap_edges, "load")
    else:
        job.hold(np.bincount(sources, minlength=k), memory_cap_edges, "load")
        moved = int(np.count_nonzero(part.assignment != sources))
        job.end_round("shuffle", moved, part.piece_sizes(), memory_cap_edges)

    def receive(coordinator: Coordinator, messages: list[Message]) -> T:
        sent = np.array([m.edges.shape[0] for m in messages], dtype=np.int64)
        received = np.zeros(k, dtype=np.int64)
        received[0] = sent.sum()
        job.end_round("compute", int(sent[1:].sum()), received,
                      memory_cap_edges)
        return compose(coordinator, messages)

    protocol = SimultaneousProtocol("mapreduce", summarizer, receive)
    result = run_simultaneous(protocol, part, gen, executor=executor)
    return result.output, job


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

    ``executor`` selects the backend the machines run on (serial /
    processes / remote; see :mod:`repro.dist.executor`) — results are
    bit-identical per seed across all backends.
    """
    gen = as_generator(rng)
    k = default_machine_count(graph.n_vertices) if k is None else int(k)

    def compose(coordinator: Coordinator, messages: list[Message]) -> np.ndarray:
        return compose_matching(
            coordinator.n_vertices, [m.edges for m in messages],
            combiner="exact", algorithm=combiner_algorithm,
            template=coordinator.template,
        )

    matching, job = _run(
        graph, k, gen, MatchingCoresetSummarizer(), compose,
        memory_cap_edges=memory_cap_edges,
        assume_random_input=assume_random_input,
        initial_placement=initial_placement, executor=executor,
    )
    return MapReduceMatchingResult(matching=matching, job=job, k=k)


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

    The fixed vertices ride along with the residual edges; they are ≤ n
    vertex ids, well inside the same Õ(n) message budget.  ``executor``
    selects the backend the machines run on (serial / processes / remote;
    see :mod:`repro.dist.executor`) — results are bit-identical per seed
    across all backends.
    """
    gen, cover_gen = spawn_generators(rng, 2)
    k = default_machine_count(graph.n_vertices) if k is None else int(k)

    def compose(coordinator: Coordinator, messages: list[Message]) -> np.ndarray:
        return compose_cover(
            coordinator.n_vertices, [m.edges for m in messages],
            [m.fixed_vertices for m in messages], combiner="auto",
            template=coordinator.template, rng=cover_gen,
        )

    cover, job = _run(
        graph, k, gen, VCCoresetSummarizer(k=k, log_slack=log_slack), compose,
        memory_cap_edges=memory_cap_edges,
        assume_random_input=assume_random_input,
        initial_placement=initial_placement, executor=executor,
    )
    return MapReduceCoverResult(cover=cover, job=job, k=k)
