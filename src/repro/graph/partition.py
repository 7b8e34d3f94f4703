"""Edge partitioning: the random k-partitioning at the heart of the paper,
plus the adversarial partitionings it contrasts against.

A *random k-partitioning* assigns every edge independently and uniformly to
one of ``k`` machines (paper, §1, "Randomized Composable Coresets").  The
paper's central claim is that this single change — random instead of
adversarial placement — moves matching and vertex cover from Ω(n²) summaries
to Õ(n) summaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from repro.graph.edgelist import Graph
from repro.utils.rng import RandomState, as_generator

__all__ = [
    "PartitionedGraph",
    "VertexPartitionedGraph",
    "random_k_partition",
    "random_vertex_partition",
    "partition_by_assignment",
    "adversarial_degree_partition",
]


@dataclass(frozen=True)
class PartitionedGraph:
    """A graph together with a k-way partition of its edge set.

    ``assignment[i]`` is the machine (in ``0..k-1``) that received edge ``i``
    of ``graph.edges``.  Pieces are built on demand as same-type subgraphs
    on the full vertex set, matching the paper's model where every machine
    knows the vertex set ``V`` but only its own edges.  The first
    :meth:`piece` call groups the edge rows by machine in one stable pass
    and keeps that grouping for later calls; it is left out of pickles.
    """

    graph: Graph
    k: int
    assignment: np.ndarray  # (m,) int64 machine ids

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        a = np.asarray(self.assignment, dtype=np.int64)
        if a.shape != (self.graph.n_edges,):
            raise ValueError(
                f"assignment must have shape ({self.graph.n_edges},), got {a.shape}"
            )
        if a.size and (a.min() < 0 or a.max() >= self.k):
            raise ValueError(f"machine ids must lie in [0, {self.k})")
        object.__setattr__(self, "assignment", a)

    def piece(self, i: int) -> Graph:
        """The subgraph ``G^(i)`` given to machine ``i``, equal to
        ``graph.subgraph_from_mask(assignment == i)``."""
        if not 0 <= i < self.k:
            raise IndexError(f"machine index {i} out of range [0, {self.k})")
        order, bounds = self._buckets
        return self.graph.subgraph_from_indices(order[bounds[i]:bounds[i + 1]])

    def pieces(self) -> Iterator[Graph]:
        """Iterate over all ``k`` machine subgraphs."""
        for i in range(self.k):
            yield self.piece(i)

    @cached_property
    def _buckets(self) -> tuple[np.ndarray, np.ndarray]:
        """``(order, bounds)``: edge rows grouped by machine, machine ``i``
        owning ``order[bounds[i]:bounds[i + 1]]``.

        numpy radix-sorts keys of 16 bits or fewer, so the assignment is
        cast to the narrowest type holding ``k - 1`` before the argsort.
        The sort is stable, so each machine's rows stay ascending and its
        piece keeps the canonical edge order.
        """
        keys = self.assignment.astype(np.min_scalar_type(self.k - 1))
        order = np.argsort(keys, kind="stable")
        return order, np.concatenate([[0], np.cumsum(self.piece_sizes())])

    def __getstate__(self) -> dict:
        # The bucket order (8 bytes per edge) is rebuilt on demand, not pickled.
        return {f: v for f, v in self.__dict__.items() if f != "_buckets"}

    def piece_sizes(self) -> np.ndarray:
        """Number of edges per machine."""
        return np.bincount(self.assignment, minlength=self.k).astype(np.int64)

    def union(self) -> Graph:
        """Reassemble the full graph from the pieces (identity check)."""
        return self.graph


def random_k_partition(
    graph: Graph, k: int, rng: RandomState = None
) -> PartitionedGraph:
    """The paper's random k-partitioning: each edge goes to a uniformly
    random machine, independently."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    gen = as_generator(rng)
    assignment = gen.integers(0, k, size=graph.n_edges, dtype=np.int64)
    return PartitionedGraph(graph=graph, k=k, assignment=assignment)


def partition_by_assignment(
    graph: Graph, assignment: np.ndarray | Sequence[int], k: int | None = None
) -> PartitionedGraph:
    """Wrap an explicit edge→machine assignment (used by adversaries)."""
    a = np.asarray(assignment, dtype=np.int64)
    k = int(a.max()) + 1 if k is None else int(k)
    return PartitionedGraph(graph=graph, k=k, assignment=a)


# --------------------------------------------------------------------- #
# Adversarial partitionings (E7)
# --------------------------------------------------------------------- #
def adversarial_degree_partition(graph: Graph, k: int) -> PartitionedGraph:
    """A deterministic adversary that splits edges by endpoint locality.

    Edges are routed by ``min(u, v) mod k``, so each machine sees a vertex-
    disjoint-ish slice with heavily correlated structure — the opposite of
    the i.i.d. placement the coreset analysis needs.  Weaker than the
    decoy-gadget adversary of :mod:`repro.lowerbounds.adversary` but needs
    no knowledge of the optimum, mirroring the "data locality" sharding a
    real system might use by default.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if graph.n_edges == 0:
        return PartitionedGraph(graph=graph, k=k, assignment=np.zeros(0, np.int64))
    assignment = np.minimum(graph.edges[:, 0], graph.edges[:, 1]) % k
    return PartitionedGraph(graph=graph, k=k, assignment=assignment)


# --------------------------------------------------------------------- #
# Vertex partitioning (the [10] simultaneous model, §1.3)
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class VertexPartitionedGraph:
    """A graph whose *vertices* are partitioned across k machines.

    This is the simultaneous model of [10] (Assadi–Khanna–Li–Yaroslavtsev)
    that the paper contrasts with in §1.3: machine ``i`` owns a vertex set
    ``V_i`` and sees **every edge incident on its vertices** — so an edge
    whose endpoints live on different machines is seen by both.  In that
    model even an O(√k)-approximation to matching needs more than Õ(n)
    communication per player; experiment E19 runs the edge-partition
    coresets here to chart the contrast on common workloads.

    ``vertex_assignment[v]`` is the owner machine of vertex ``v``.
    """

    graph: Graph
    k: int
    vertex_assignment: np.ndarray  # (n,) int64 machine ids

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        a = np.asarray(self.vertex_assignment, dtype=np.int64)
        if a.shape != (self.graph.n_vertices,):
            raise ValueError(
                f"vertex_assignment must have shape "
                f"({self.graph.n_vertices},), got {a.shape}"
            )
        if a.size and (a.min() < 0 or a.max() >= self.k):
            raise ValueError(f"machine ids must lie in [0, {self.k})")
        object.__setattr__(self, "vertex_assignment", a)

    def piece(self, i: int) -> Graph:
        """All edges incident on machine ``i``'s vertices (duplicated
        across machines for cross-machine edges, as the model specifies)."""
        if not 0 <= i < self.k:
            raise IndexError(f"machine index {i} out of range [0, {self.k})")
        e = self.graph.edges
        if e.size == 0:
            return self.graph.subgraph_from_mask(np.zeros(0, dtype=bool))
        owned = self.vertex_assignment == i
        mask = owned[e[:, 0]] | owned[e[:, 1]]
        return self.graph.subgraph_from_mask(mask)

    def pieces(self) -> Iterator[Graph]:
        for i in range(self.k):
            yield self.piece(i)

    def duplication_factor(self) -> float:
        """Average number of machines seeing each edge (1..2)."""
        if self.graph.n_edges == 0:
            return 0.0
        e = self.graph.edges
        dup = (
            self.vertex_assignment[e[:, 0]]
            != self.vertex_assignment[e[:, 1]]
        )
        return float(1.0 + dup.mean())


def random_vertex_partition(
    graph: Graph, k: int, rng: RandomState = None
) -> VertexPartitionedGraph:
    """Assign each vertex to a uniformly random machine."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    gen = as_generator(rng)
    assignment = gen.integers(0, k, size=graph.n_vertices, dtype=np.int64)
    return VertexPartitionedGraph(graph=graph, k=k, vertex_assignment=assignment)
