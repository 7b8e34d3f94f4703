"""Weighted and capacitated bipartite graphs (``b``-matching / AdWords).

The real-world workloads of :mod:`repro.workloads` need two containers the
seed library lacked:

* :class:`WeightedBipartiteGraph` — a bipartite graph whose edges carry
  positive weights (gMission task payoffs, MovieLens ratings).  It exposes
  the same weight duck type as :class:`~repro.graph.weights.WeightedGraph`
  (``weights`` aligned with ``edges``, ``matching_weight``,
  ``total_weight``) so the Crouch–Stubbs weight-class machinery works
  unchanged, while keeping the explicit bipartition that Hopcroft–Karp and
  the coreset protocols rely on.

* :class:`CapacitatedBipartiteGraph` — additionally assigns every *left*
  vertex an integer capacity ``b(u) >= 1``: a feasible solution is a
  ``b``-matching, i.e. an edge set using each right vertex at most once and
  each left vertex ``u`` at most ``b(u)`` times.  This is the AdWords /
  capacitated-assignment shape of the CORL exemplar (advertisers with
  budgets on the left, queries on the right).  Capacity-aware algorithms
  live in :mod:`repro.workloads.bmatching`; the solver facade gates
  capacity-*unaware* solvers off these inputs
  (:mod:`repro.solve.registry`).

Both containers keep the library's immutability contract: arrays are
re-aligned to the canonical edge order at construction and set read-only.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.graph.bipartite import BipartiteGraph
from repro.graph.weights import align_edge_values

__all__ = ["WeightedBipartiteGraph", "CapacitatedBipartiteGraph"]


class WeightedBipartiteGraph(BipartiteGraph):
    """A bipartite graph with positive per-edge weights.

    Weights supplied at construction are re-aligned to the canonical
    (deduplicated, sorted) edge order; for duplicate input edges the first
    occurrence's weight wins, matching :class:`~repro.graph.edgelist.Graph`.
    """

    __slots__ = ("_weights",)

    def __init__(
        self,
        n_left: int,
        n_right: int,
        edges: np.ndarray | Sequence[tuple[int, int]] | None = None,
        weights: np.ndarray | Sequence[float] | None = None,
        *,
        validated: bool = False,
    ) -> None:
        raw_edges = np.asarray(
            [] if edges is None else edges, dtype=np.int64
        ).reshape(-1, 2)
        if weights is None:
            w = np.ones(raw_edges.shape[0], dtype=np.float64)
        else:
            w = np.asarray(weights, dtype=np.float64)
        if w.shape != (raw_edges.shape[0],):
            raise ValueError(
                f"weights must have shape ({raw_edges.shape[0]},), "
                f"got {w.shape}"
            )
        if w.size and w.min() <= 0:
            raise ValueError("edge weights must be strictly positive")
        super().__init__(n_left, n_right, raw_edges, validated=validated)
        aligned = w if validated else align_edge_values(self, raw_edges, w)
        aligned = np.ascontiguousarray(aligned, dtype=np.float64)
        aligned.setflags(write=False)
        self._weights = aligned

    # ------------------------------------------------------------------ #
    @classmethod
    def from_pairs_weighted(
        cls,
        n_left: int,
        n_right: int,
        left: np.ndarray | Sequence[int],
        right: np.ndarray | Sequence[int],
        weights: np.ndarray | Sequence[float],
    ) -> "WeightedBipartiteGraph":
        """Build from side-local index arrays plus per-edge weights."""
        left = np.asarray(left, dtype=np.int64)
        right = np.asarray(right, dtype=np.int64)
        if left.shape != right.shape:
            raise ValueError("left and right index arrays must have equal length")
        if left.size:
            if left.min() < 0 or left.max() >= n_left:
                raise ValueError(f"left indices out of range [0, {n_left})")
            if right.min() < 0 or right.max() >= n_right:
                raise ValueError(f"right indices out of range [0, {n_right})")
        edges = np.stack([left, right + n_left], axis=1)
        return cls(n_left, n_right, edges, weights)

    # weight duck type shared with WeightedGraph ----------------------- #
    @property
    def weights(self) -> np.ndarray:
        """Edge weights aligned with :attr:`edges` (read-only)."""
        return self._weights

    def total_weight(self) -> float:
        return float(self._weights.sum())

    def matching_weight(self, matching_edges: np.ndarray) -> float:
        """Total weight of the given (sub)set of this graph's edges."""
        rows = self.edge_rows(matching_edges)
        if (rows < 0).any():
            raise ValueError("matching contains edges not present in the graph")
        return float(self._weights[rows].sum())

    # ------------------------------------------------------------------ #
    def as_bipartite(self) -> BipartiteGraph:
        """Drop the weights: the underlying plain bipartite graph."""
        return BipartiteGraph(
            self.n_left, self.n_right, self.edges, validated=True
        )

    def _from_rows(self, rows: np.ndarray) -> "WeightedBipartiteGraph":
        return WeightedBipartiteGraph(
            self.n_left, self.n_right, np.take(self.edges, rows, axis=0),
            np.take(self._weights, rows), validated=True,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WeightedBipartiteGraph(n_left={self.n_left}, "
            f"n_right={self.n_right}, n_edges={self.n_edges}, "
            f"total_weight={self.total_weight():.4g})"
        )


class CapacitatedBipartiteGraph(WeightedBipartiteGraph):
    """A weighted bipartite graph with per-left-vertex integer capacities.

    ``capacities[u]`` is how many right vertices left vertex ``u`` may be
    matched to (``b``-matching).  ``capacities=None`` defaults to all-ones,
    and ``weights=None`` to unit weights, so the class degrades gracefully
    to ordinary bipartite matching while still advertising the capacitated
    contract to the solver facade's capability gate.
    """

    __slots__ = ("_capacities",)

    def __init__(
        self,
        n_left: int,
        n_right: int,
        edges: np.ndarray | Sequence[tuple[int, int]] | None = None,
        weights: np.ndarray | Sequence[float] | None = None,
        capacities: np.ndarray | Sequence[int] | None = None,
        *,
        validated: bool = False,
    ) -> None:
        super().__init__(n_left, n_right, edges, weights, validated=validated)
        if capacities is None:
            caps = np.ones(self.n_left, dtype=np.int64)
        else:
            caps = np.asarray(capacities, dtype=np.int64)
        if caps.shape != (self.n_left,):
            raise ValueError(
                f"capacities must have shape ({self.n_left},), got {caps.shape}"
            )
        if caps.size and caps.min() < 1:
            raise ValueError("capacities must be >= 1")
        caps = np.ascontiguousarray(caps)
        caps.setflags(write=False)
        self._capacities = caps

    # ------------------------------------------------------------------ #
    @classmethod
    def from_parts(
        cls,
        n_left: int,
        n_right: int,
        left: np.ndarray | Sequence[int],
        right: np.ndarray | Sequence[int],
        capacities: np.ndarray | Sequence[int],
        weights: np.ndarray | Sequence[float] | None = None,
    ) -> "CapacitatedBipartiteGraph":
        """Build from side-local index arrays + capacities (+ weights)."""
        left = np.asarray(left, dtype=np.int64)
        right = np.asarray(right, dtype=np.int64)
        if left.shape != right.shape:
            raise ValueError("left and right index arrays must have equal length")
        if left.size:
            if left.min() < 0 or left.max() >= n_left:
                raise ValueError(f"left indices out of range [0, {n_left})")
            if right.min() < 0 or right.max() >= n_right:
                raise ValueError(f"right indices out of range [0, {n_right})")
        edges = np.stack([left, right + n_left], axis=1)
        return cls(n_left, n_right, edges, weights, capacities)

    # ------------------------------------------------------------------ #
    @property
    def capacities(self) -> np.ndarray:
        """Per-left-vertex capacities ``b(u)`` (read-only, length n_left)."""
        return self._capacities

    def total_capacity(self) -> int:
        return int(self._capacities.sum())

    def b_matching_upper_bound(self) -> int:
        """A trivial upper bound on the maximum ``b``-matching size."""
        return int(min(self.total_capacity(), self.n_right, self.n_edges))

    def as_weighted_bipartite(self) -> WeightedBipartiteGraph:
        """Drop the capacities: the underlying weighted bipartite graph."""
        return WeightedBipartiteGraph(
            self.n_left, self.n_right, self.edges, self.weights,
            validated=True,
        )

    def _from_rows(self, rows: np.ndarray) -> "CapacitatedBipartiteGraph":
        return CapacitatedBipartiteGraph(
            self.n_left, self.n_right, np.take(self.edges, rows, axis=0),
            np.take(self.weights, rows), self._capacities, validated=True,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CapacitatedBipartiteGraph(n_left={self.n_left}, "
            f"n_right={self.n_right}, n_edges={self.n_edges}, "
            f"total_capacity={self.total_capacity()})"
        )
