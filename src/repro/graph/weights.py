"""Edge weights and the Crouch–Stubbs weight-class decomposition.

The paper (§1.1) extends both coresets to the weighted setting:

* weighted matching via the Crouch–Stubbs technique [22] — partition edges
  into geometric weight classes ``[(1+ε)^j, (1+ε)^{j+1})``, run the
  unweighted coreset inside each class, and greedily merge class solutions
  from the heaviest class down (a factor-2(1+ε) loss, O(log n) extra space);
* weighted vertex cover by the analogous "grouping by weight" of edges.

This module provides the weighted-graph container and the class
decomposition; the coreset logic lives in :mod:`repro.core.weighted`.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.graph.edgelist import Graph

__all__ = [
    "WeightedGraph",
    "align_edge_values",
    "has_edge_weights",
    "weight_classes",
    "WeightClass",
]


def align_edge_values(
    graph: Graph, raw_edges: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """Map per-edge ``values`` given in ``raw_edges`` order onto ``graph``'s
    canonical edge order.

    For duplicate input edges the *first* occurrence's value wins, matching
    the dedupe rule of :class:`~repro.graph.edgelist.Graph`.  Shared by
    :class:`WeightedGraph` and the bipartite weighted/capacitated containers
    in :mod:`repro.graph.capacity`.
    """
    n = max(graph.n_vertices, 1)
    lo = np.minimum(raw_edges[:, 0], raw_edges[:, 1])
    hi = np.maximum(raw_edges[:, 0], raw_edges[:, 1])
    raw_keys = lo * np.int64(n) + hi
    first: dict[int, int] = {}
    for i, key in enumerate(raw_keys.tolist()):
        if key not in first:
            first[key] = i
    out = np.empty(graph.n_edges, dtype=np.float64)
    for j, key in enumerate(graph.edge_key_array.tolist()):
        out[j] = values[first[key]]
    return out


def has_edge_weights(graph: Graph) -> bool:
    """True when ``graph`` carries per-edge weights under the shared duck
    type (a ``weights`` array aligned with ``edges`` plus
    ``matching_weight``): :class:`WeightedGraph` or the bipartite
    containers of :mod:`repro.graph.capacity`."""
    return hasattr(graph, "weights") and hasattr(graph, "matching_weight")


class WeightedGraph(Graph):
    """A graph with positive edge weights aligned to the canonical edge order.

    Weights supplied at construction are re-aligned to the canonical
    (deduplicated, sorted) edge order; for duplicate input edges the *first*
    occurrence's weight wins, matching the dedupe rule of :class:`Graph`.
    """

    __slots__ = ("_weights",)

    def __init__(
        self,
        n_vertices: int,
        edges: np.ndarray,
        weights: np.ndarray,
        *,
        validated: bool = False,
    ) -> None:
        raw_edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (raw_edges.shape[0],):
            raise ValueError(
                f"weights must have shape ({raw_edges.shape[0]},), got {w.shape}"
            )
        if w.size and w.min() <= 0:
            raise ValueError("edge weights must be strictly positive")
        super().__init__(n_vertices, raw_edges, validated=validated)
        if validated:
            aligned = w
        else:
            aligned = align_edge_values(self, raw_edges, w)
        aligned = np.ascontiguousarray(aligned, dtype=np.float64)
        aligned.setflags(write=False)
        self._weights = aligned

    @property
    def weights(self) -> np.ndarray:
        """Edge weights aligned with :attr:`edges` (read-only)."""
        return self._weights

    def total_weight(self) -> float:
        return float(self._weights.sum())

    def _from_rows(self, rows: np.ndarray) -> "WeightedGraph":
        return WeightedGraph(
            self.n_vertices, np.take(self.edges, rows, axis=0),
            np.take(self._weights, rows), validated=True,
        )

    def matching_weight(self, matching_edges: np.ndarray) -> float:
        """Total weight of the given (sub)set of this graph's edges."""
        rows = self.edge_rows(matching_edges)
        if (rows < 0).any():
            raise ValueError("matching contains edges not present in the graph")
        return float(self._weights[rows].sum())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WeightedGraph(n_vertices={self.n_vertices}, n_edges={self.n_edges}, "
            f"total_weight={self.total_weight():.4g})"
        )


@dataclass(frozen=True)
class WeightClass:
    """One geometric weight class: the subgraph of edges with weight in
    ``[lo, hi)`` (the top class is closed on the right)."""

    index: int
    lo: float
    hi: float
    graph: Graph
    edge_indices: np.ndarray  # rows into the parent WeightedGraph.edges


def weight_classes(
    wg: WeightedGraph, epsilon: float = 1.0
) -> list[WeightClass]:
    """Crouch–Stubbs geometric decomposition of a weighted graph.

    Edge ``e`` with weight ``w(e)`` lands in class ``j = floor(log_{1+ε}
    (w(e)/w_min))``.  There are ``O(log_{1+ε}(w_max/w_min))`` classes — the
    "extra O(log n) term in the space" the paper mentions when weights are
    polynomially bounded.  Classes are returned heaviest-first, the order in
    which the weighted combiner greedily merges them.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if wg.n_edges == 0:
        return []
    w = wg.weights
    w_min = float(w.min())
    base = 1.0 + epsilon
    cls_idx = np.floor(np.log(w / w_min) / np.log(base)).astype(np.int64)
    # Floating point can put w == w_min * base^j into class j-1; nudge up.
    cls_idx = np.maximum(cls_idx, 0)
    classes: list[WeightClass] = []
    for j in np.unique(cls_idx)[::-1]:
        rows = np.flatnonzero(cls_idx == j)
        sub = Graph(wg.n_vertices, wg.edges[rows], validated=True)
        classes.append(
            WeightClass(
                index=int(j),
                lo=w_min * base ** int(j),
                hi=w_min * base ** (int(j) + 1),
                graph=sub,
                edge_indices=rows,
            )
        )
    return classes
