"""b-matching (AdWords) primitives over capacitated bipartite graphs.

A *b-matching* of a :class:`~repro.graph.capacity.CapacitatedBipartiteGraph`
is an edge subset using each left vertex ``u`` at most ``b(u)`` times and
each right vertex at most once — the offline AdWords/budgeted-allocation
shape, where left vertices are advertisers with budgets and right vertices
are impressions.

Three primitives mirror the uncapacitated trio (greedy / Hopcroft–Karp /
verify):

* :func:`greedy_b_matching` — one weight-descending pass, the per-machine
  summarizer in coreset protocols;
* :func:`exact_b_matching` — maximum-**cardinality** b-matching, exact via
  the left-cloning reduction (clone ``u`` into ``b(u)`` copies, run
  Hopcroft–Karp, fold the clones back);
* :func:`verify_b_matching` — capacity-respecting feasibility check, used
  by the solver facade's certificate verification.

All three speak **edge-index arrays** (row indices into ``graph.edges``),
which compose with ``graph.weights[idx]`` and ``graph.edges[idx]`` without
re-lookup.
"""

from __future__ import annotations

import numpy as np

from repro.graph.bipartite import BipartiteGraph
from repro.graph.capacity import CapacitatedBipartiteGraph
from repro.matching.hopcroft_karp import hopcroft_karp

__all__ = [
    "b_matching_weight",
    "edge_indices",
    "exact_b_matching",
    "greedy_b_matching",
    "verify_b_matching",
]


def edge_indices(graph: BipartiteGraph, edges: np.ndarray) -> np.ndarray:
    """Row indices in ``graph.edges`` of the given global-id edge array.

    Raises when an edge is not present in the graph.
    """
    rows = graph.edge_rows(edges)
    if (rows < 0).any():
        raise ValueError("edge array contains edges not present in the graph")
    return rows


def greedy_b_matching(graph: CapacitatedBipartiteGraph) -> np.ndarray:
    """Weight-descending greedy b-matching; edge-index array.

    Ties break by canonical edge order, so the result is a pure function
    of the graph — no RNG involved.
    """
    m = graph.n_edges
    if m == 0:
        return np.zeros(0, dtype=np.int64)
    order = np.argsort(-graph.weights, kind="stable")
    residual = graph.capacities.astype(np.int64).copy()
    right_free = np.ones(graph.n_right, dtype=bool)
    left = graph.edges[:, 0]
    right = graph.edges[:, 1] - graph.n_left
    chosen: list[int] = []
    for j in order.tolist():
        u = left[j]
        v = right[j]
        if residual[u] > 0 and right_free[v]:
            residual[u] -= 1
            right_free[v] = False
            chosen.append(j)
    return np.sort(np.asarray(chosen, dtype=np.int64))


def exact_b_matching(graph: CapacitatedBipartiteGraph) -> np.ndarray:
    """Maximum-cardinality b-matching; edge-index array.

    Left-cloning reduction: vertex ``u`` becomes ``b(u)`` clones, each
    original edge is replicated to every clone of its left endpoint, and
    Hopcroft–Karp solves the cloned instance exactly.  Each matched clone
    edge folds back to a distinct original edge (a right vertex is matched
    at most once), so the fold-back is injective and the result optimal.
    """
    m = graph.n_edges
    if m == 0:
        return np.zeros(0, dtype=np.int64)
    caps = graph.capacities.astype(np.int64)
    offsets = np.zeros(graph.n_left + 1, dtype=np.int64)
    np.cumsum(caps, out=offsets[1:])
    left = graph.edges[:, 0]
    right = graph.edges[:, 1] - graph.n_left
    rep = caps[left]
    total = int(rep.sum())
    # within-replication counter 0..rep[j]-1 for each original edge j
    start = np.repeat(np.cumsum(rep) - rep, rep)
    within = np.arange(total, dtype=np.int64) - start
    clone_rows = np.repeat(offsets[left], rep) + within
    clone_cols = np.repeat(right, rep)
    cloned = BipartiteGraph.from_pairs(
        int(offsets[-1]), graph.n_right, clone_rows, clone_cols
    )
    matched = hopcroft_karp(cloned)
    if matched.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    # fold clones back: clone id -> original left vertex
    orig_left = np.searchsorted(offsets, matched[:, 0], side="right") - 1
    orig_right_global = (matched[:, 1] - cloned.n_left) + graph.n_left
    folded = np.stack([orig_left, orig_right_global], axis=1)
    return np.sort(edge_indices(graph, folded))


def verify_b_matching(
    graph: CapacitatedBipartiteGraph, indices: np.ndarray
) -> bool:
    """True iff the edge-index set is a feasible b-matching: valid distinct
    rows, every right vertex used at most once, every left vertex within
    its capacity."""
    idx = np.asarray(indices, dtype=np.int64).reshape(-1)
    if idx.size == 0:
        return True
    if idx.min() < 0 or idx.max() >= graph.n_edges:
        return False
    if np.unique(idx).size != idx.size:
        return False
    left = graph.edges[idx, 0]
    right = graph.edges[idx, 1]
    if np.bincount(right - graph.n_left, minlength=graph.n_right).max() > 1:
        return False
    usage = np.bincount(left, minlength=graph.n_left)
    return bool((usage <= graph.capacities).all())


def b_matching_weight(
    graph: CapacitatedBipartiteGraph, indices: np.ndarray
) -> float:
    """Total weight of the edges at the given indices."""
    idx = np.asarray(indices, dtype=np.int64).reshape(-1)
    if idx.size == 0:
        return 0.0
    return float(graph.weights[idx].sum())
