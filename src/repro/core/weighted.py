"""Weighted extensions of the coresets (paper §1.1).

**Weighted matching — Crouch–Stubbs [22], explicit in the paper.**  Edges
are bucketed into geometric weight classes ``[(1+ε)^j, (1+ε)^{j+1})`` using
an *absolute* scale (class index ``floor(log_{1+ε} w)``) so every machine
buckets identically with no coordination.  Each machine runs the Theorem 1
coreset *inside every class* of its piece and sends the union — a factor
``O(log_{1+ε} W)`` more edges.  The coordinator greedily merges class
solutions from the heaviest class down, paying the Crouch–Stubbs factor 2
(plus the unweighted coreset's O(1)) in approximation.

**Weighted vertex cover — the paper says "similar ideas of grouping by
weight ... we omit the details".**  We implement the natural completion and
document it as our reconstruction: vertices are bucketed into geometric
weight classes; each *edge* is assigned to the class of its **cheaper**
endpoint; the unweighted VC coreset runs per class; the coordinator covers
each class's residual union and keeps each class's peeled vertices.  Within
a class the cheaper-endpoint weights agree up to (1+ε), so the unweighted
O(log n) guarantee transfers with an extra (1+ε)·O(log W) loss — measured
(not just asserted) by experiment E12.

.. deprecated::
    As *entry points* these are superseded by the unified solver facade —
    ``repro.solve.solve(wg, "matching.weighted_coreset", ctx)`` /
    ``"vertex_cover.weighted_coreset"`` (see ``docs/SOLVER_API.md``); the
    protocol functions stay as the implementations the adapters call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.vc_coreset import vc_coreset
from repro.dist.ledger import CommunicationLedger
from repro.dist.message import Message
from repro.graph.edgelist import Graph
from repro.graph.partition import PartitionedGraph, random_k_partition
from repro.graph.weights import WeightedGraph
from repro.matching.api import maximum_matching
from repro.utils.rng import RandomState, spawn_generators

__all__ = [
    "WeightedMatchingResult",
    "WeightedCoverResult",
    "weighted_matching_coreset_protocol",
    "weighted_vertex_cover_protocol",
    "weight_class_index",
]


def weight_class_index(weights: np.ndarray, epsilon: float) -> np.ndarray:
    """Absolute geometric class index ``floor(log_{1+ε} w)`` per weight."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    w = np.asarray(weights, dtype=np.float64)
    if w.size and w.min() <= 0:
        raise ValueError("weights must be strictly positive")
    return np.floor(np.log(w) / math.log1p(epsilon)).astype(np.int64)


@dataclass
class WeightedMatchingResult:
    matching: np.ndarray
    weight: float
    ledger: CommunicationLedger


@dataclass
class WeightedCoverResult:
    cover: np.ndarray
    weight: float
    ledger: CommunicationLedger


# --------------------------------------------------------------------- #
# weighted matching (Crouch–Stubbs over Theorem 1)
# --------------------------------------------------------------------- #
def weighted_matching_coreset_protocol(
    wg: WeightedGraph,
    k: int,
    epsilon: float = 1.0,
    rng: RandomState = None,
    partitioned: PartitionedGraph | None = None,
) -> WeightedMatchingResult:
    """Run the weighted-matching coreset protocol end to end.

    Returns the final matching, its weight, and the communication ledger.
    ``partitioned`` may supply a pre-made partition (its graph must be
    ``wg``); otherwise a fresh random k-partition is drawn.
    """
    gens = spawn_generators(rng, k + 2)
    if partitioned is None:
        partitioned = random_k_partition(wg, k, gens[k])
    elif partitioned.graph is not wg and partitioned.graph != wg:
        raise ValueError("partition does not belong to the given weighted graph")

    ledger = CommunicationLedger(n_vertices=wg.n_vertices, k=k)
    all_edges: list[np.ndarray] = []
    for i in range(k):
        mask = partitioned.assignment == i
        piece = WeightedGraph(
            wg.n_vertices, wg.edges[mask], wg.weights[mask], validated=True
        )
        classes = weight_class_index(piece.weights, epsilon) if piece.n_edges else \
            np.zeros(0, dtype=np.int64)
        piece_coreset: list[np.ndarray] = []
        for cls in np.unique(classes):
            sub = Graph(wg.n_vertices, piece.edges[classes == cls], validated=True)
            piece_coreset.append(maximum_matching(sub, algorithm="blossom"))
        edges = (
            np.vstack(piece_coreset) if piece_coreset
            else np.zeros((0, 2), dtype=np.int64)
        )
        # Each edge also carries its (quantized) weight class: O(log log W)
        # bits/edge in principle; we charge a full class index per edge.
        aux = edges.shape[0] * 8
        ledger.record(Message(sender=i, edges=edges, aux_bits=aux))
        all_edges.append(edges)

    union = (
        np.vstack(all_edges) if all_edges else np.zeros((0, 2), dtype=np.int64)
    )
    union_wg = _weighted_subset(wg, union)
    from repro.matching.weighted import greedy_weighted_matching

    matching, weight = greedy_weighted_matching(union_wg)
    return WeightedMatchingResult(matching=matching, weight=weight, ledger=ledger)


def _weighted_subset(wg: WeightedGraph, edges: np.ndarray) -> WeightedGraph:
    """The sub-WeightedGraph of ``wg`` on the given edge rows (looked up by
    key; duplicates collapse)."""
    rows = np.unique(wg.edge_rows(edges))
    if rows.size and rows[0] < 0:
        raise ValueError("coreset edge not found in the weighted graph")
    return WeightedGraph(
        wg.n_vertices, wg.edges[rows], wg.weights[rows], validated=True
    )


# --------------------------------------------------------------------- #
# weighted vertex cover (reconstructed grouping-by-weight extension)
# --------------------------------------------------------------------- #
def weighted_vertex_cover_protocol(
    graph: Graph,
    vertex_weights: np.ndarray,
    k: int,
    epsilon: float = 1.0,
    rng: RandomState = None,
    log_slack: float = 4.0,
) -> WeightedCoverResult:
    """Run the weighted-VC coreset protocol end to end (see module docs).

    ``vertex_weights`` is a strictly positive length-n array.
    """
    w = np.asarray(vertex_weights, dtype=np.float64)
    if w.shape != (graph.n_vertices,):
        raise ValueError(
            f"vertex_weights must have shape ({graph.n_vertices},), got {w.shape}"
        )
    if w.size and w.min() <= 0:
        raise ValueError("vertex weights must be strictly positive")

    gens = spawn_generators(rng, 2)
    partitioned = random_k_partition(graph, k, gens[0])

    # Class of an edge = class of its cheaper endpoint.
    vclass = weight_class_index(w, epsilon)
    e = graph.edges
    edge_class_full = np.minimum(vclass[e[:, 0]], vclass[e[:, 1]]) if e.size else \
        np.zeros(0, dtype=np.int64)

    ledger = CommunicationLedger(n_vertices=graph.n_vertices, k=k)
    per_class_residuals: dict[int, list[np.ndarray]] = {}
    fixed_all: list[np.ndarray] = []
    for i in range(k):
        mask = partitioned.assignment == i
        piece_edges = e[mask]
        piece_classes = edge_class_full[mask]
        msg_edges: list[np.ndarray] = []
        msg_fixed: list[np.ndarray] = []
        for cls in np.unique(piece_classes):
            sub = Graph(
                graph.n_vertices, piece_edges[piece_classes == cls], validated=True
            )
            result = vc_coreset(sub, k=k, log_slack=log_slack)
            msg_edges.append(result.residual.edges)
            msg_fixed.append(result.fixed_vertices)
            per_class_residuals.setdefault(int(cls), []).append(
                result.residual.edges
            )
            if result.fixed_vertices.size:
                fixed_all.append(result.fixed_vertices)
        edges_i = (
            np.vstack(msg_edges) if msg_edges else np.zeros((0, 2), dtype=np.int64)
        )
        fixed_i = (
            np.unique(np.concatenate(msg_fixed)) if msg_fixed
            else np.zeros(0, dtype=np.int64)
        )
        ledger.record(Message(sender=i, edges=edges_i, fixed_vertices=fixed_i))

    cover_parts: list[np.ndarray] = list(fixed_all)
    from repro.cover.two_approx import matching_based_cover

    for cls, residual_list in per_class_residuals.items():
        union = Graph(graph.n_vertices, np.vstack(residual_list))
        cover_parts.append(matching_based_cover(union, rng=gens[1]))
    cover = (
        np.unique(np.concatenate(cover_parts)) if cover_parts
        else np.zeros(0, dtype=np.int64)
    )
    return WeightedCoverResult(
        cover=cover, weight=float(w[cover].sum()), ledger=ledger
    )
