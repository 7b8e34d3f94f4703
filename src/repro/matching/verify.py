"""Matching certificates: validity, maximality, perfection.

Used by tests (to validate every algorithm's output), by coreset code (cheap
runtime asserts), and by the GreedyMatch combiner (maximality is its loop
invariant).
"""

from __future__ import annotations

import numpy as np

from repro.graph.edgelist import Graph

__all__ = [
    "is_matching",
    "is_maximal_matching",
    "is_perfect_matching",
    "matched_vertices",
    "mate_array",
]


def _as_edge_array(matching: np.ndarray) -> np.ndarray:
    m = np.asarray(matching, dtype=np.int64)
    if m.size == 0:
        return m.reshape(0, 2)
    if m.ndim != 2 or m.shape[1] != 2:
        raise ValueError(f"matching must have shape (s, 2), got {m.shape}")
    return m


def matched_vertices(matching: np.ndarray) -> np.ndarray:
    """Sorted array of vertices covered by the matching."""
    m = _as_edge_array(matching)
    return np.unique(m.ravel())


def mate_array(matching: np.ndarray, n_vertices: int) -> np.ndarray:
    """Length-``n`` array: ``mate[v]`` is v's partner, or ``-1`` if unmatched.

    Raises if the edge set is not a valid matching (a vertex would need two
    mates).
    """
    m = _as_edge_array(matching)
    mate = np.full(n_vertices, -1, dtype=np.int64)
    if m.size == 0:
        return mate
    verts = m.ravel()
    if verts.min() < 0 or verts.max() >= n_vertices:
        raise ValueError("matching endpoint out of vertex range")
    counts = np.bincount(verts, minlength=n_vertices)
    if counts.max() > 1:
        offender = int(np.argmax(counts))
        raise ValueError(f"vertex {offender} is matched {counts[offender]} times")
    mate[m[:, 0]] = m[:, 1]
    mate[m[:, 1]] = m[:, 0]
    return mate


def is_matching(graph: Graph, matching: np.ndarray) -> bool:
    """True iff ``matching`` is a set of disjoint edges of ``graph``."""
    m = _as_edge_array(matching)
    if m.size == 0:
        return True
    if (m[:, 0] == m[:, 1]).any():
        return False
    verts = m.ravel()
    if verts.min() < 0 or verts.max() >= graph.n_vertices:
        return False
    if np.bincount(verts, minlength=graph.n_vertices).max() > 1:
        return False
    return bool((graph.edge_rows(m) >= 0).all())


def is_maximal_matching(graph: Graph, matching: np.ndarray) -> bool:
    """True iff no edge of ``graph`` can be added to ``matching``."""
    if not is_matching(graph, matching):
        return False
    covered = np.zeros(graph.n_vertices, dtype=bool)
    m = _as_edge_array(matching)
    if m.size:
        covered[m.ravel()] = True
    e = graph.edges
    if e.size == 0:
        return True
    addable = ~covered[e[:, 0]] & ~covered[e[:, 1]]
    return not addable.any()


def is_perfect_matching(graph: Graph, matching: np.ndarray) -> bool:
    """True iff the matching covers every *non-isolated* vertex.

    We use the non-isolated convention because the paper's machine subgraphs
    keep the full vertex set ``V`` with many isolated vertices.
    """
    if not is_matching(graph, matching):
        return False
    covered = matched_vertices(matching)
    return np.array_equal(covered, graph.non_isolated_vertices)
