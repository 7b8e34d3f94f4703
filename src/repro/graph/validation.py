"""Structural validators shared by tests and protocol assertions.

Validators return ``(ok, message)`` pairs rather than raising, so protocol
code can use them as cheap runtime checks and tests can assert on the
message.
"""

from __future__ import annotations

import numpy as np

from repro.graph.bipartite import BipartiteGraph
from repro.graph.edgelist import Graph
from repro.graph.partition import PartitionedGraph

__all__ = [
    "check_graph",
    "check_bipartite",
    "check_partition",
]


def check_graph(g: Graph) -> tuple[bool, str]:
    """Validate the canonical-edge invariants of a :class:`Graph`."""
    e = g.edges
    if e.ndim != 2 or e.shape[1] != 2:
        return False, f"edge array has shape {e.shape}, expected (m, 2)"
    if e.size == 0:
        return True, "ok"
    if (e[:, 0] >= e[:, 1]).any():
        return False, "edges are not canonically oriented (u < v)"
    if e.min() < 0 or e.max() >= g.n_vertices:
        return False, "edge endpoint out of vertex range"
    keys = e[:, 0] * np.int64(max(g.n_vertices, 1)) + e[:, 1]
    if (np.diff(keys) <= 0).any():
        return False, "edges are not strictly sorted by key (duplicate edge?)"
    return True, "ok"


def check_bipartite(g: BipartiteGraph) -> tuple[bool, str]:
    """Validate the side constraint of a :class:`BipartiteGraph`."""
    ok, msg = check_graph(g)
    if not ok:
        return ok, msg
    if g.n_edges == 0:
        return True, "ok"
    if (g.edges[:, 0] >= g.n_left).any():
        return False, "left endpoint lies on the right side"
    if (g.edges[:, 1] < g.n_left).any():
        return False, "right endpoint lies on the left side"
    return True, "ok"


def check_partition(p: PartitionedGraph) -> tuple[bool, str]:
    """Each edge assigned exactly once; pieces reassemble the graph."""
    if p.assignment.shape != (p.graph.n_edges,):
        return False, "assignment length mismatch"
    if p.assignment.size and (p.assignment.min() < 0 or p.assignment.max() >= p.k):
        return False, "machine id out of range"
    total = int(p.piece_sizes().sum())
    if total != p.graph.n_edges:
        return False, f"pieces hold {total} edges, graph has {p.graph.n_edges}"
    merged = Graph(p.graph.n_vertices).union(*list(p.pieces()))
    if merged != Graph(p.graph.n_vertices, p.graph.edges, validated=True):
        return False, "union of pieces differs from the original graph"
    return True, "ok"
