"""Matching-based 2-approximate vertex cover.

Take any maximal matching and return *both* endpoints of every matched edge.
Feasibility: an uncovered edge could be added to the matching, contradicting
maximality.  Ratio: any cover must contain ≥ 1 endpoint per matched edge, so
``|cover| = 2|M| ≤ 2·VC(G)``.  This is the coordinator-side "compute the
vertex cover of the union of residual graphs to within a factor of 2" step
of Theorem 2.
"""

from __future__ import annotations

import numpy as np

from repro.graph.edgelist import Graph
from repro.matching.maximal import greedy_maximal_matching
from repro.utils.rng import RandomState

__all__ = ["matching_based_cover"]


def matching_based_cover(
    graph: Graph, rng: RandomState = None, matching: np.ndarray | None = None
) -> np.ndarray:
    """2-approximate vertex cover from a maximal matching.

    ``matching`` may be supplied (must be maximal in ``graph``); otherwise a
    greedy maximal matching is computed — in canonical edge order when
    ``rng`` is None (so protocols stay bit-reproducible by default), in a
    random order when an RNG is given.
    """
    if matching is None:
        if rng is None:
            matching = greedy_maximal_matching(graph, order="input")
        else:
            matching = greedy_maximal_matching(graph, order="random", rng=rng)
    m = np.asarray(matching, dtype=np.int64).reshape(-1, 2)
    covered = np.zeros(graph.n_vertices, dtype=bool)
    covered[m.ravel()] = True
    return np.flatnonzero(covered)
