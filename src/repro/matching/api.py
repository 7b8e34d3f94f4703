"""Front-door matching API.

``maximum_matching(g)`` dispatches to Hopcroft–Karp for bipartite inputs and
to the blossom algorithm otherwise; the coreset code calls only this
function, which is exactly the paper's "ALG outputs an arbitrary maximum
matching" black box.

.. deprecated::
    As an *entry point* this module is superseded by the unified solver
    facade: ``repro.solve.solve(graph, "matching.maximum", ctx)`` (see
    ``docs/SOLVER_API.md``).  The functions here remain the algorithm
    implementations the facade adapters call, and existing imports keep
    working unchanged.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from repro.graph.bipartite import BipartiteGraph
from repro.graph.edgelist import Graph
from repro.matching.blossom import blossom_maximum_matching
from repro.matching.hopcroft_karp import hopcroft_karp
from repro.matching.maximal import OrderPolicy, greedy_maximal_matching
from repro.utils.rng import RandomState

__all__ = ["maximum_matching", "maximal_matching", "matching_number"]

Algorithm = Literal["auto", "hopcroft_karp", "blossom"]


def maximum_matching(graph: Graph, algorithm: Algorithm = "auto") -> np.ndarray:
    """Compute a maximum matching of ``graph``.

    ``algorithm="auto"`` picks Hopcroft–Karp when the input carries a
    bipartition and blossom otherwise.  All algorithms return an ``(s, 2)``
    int64 edge array (the particular maximum matching may differ between
    algorithms — Theorem 1 is indifferent to the choice, and our tests
    exploit that).
    """
    if algorithm == "auto":
        algorithm = "hopcroft_karp" if isinstance(graph, BipartiteGraph) else "blossom"
    if algorithm == "hopcroft_karp":
        if not isinstance(graph, BipartiteGraph):
            raise TypeError("hopcroft_karp requires a BipartiteGraph")
        return hopcroft_karp(graph)
    if algorithm == "blossom":
        return blossom_maximum_matching(graph)
    raise ValueError(f"unknown algorithm {algorithm!r}")


def maximal_matching(
    graph: Graph, rng: RandomState = None, order: OrderPolicy = "random"
) -> np.ndarray:
    """Compute a (greedy) maximal matching; see
    :func:`repro.matching.maximal.greedy_maximal_matching`.

    ``rng`` is the explicit :data:`~repro.utils.rng.RandomState` union
    (``Optional`` included), and ``order`` the
    :data:`~repro.matching.maximal.OrderPolicy` literal — both forwarded
    unchanged, so no call-site casts are needed.
    """
    return greedy_maximal_matching(graph, order=order, rng=rng)


def matching_number(graph: Graph, algorithm: Algorithm = "auto") -> int:
    """``MM(G)``: the size of a maximum matching."""
    return int(maximum_matching(graph, algorithm).shape[0])
