"""Maximum/maximal matching algorithms.

The coreset of Theorem 1 is "any maximum matching" of each machine's
subgraph; this package provides several independent implementations so that
the algorithm-independence of the theorem can itself be tested:

* :func:`~repro.matching.hopcroft_karp.hopcroft_karp` — bipartite, O(E√V),
  scipy's compiled Hopcroft–Karp;
* :func:`~repro.matching.blossom.blossom_maximum_matching` — general graphs;
* :func:`~repro.matching.maximal.greedy_maximal_matching` — the (provably
  insufficient, §1.2) maximal-matching heuristic;
* :func:`~repro.matching.weighted.greedy_weighted_matching` — 2-approximation
  for weighted matching.

All return an ``(s, 2)`` int64 edge array; :mod:`repro.matching.verify`
provides validity/maximality/optimality certificates.
"""

from repro.matching.api import maximal_matching, maximum_matching
from repro.matching.blossom import blossom_maximum_matching
from repro.matching.hopcroft_karp import hopcroft_karp
from repro.matching.maximal import greedy_maximal_matching
from repro.matching.verify import (
    is_matching,
    is_maximal_matching,
    is_perfect_matching,
    matched_vertices,
    mate_array,
)
from repro.matching.weighted import exact_weighted_matching, greedy_weighted_matching

__all__ = [
    "blossom_maximum_matching",
    "exact_weighted_matching",
    "greedy_maximal_matching",
    "greedy_weighted_matching",
    "hopcroft_karp",
    "is_matching",
    "is_maximal_matching",
    "is_perfect_matching",
    "matched_vertices",
    "mate_array",
    "maximal_matching",
    "maximum_matching",
]
