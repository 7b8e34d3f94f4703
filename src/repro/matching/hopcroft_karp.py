"""Hopcroft–Karp maximum bipartite matching, O(E·√V).

Operates on :class:`~repro.graph.bipartite.BipartiteGraph`.  The search is
scipy's compiled Hopcroft–Karp
(:func:`scipy.sparse.csgraph.maximum_bipartite_matching`); this module builds
its left×right CSR input and turns the answer into mate arrays.  The CSR
comes straight from the canonical edge array: ``Graph`` keeps its edges
sorted by ``u·n + v`` with ``u`` on the left, so the rows are already in
order and need no sort and no COO conversion.

Which maximum matching comes back is scipy's choice.  Theorem 1 accepts any
maximum matching, so only its size is invariant; the tests check it against
networkx, blossom and a test-side augmenting-path oracle.
"""

from __future__ import annotations

import numpy as np

from repro.graph.bipartite import BipartiteGraph

__all__ = ["hopcroft_karp", "hopcroft_karp_mates"]


def hopcroft_karp_mates(graph: BipartiteGraph) -> tuple[np.ndarray, np.ndarray]:
    """Run Hopcroft–Karp; return ``(mate_left, mate_right)`` in local indices.

    ``mate_left[u] = r`` means left vertex ``u`` is matched to right-local
    vertex ``r``; ``-1`` marks unmatched vertices.  Both arrays are int64.
    """
    # Imported here so that processes which never match (the 2-approx
    # vertex-cover path) do not load scipy.sparse.csgraph.
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    nl, nr = graph.n_left, graph.n_right
    edges = graph.edges
    indptr = np.zeros(nl + 1, dtype=np.int64)
    np.cumsum(np.bincount(edges[:, 0], minlength=nl), out=indptr[1:])
    biadjacency = csr_matrix(
        (np.ones(edges.shape[0], dtype=np.int8), edges[:, 1] - nl, indptr),
        shape=(nl, nr),
    )
    mate_left = maximum_bipartite_matching(biadjacency, perm_type="column")
    mate_left = mate_left.astype(np.int64)
    matched = np.flatnonzero(mate_left != -1)
    mate_right = np.full(nr, -1, dtype=np.int64)
    mate_right[mate_left[matched]] = matched
    return mate_left, mate_right


def hopcroft_karp(graph: BipartiteGraph) -> np.ndarray:
    """Maximum matching of a bipartite graph as an ``(s, 2)`` global-id
    edge array."""
    mate_left, _ = hopcroft_karp_mates(graph)
    matched = np.flatnonzero(mate_left != -1)
    if matched.size == 0:
        return np.zeros((0, 2), dtype=np.int64)
    return np.stack([matched, mate_left[matched] + graph.n_left], axis=1)
