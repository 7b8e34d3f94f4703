"""Reference algorithms that only the test suite uses.

Each is a deliberately simple implementation that shares no code with the
library function it checks, so agreement on random inputs is a strong
correctness signal:

* :func:`augmenting_path_matching` — one augmenting path at a time,
  O(V·E).  Its matching *size* must equal Hopcroft–Karp's and blossom's
  (the matchings themselves may differ; only the size is canonical).
* :func:`_baseline_scan` — the one-edge-at-a-time greedy scan.  Its
  output must equal :func:`repro.matching.maximal._sequential_scan` (and
  ``greedy_maximal_matching(order="input")``) edge for edge.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.graph.bipartite import BipartiteGraph

__all__ = ["_baseline_scan", "augmenting_path_matching"]


def augmenting_path_matching(graph: BipartiteGraph) -> np.ndarray:
    """Maximum bipartite matching via repeated single-path augmentation
    (Kuhn's algorithm with an iterative DFS)."""
    nl = graph.n_left
    adj = graph.adjacency
    indptr, indices = adj.indptr, adj.indices

    mate_left = np.full(nl, -1, dtype=np.int64)
    mate_right = np.full(graph.n_right, -1, dtype=np.int64)

    for root in range(nl):
        if indptr[root] == indptr[root + 1]:
            continue
        # Iterative DFS over alternating paths from `root`.
        visited_right = np.zeros(graph.n_right, dtype=bool)
        stack = [(root, int(indptr[root]))]
        path: list[tuple[int, int]] = []
        while stack:
            u, pos = stack[-1]
            end = int(indptr[u + 1])
            advanced = False
            while pos < end:
                r = int(indices[pos]) - nl
                pos += 1
                if visited_right[r]:
                    continue
                visited_right[r] = True
                w = mate_right[r]
                if w == -1:
                    path.append((u, r))
                    for pu, pr in path:
                        mate_left[pu] = pr
                        mate_right[pr] = pu
                    stack.clear()
                    advanced = True
                    break
                stack[-1] = (u, pos)
                path.append((u, r))
                stack.append((w, int(indptr[w])))
                advanced = True
                break
            if not advanced:
                stack.pop()
                if path:
                    path.pop()

    matched = np.flatnonzero(mate_left != -1)
    if matched.size == 0:
        return np.zeros((0, 2), dtype=np.int64)
    return np.stack([matched, mate_left[matched] + nl], axis=1)


def _baseline_scan(n_vertices: int, eu: np.ndarray, ev: np.ndarray) -> np.ndarray:
    """The pre-optimization scan, kept verbatim as the comparison baseline:
    one numpy bool read per endpoint per edge, two growing Python lists,
    one ``np.stack`` at the end."""
    taken = np.zeros(n_vertices, dtype=bool)
    out_u: List[int] = []
    out_v: List[int] = []
    for u, v in zip(eu.tolist(), ev.tolist()):
        if not taken[u] and not taken[v]:
            taken[u] = True
            taken[v] = True
            out_u.append(u)
            out_v.append(v)
    if not out_u:
        return np.zeros((0, 2), dtype=np.int64)
    return np.stack(
        [np.asarray(out_u, dtype=np.int64),
         np.asarray(out_v, dtype=np.int64)], axis=1)
