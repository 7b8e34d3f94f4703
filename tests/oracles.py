"""Reference algorithms that only the test suite uses.

Each is a deliberately simple implementation that shares no code with the
library function it checks, so agreement on random inputs is a strong
correctness signal:

* :func:`augmenting_path_matching` — one augmenting path at a time,
  O(V·E).  Its matching *size* must equal Hopcroft–Karp's and blossom's
  (the matchings themselves may differ; only the size is canonical).
* :func:`_baseline_scan` — the one-edge-at-a-time greedy scan.  Its
  output must equal :func:`repro.matching.maximal._sequential_scan`, the
  greedy rounds (:func:`repro.matching.maximal._rounds_then_scan`) and
  ``greedy_maximal_matching(order="input")`` edge for edge.
* :func:`_baseline_graph_edges` and :func:`_baseline_is_matching` — the
  library's earlier edge canonicalization (``np.unique`` with
  first-occurrence indices, then a second argsort) and matching
  certificate (``np.isin`` over the whole edge-key array).  The current
  versions must return identical arrays and verdicts.
* :func:`_baseline_uncovered_edges` — the vertex-cover certificate one
  edge at a time over a Python set.  ``uncovered_edges`` must return its
  rows, and ``is_vertex_cover`` must hold exactly when it is empty.
* :func:`_explicit_shuffle` — round 1 of the MapReduce algorithm as the
  explicit shuffle it once ran: the source pieces stacked, one route draw
  per source, then a stable sort by destination.  The round-2 pieces the
  seeded draw of ``shuffled_k_partition`` cuts must hold the same edges.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.graph.bipartite import BipartiteGraph
from repro.utils.rng import spawn_generators

__all__ = [
    "_baseline_graph_edges",
    "_baseline_is_matching",
    "_baseline_scan",
    "_baseline_uncovered_edges",
    "_explicit_shuffle",
    "augmenting_path_matching",
]


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


def _baseline_graph_edges(edges: np.ndarray, n_vertices: int) -> np.ndarray:
    """The earlier ``Graph`` storage form: canonical orientation,
    self-loops dropped, first occurrences via
    ``np.unique(return_index=True)`` kept in input order, then a stable
    argsort by key."""
    edges = np.asarray(edges, dtype=np.int64)
    if edges.size == 0:
        return edges.reshape(0, 2)
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    ce = np.stack([lo, hi], axis=1)
    ce = ce[ce[:, 0] != ce[:, 1]]
    if ce.shape[0] == 0:
        return ce
    keys = ce[:, 0] * np.int64(n_vertices) + ce[:, 1]
    _, idx = np.unique(keys, return_index=True)
    arr = ce[np.sort(idx)]
    if arr.shape[0] > 1:
        keys = arr[:, 0] * np.int64(n_vertices) + arr[:, 1]
        arr = arr[np.argsort(keys, kind="stable")]
    return arr


def _baseline_is_matching(graph, matching: np.ndarray) -> bool:
    """The earlier ``is_matching``: membership by ``np.isin`` of the
    matched keys against every edge key of the graph."""
    m = np.asarray(matching, dtype=np.int64)
    if m.size == 0:
        return True
    m = m.reshape(-1, 2)
    if (m[:, 0] == m[:, 1]).any():
        return False
    verts = m.ravel()
    if verts.min() < 0 or verts.max() >= graph.n_vertices:
        return False
    if np.bincount(verts, minlength=graph.n_vertices).max() > 1:
        return False
    n = max(graph.n_vertices, 1)
    if graph.n_edges == 0:
        return False

    def keys(e):
        return np.minimum(e[:, 0], e[:, 1]) * np.int64(n) + np.maximum(
            e[:, 0], e[:, 1])

    return bool(np.isin(keys(m), keys(graph.edges)).all())


def _baseline_uncovered_edges(graph, cover) -> np.ndarray:
    """The edges of ``graph`` with neither endpoint in ``cover``, in edge
    order, tested one edge at a time against a Python set."""
    chosen = set(int(x) for x in np.asarray(cover).ravel().tolist())
    rows = [(u, v) for u, v in graph.edges.tolist()
            if u not in chosen and v not in chosen]
    return np.asarray(rows, dtype=np.int64).reshape(-1, 2)


def _explicit_shuffle(edges: np.ndarray, k: int, gen: np.random.Generator,
                      placement: str, shuffle: bool = True) -> List[np.ndarray]:
    """The k machines' edges after round 1 of the MapReduce algorithm.

    The k route generators are spawned from ``gen`` first.  Round 0 puts
    ``edges`` on the machines by ``placement``: consecutive
    ``np.array_split`` chunks (``"contiguous"``), or one
    ``gen.integers(0, k)`` machine per edge (``"random"``).  Without
    ``shuffle`` that placement is the answer.  Otherwise machine ``i``
    draws ``integers(0, k)`` from route generator ``i`` for each edge it
    holds, the source pieces are stacked in machine order, and a stable
    sort by destination splits them into the k new pieces.
    """
    routes = spawn_generators(gen, k)
    if placement == "contiguous":
        pieces = np.array_split(edges, k)
    else:
        dest = gen.integers(0, k, size=edges.shape[0])
        pieces = [edges[dest == i] for i in range(k)]
    if not shuffle:
        return pieces
    dests = np.concatenate([routes[i].integers(0, k, size=p.shape[0])
                            for i, p in enumerate(pieces)])
    stacked = np.vstack(pieces)[np.argsort(dests, kind="stable")]
    bounds = np.concatenate([[0], np.cumsum(np.bincount(dests, minlength=k))])
    return [stacked[bounds[j]:bounds[j + 1]] for j in range(k)]
