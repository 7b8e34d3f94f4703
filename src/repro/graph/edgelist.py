"""Immutable edge-list graph.

The core data structure of the library.  Design goals, per the HPC guides:

* construction and all bulk operations are vectorized numpy (``argsort``,
  ``bincount``, ``unique``) — no Python loop touches every edge;
* instances are immutable (arrays are set non-writeable) so subgraphs and
  partition views can share memory safely;
* derived structures (degrees, CSR adjacency) are computed lazily and cached.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.utils.arrays import edge_keys, sorted_unique_edges, unique_vertices

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.graph.csr import CSRAdjacency

__all__ = ["Graph"]


class Graph:
    """An undirected simple graph on vertices ``0..n_vertices-1``.

    Parameters
    ----------
    n_vertices:
        Number of vertices.  Isolated vertices are allowed (and common: the
        paper's distributions produce many of them on each machine).
    edges:
        ``(m, 2)`` array-like of endpoints.  Duplicates and self-loops are
        removed; edges are stored in canonical ``u < v`` orientation sorted
        by scalar key, so two graphs with the same edge *set* compare equal.
    validated:
        Internal fast path: when True, ``edges`` is trusted to already be a
        canonical, deduplicated, sorted int64 array.  Used by subgraph views.
    """

    __slots__ = ("_n", "_edges", "__dict__")

    def __init__(
        self,
        n_vertices: int,
        edges: np.ndarray | Sequence[tuple[int, int]] | None = None,
        *,
        validated: bool = False,
    ) -> None:
        if n_vertices < 0:
            raise ValueError(f"n_vertices must be non-negative, got {n_vertices}")
        self._n = int(n_vertices)
        if edges is None:
            arr = np.zeros((0, 2), dtype=np.int64)
        else:
            arr = np.asarray(edges, dtype=np.int64)
            if arr.size == 0:
                arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(f"edges must have shape (m, 2), got {arr.shape}")
        if not validated:
            if arr.size and (arr.min() < 0 or arr.max() >= self._n):
                raise ValueError(
                    f"edge endpoints must lie in [0, {self._n}), "
                    f"got range [{arr.min()}, {arr.max()}]"
                )
            arr = sorted_unique_edges(arr, max(self._n, 1))
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        self._edges = arr

    # ------------------------------------------------------------------ #
    # buffer export / view reconstruction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_canonical_edges(cls, n_vertices: int, edges: np.ndarray) -> "Graph":
        """Zero-copy reconstruction around an already-canonical edge array.

        The counterpart of :attr:`edges`: ``Graph.from_canonical_edges(g.n_vertices,
        g.edges)`` equals ``g`` without touching a single edge byte.  Used by
        :mod:`repro.dist.shm` to rebuild graph views over shared-memory
        buffers in worker processes — the array must already be in the
        canonical ``u < v``, key-sorted, deduplicated form this class
        maintains (anything exported via :attr:`edges` qualifies).
        """
        return cls(n_vertices, edges, validated=True)

    @property
    def edge_nbytes(self) -> int:
        """Size of the canonical edge array in bytes (16 per edge)."""
        return int(self._edges.nbytes)

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def n_vertices(self) -> int:
        """Number of vertices (including isolated ones)."""
        return self._n

    @property
    def n_edges(self) -> int:
        """Number of (distinct, undirected) edges."""
        return int(self._edges.shape[0])

    @property
    def edges(self) -> np.ndarray:
        """The ``(m, 2)`` canonical edge array (read-only view)."""
        return self._edges

    @cached_property
    def degrees(self) -> np.ndarray:
        """Vertex degrees as an int64 array of length ``n_vertices``."""
        deg = np.bincount(self._edges.ravel(), minlength=self._n)
        deg = deg.astype(np.int64, copy=False)
        deg.setflags(write=False)
        return deg

    @cached_property
    def first_endpoint_blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct first endpoints of :attr:`edges`, ascending, and the
        int64 row offsets of their blocks, one longer: the edges ``(v, w)``
        with ``v < w`` of the ``j``-th first endpoint ``v`` are rows
        ``offsets[j]`` to ``offsets[j + 1]``, one block, since the edges
        are key-sorted.  Both hold at most ``n_edges + 1`` entries."""
        first = self._edges[:, 0]
        if first.size:
            offsets = np.concatenate(
                ([0], np.flatnonzero(first[1:] != first[:-1]) + 1,
                 [first.size]))
        else:
            offsets = np.zeros(1, dtype=np.int64)
        heads = first[offsets[:-1]]
        heads.setflags(write=False)
        offsets.setflags(write=False)
        return heads, offsets

    @cached_property
    def max_degree(self) -> int:
        return int(self.degrees.max()) if self._n else 0

    @cached_property
    def adjacency(self) -> "CSRAdjacency":
        """CSR adjacency structure (built lazily; see :mod:`repro.graph.csr`)."""
        from repro.graph.csr import CSRAdjacency

        return CSRAdjacency.from_edges(self._n, self._edges)

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbors of ``v`` (read-only int64 array)."""
        return self.adjacency.neighbors(v)

    def has_edge(self, u: int, v: int) -> bool:
        """Membership test via binary search over the sorted key array."""
        if u == v:
            return False
        lo, hi = (u, v) if u < v else (v, u)
        key = np.int64(lo) * np.int64(max(self._n, 1)) + np.int64(hi)
        idx = np.searchsorted(self.edge_key_array, key)
        return bool(idx < self.n_edges and self.edge_key_array[idx] == key)

    @cached_property
    def edge_key_array(self) -> np.ndarray:
        """Sorted scalar keys ``u*n+v`` of the edges, for fast set ops."""
        keys = edge_keys(self._edges, max(self._n, 1)) if self.n_edges else np.zeros(
            0, dtype=np.int64
        )
        keys.setflags(write=False)
        return keys

    def edge_rows(self, edges: np.ndarray) -> np.ndarray:
        """Row of each given edge (either orientation) in :attr:`edges`,
        or ``-1`` where it is not an edge.  Endpoints must lie in
        ``[0, n_vertices)``.  One binary search into the sorted
        :attr:`edge_key_array` per edge."""
        keys = edge_keys(np.asarray(edges, dtype=np.int64).reshape(-1, 2),
                         max(self._n, 1))
        if self.n_edges == 0:
            return np.full(keys.shape[0], -1, dtype=np.int64)
        rows = np.minimum(np.searchsorted(self.edge_key_array, keys),
                          self.n_edges - 1)
        rows[self.edge_key_array[rows] != keys] = -1
        return rows

    @cached_property
    def non_isolated_vertices(self) -> np.ndarray:
        """Vertices with degree ≥ 1, sorted."""
        verts = unique_vertices(self._edges)
        verts.setflags(write=False)
        return verts

    # ------------------------------------------------------------------ #
    # derived graphs
    # ------------------------------------------------------------------ #
    def _from_rows(self, rows: np.ndarray) -> "Graph":
        """This graph's type, data included, keeping the edges at ascending
        ``rows`` (``np.take`` beats fancy and boolean indexing severalfold)."""
        return Graph(self._n, np.take(self._edges, rows, axis=0), validated=True)

    def subgraph_from_mask(self, mask: np.ndarray) -> "Graph":
        """Same-type graph keeping the edges where ``mask`` is True."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.n_edges,):
            raise ValueError(
                f"mask must have shape ({self.n_edges},), got {mask.shape}"
            )
        return self._from_rows(np.flatnonzero(mask))

    def subgraph_from_indices(self, indices: np.ndarray) -> "Graph":
        """Same-type graph keeping the edges at the given row ``indices``.

        Indices need not be sorted: unsorted ones are sorted first, so the
        edges keep their canonical order.  Already-ascending indices (such
        as a partition's machine buckets) skip the sort.
        """
        rows = np.asarray(indices, dtype=np.int64)
        if (rows[1:] < rows[:-1]).any():
            rows = np.sort(rows)
        return self._from_rows(rows)

    def without_vertices(self, vertices: np.ndarray | Iterable[int]) -> "Graph":
        """Graph with all edges incident on ``vertices`` removed.

        Vertex set (and numbering) is preserved — this is the "peel" step of
        the vertex-cover coreset, which repeatedly deletes high-degree
        vertices but never renumbers.
        """
        drop = np.zeros(self._n, dtype=bool)
        vs = np.asarray(list(vertices) if not isinstance(vertices, np.ndarray) else vertices,
                        dtype=np.int64)
        if vs.size:
            if vs.min() < 0 or vs.max() >= self._n:
                raise ValueError("vertex id out of range")
            drop[vs] = True
        keep = ~(drop[self._edges[:, 0]] | drop[self._edges[:, 1]])
        return self.subgraph_from_mask(keep)

    def union(self, *others: "Graph") -> "Graph":
        """Union of edge sets; all graphs must share the same vertex count."""
        for g in others:
            if g.n_vertices != self._n:
                raise ValueError(
                    f"cannot union graphs on {self._n} and {g.n_vertices} vertices"
                )
        if not others:
            return self
        stacked = np.vstack([self._edges] + [g.edges for g in others])
        return Graph(self._n, stacked)

    def relabeled(self, mapping: np.ndarray, n_new: int | None = None) -> "Graph":
        """Apply the vertex relabeling ``v -> mapping[v]``.

        Used by the Remark-5.8 vertex-grouping protocol, where ``mapping``
        sends each vertex to its super-vertex.  Self-loops created by the
        contraction are dropped and parallel edges merged (the coreset for
        multigraphs only cares about the support).
        """
        mapping = np.asarray(mapping, dtype=np.int64)
        if mapping.shape != (self._n,):
            raise ValueError(f"mapping must have shape ({self._n},)")
        n_new = int(mapping.max()) + 1 if n_new is None else int(n_new)
        return Graph(n_new, mapping[self._edges])

    # ------------------------------------------------------------------ #
    # dunder / misc
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and np.array_equal(self._edges, other._edges)

    def __hash__(self) -> int:
        return hash((self._n, self._edges.tobytes()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(n_vertices={self._n}, n_edges={self.n_edges})"

    def copy_with_edges(self, edges: np.ndarray) -> "Graph":
        """New graph on the same vertex set with the given raw edge list."""
        return Graph(self._n, edges)
