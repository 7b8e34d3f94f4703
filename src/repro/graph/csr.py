"""Compressed-sparse-row adjacency built from an edge list.

CSR gives O(1) slicing of a vertex's neighbor array, which is what the
graph searches (König's alternating BFS, blossom search) need in their
inner loops.  Construction is fully vectorized: duplicate each edge in both
directions, sort by source with ``argsort``, then ``bincount`` + ``cumsum``
for the row pointers — O(m log m) with no Python-level per-edge work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CSRAdjacency"]


@dataclass(frozen=True)
class CSRAdjacency:
    """Read-only CSR adjacency: ``indices[indptr[v]:indptr[v+1]]`` are the
    neighbors of ``v``, sorted ascending within each row."""

    n_vertices: int
    indptr: np.ndarray  # (n+1,) int64
    indices: np.ndarray  # (2m,) int64

    @classmethod
    def from_edges(cls, n_vertices: int, edges: np.ndarray) -> "CSRAdjacency":
        edges = np.asarray(edges, dtype=np.int64)
        if edges.size == 0:
            indptr = np.zeros(n_vertices + 1, dtype=np.int64)
            indices = np.zeros(0, dtype=np.int64)
        else:
            src = np.concatenate([edges[:, 0], edges[:, 1]])
            dst = np.concatenate([edges[:, 1], edges[:, 0]])
            # Sort primarily by src, secondarily by dst, in one argsort over
            # the combined scalar key (fits in int64 for n ≤ ~3e9).
            order = np.argsort(src * np.int64(max(n_vertices, 1)) + dst, kind="stable")
            src = src[order]
            indices = dst[order]
            counts = np.bincount(src, minlength=n_vertices)
            indptr = np.zeros(n_vertices + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
        indptr.setflags(write=False)
        indices.setflags(write=False)
        return cls(n_vertices=int(n_vertices), indptr=indptr, indices=indices)

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbor array of ``v`` (a read-only view, no copy)."""
        if not 0 <= v < self.n_vertices:
            raise IndexError(f"vertex {v} out of range [0, {self.n_vertices})")
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        if not 0 <= v < self.n_vertices:
            raise IndexError(f"vertex {v} out of range [0, {self.n_vertices})")
        return int(self.indptr[v + 1] - self.indptr[v])

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRAdjacency(n_vertices={self.n_vertices}, "
            f"n_directed_edges={self.indices.shape[0]})"
        )
