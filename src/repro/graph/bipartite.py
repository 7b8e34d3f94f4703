"""Bipartite graph wrapper.

The paper's hard distributions (``D_Matching``, ``D_VC``) and its MapReduce
experiments are bipartite; Hopcroft–Karp and König's theorem also require an
explicit bipartition.  We represent a bipartite graph as a plain
:class:`~repro.graph.edgelist.Graph` whose vertex ids are split as

* left side:  ``0 .. n_left - 1``
* right side: ``n_left .. n_left + n_right - 1``

so every algorithm written for ``Graph`` works unchanged, and bipartite-aware
algorithms can recover the sides in O(1).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.graph.edgelist import Graph

__all__ = ["BipartiteGraph"]


class BipartiteGraph(Graph):
    """A bipartite graph with an explicit (left, right) vertex split.

    Edges may be given either as global ids (left in ``[0, n_left)``, right
    in ``[n_left, n_left+n_right)``) or as side-local pairs via
    :meth:`from_pairs`.
    """

    __slots__ = ("_n_left", "_n_right")

    def __init__(
        self,
        n_left: int,
        n_right: int,
        edges: np.ndarray | Sequence[tuple[int, int]] | None = None,
        *,
        validated: bool = False,
    ) -> None:
        if n_left < 0 or n_right < 0:
            raise ValueError(f"side sizes must be non-negative: {n_left}, {n_right}")
        super().__init__(n_left + n_right, edges, validated=validated)
        self._n_left = int(n_left)
        self._n_right = int(n_right)
        if self.n_edges:
            u = self.edges[:, 0]
            v = self.edges[:, 1]
            # Canonical orientation guarantees u < v, so a bipartite edge must
            # have u on the left and v on the right.
            if (u >= self._n_left).any() or (v < self._n_left).any():
                raise ValueError("edges must connect the left side to the right side")

    # ------------------------------------------------------------------ #
    @classmethod
    def from_pairs(
        cls,
        n_left: int,
        n_right: int,
        left: np.ndarray | Sequence[int],
        right: np.ndarray | Sequence[int],
    ) -> "BipartiteGraph":
        """Build from side-local index arrays: edge i is (left[i], right[i]).

        ``left`` entries are in ``[0, n_left)`` and ``right`` entries in
        ``[0, n_right)``; the right side is shifted internally.
        """
        left = np.asarray(left, dtype=np.int64)
        right = np.asarray(right, dtype=np.int64)
        if left.shape != right.shape:
            raise ValueError("left and right index arrays must have equal length")
        if left.size:
            if left.min() < 0 or left.max() >= n_left:
                raise ValueError(f"left indices out of range [0, {n_left})")
            if right.min() < 0 or right.max() >= n_right:
                raise ValueError(f"right indices out of range [0, {n_right})")
        edges = np.stack([left, right + n_left], axis=1)
        return cls(n_left, n_right, edges)

    # ------------------------------------------------------------------ #
    @property
    def n_left(self) -> int:
        return self._n_left

    @property
    def n_right(self) -> int:
        return self._n_right

    @property
    def left_vertices(self) -> np.ndarray:
        return np.arange(self._n_left, dtype=np.int64)

    @property
    def right_vertices(self) -> np.ndarray:
        return np.arange(self._n_left, self._n_left + self._n_right, dtype=np.int64)

    def is_left(self, v: int | np.ndarray) -> bool | np.ndarray:
        return np.asarray(v) < self._n_left

    def local_right(self, v: int | np.ndarray) -> int | np.ndarray:
        """Convert a global right-side id to its side-local index."""
        return np.asarray(v) - self._n_left

    # Bipartite subgraphs keep the same split. ------------------------- #
    def _from_rows(self, rows: np.ndarray) -> "BipartiteGraph":
        return BipartiteGraph(
            self._n_left, self._n_right, np.take(self.edges, rows, axis=0),
            validated=True,
        )

    def union(self, *others: Graph) -> "BipartiteGraph":
        g = super().union(*others)
        return BipartiteGraph(self._n_left, self._n_right, g.edges, validated=True)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BipartiteGraph(n_left={self._n_left}, n_right={self._n_right}, "
            f"n_edges={self.n_edges})"
        )
