"""Small vectorized array helpers shared across the library.

These are the kind of three-line numpy idioms that would otherwise be
re-implemented (subtly differently) in several modules: canonical edge
orientation, edge deduplication by sorted scalar keys, membership masks.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "canonical_edges",
    "edge_keys",
    "isin_mask",
    "sorted_unique_edges",
    "unique_vertices",
]


def canonical_edges(edges: np.ndarray) -> np.ndarray:
    """Orient each undirected edge so that ``u <= v``.

    ``edges`` is an ``(m, 2)`` int array; returns a new array (input is not
    modified).  Canonical orientation makes set operations on undirected edge
    lists well-defined.
    """
    edges = np.asarray(edges, dtype=np.int64)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ValueError(f"edges must have shape (m, 2), got {edges.shape}")
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    return np.stack([lo, hi], axis=1)


def edge_keys(edges: np.ndarray, n_vertices: int) -> np.ndarray:
    """Encode canonical edges as scalar int64 keys ``u * n + v``.

    Scalar keys let us use ``np.unique`` / ``np.isin`` on edge sets without
    structured dtypes.  Requires ``n_vertices**2`` to fit in int64, which
    holds for every graph size this library targets (n ≤ ~3·10⁹).
    """
    ce = canonical_edges(edges)
    return ce[:, 0] * np.int64(n_vertices) + ce[:, 1]


def sorted_unique_edges(edges: np.ndarray, n_vertices: int) -> np.ndarray:
    """The storage form of :class:`~repro.graph.edgelist.Graph`: canonical
    ``u < v`` edges without self-loops or duplicates, ascending by key
    ``u * n + v``.  Endpoints must lie in ``[0, n_vertices)``.

    Equal keys are equal edges, so only the keys are sorted (in place,
    skipped when they already strictly ascend) and de-duplicated with an
    adjacent-difference mask; each edge is read back off its key.
    """
    edges = np.asarray(edges, dtype=np.int64)
    if edges.size == 0:
        return edges.reshape(0, 2)
    u, v = edges[:, 0], edges[:, 1]
    keys = np.minimum(u, v)
    keys *= np.int64(n_vertices)
    keys += np.maximum(u, v)
    loops = u == v
    if loops.any():
        keys = keys[~loops]
    if keys.shape[0] > 1 and not (keys[1:] > keys[:-1]).all():
        keys.sort()
        first = np.empty(keys.shape[0], dtype=bool)
        first[0] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        keys = keys[first]
    out = np.empty((keys.shape[0], 2), dtype=np.int64)
    np.divmod(keys, np.int64(n_vertices), out=(out[:, 0], out[:, 1]))
    return out


def isin_mask(edges: np.ndarray, other: np.ndarray, n_vertices: int) -> np.ndarray:
    """Boolean mask of which rows of ``edges`` appear (undirected) in ``other``."""
    if np.asarray(edges).size == 0:
        return np.zeros(0, dtype=bool)
    if np.asarray(other).size == 0:
        return np.zeros(np.asarray(edges).shape[0], dtype=bool)
    return np.isin(edge_keys(edges, n_vertices), edge_keys(other, n_vertices))


def unique_vertices(edges: np.ndarray) -> np.ndarray:
    """Sorted array of distinct endpoints appearing in ``edges``."""
    edges = np.asarray(edges, dtype=np.int64)
    if edges.size == 0:
        return np.zeros(0, dtype=np.int64)
    return np.unique(edges.ravel())
