"""Vertex-cover certificates."""

from __future__ import annotations

import numpy as np

from repro.graph.edgelist import Graph

__all__ = ["is_vertex_cover", "uncovered_edges", "cover_mask"]


def cover_mask(graph: Graph, cover: np.ndarray) -> np.ndarray:
    """Boolean vertex mask of the cover set (validates ids)."""
    c = np.asarray(cover, dtype=np.int64).ravel()
    mask = np.zeros(graph.n_vertices, dtype=bool)
    if c.size:
        if c.min() < 0 or c.max() >= graph.n_vertices:
            raise ValueError("cover vertex id out of range")
        mask[c] = True
    return mask


def _edge_hits(graph: Graph, cover: np.ndarray) -> np.ndarray:
    """Per edge, nonzero iff ``cover`` holds an endpoint.

    One contiguous gather of the cover mask over the raveled ``(m, 2)``
    edge array gives each edge's two endpoint flags in adjacent bytes,
    read together as one ``uint16``; two column gathers would stride
    through the edge array twice.
    """
    mask = cover_mask(graph, cover)
    return mask[graph.edges.ravel()].view(np.uint16)


def uncovered_edges(graph: Graph, cover: np.ndarray) -> np.ndarray:
    """Edges of ``graph`` with neither endpoint in ``cover`` (certificate of
    infeasibility when non-empty)."""
    return graph.edges[_edge_hits(graph, cover) == 0]


def is_vertex_cover(graph: Graph, cover: np.ndarray) -> bool:
    """True iff every edge has at least one endpoint in ``cover``.

    An edge whose first (smaller) endpoint is in the cover is covered, so
    only the rows of the other first endpoints need their second endpoint
    read.  The edges are key-sorted, so those rows are whole blocks
    (:attr:`~repro.graph.edgelist.Graph.first_endpoint_blocks`).
    """
    mask = cover_mask(graph, cover)
    heads, offsets = graph.first_endpoint_blocks
    open_blocks = np.flatnonzero(~mask[heads])
    starts = offsets[open_blocks]
    lengths = offsets[open_blocks + 1] - starts
    # Row j of the concatenated blocks is its block's start plus j, less
    # the rows of the blocks before it.
    rows = np.arange(lengths.sum()) + np.repeat(
        starts - (np.cumsum(lengths) - lengths), lengths)
    return bool(mask[graph.edges[rows, 1]].all())
