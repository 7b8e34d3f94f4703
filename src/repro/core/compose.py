"""Composition: turn a collection of coresets into a final solution.

For matching (Theorem 1) the coordinator simply runs *any* maximum matching
algorithm on ``H := ALG(G^(1)) ∪ ... ∪ ALG(G^(k))``; a cheaper greedy
combiner (maximal matching of H) is also provided — it still inherits the
O(1) guarantee because GreedyMatch (§3.1) shows H contains a large matching
built greedily, and a maximal matching is at worst a further factor 2 off.

For vertex cover (Theorem 2) the final cover is

    (∪_i V^(i)_cs)  ∪  VertexCover(∪_i G^(i)_Δ)

where the second term may be computed exactly (König, bipartite) or
2-approximately (matching-based) — the paper's ratio only needs the latter.
"""

from __future__ import annotations

from typing import Literal, Sequence

import numpy as np

from repro.core.vc_coreset import VCCoresetResult
from repro.cover.konig import konig_cover
from repro.cover.two_approx import matching_based_cover
from repro.graph.bipartite import BipartiteGraph
from repro.graph.edgelist import Graph
from repro.matching.api import Algorithm, maximum_matching
from repro.matching.maximal import greedy_maximal_matching
from repro.utils.rng import RandomState

__all__ = [
    "compose_cover",
    "compose_matching",
    "compose_vertex_cover",
    "union_of_coresets",
]

MatchCombiner = Literal["exact", "greedy"]
CoverCombiner = Literal["two_approx", "konig", "auto"]


def union_of_coresets(
    n_vertices: int,
    coresets: Sequence[np.ndarray],
    template: Graph | None = None,
) -> Graph:
    """``H = ∪_i ALG(G^(i))`` as a graph (bipartite if the template is)."""
    if coresets:
        stacked = np.vstack([np.asarray(c, dtype=np.int64).reshape(-1, 2)
                             for c in coresets])
    else:
        stacked = np.zeros((0, 2), dtype=np.int64)
    if isinstance(template, BipartiteGraph):
        return BipartiteGraph(template.n_left, template.n_right, stacked)
    return Graph(n_vertices, stacked)


def compose_matching(
    n_vertices: int,
    coresets: Sequence[np.ndarray],
    combiner: MatchCombiner = "exact",
    algorithm: Algorithm = "auto",
    template: Graph | None = None,
    rng: RandomState = None,
) -> np.ndarray:
    """Final matching from the union of matching coresets.

    The ``greedy`` combiner scans the union in canonical edge order when
    ``rng`` is None, so protocols stay bit-reproducible per seed (as
    :func:`~repro.cover.two_approx.matching_based_cover` does), and in a
    random order drawn from ``rng`` otherwise.
    """
    h = union_of_coresets(n_vertices, coresets, template)
    if combiner == "exact":
        return maximum_matching(h, algorithm=algorithm)
    if combiner == "greedy":
        order = "input" if rng is None else "random"
        return greedy_maximal_matching(h, order=order, rng=rng)
    raise ValueError(f"unknown matching combiner {combiner!r}")


def compose_vertex_cover(
    n_vertices: int,
    coresets: Sequence[VCCoresetResult],
    combiner: CoverCombiner = "auto",
    template: Graph | None = None,
    rng: RandomState = None,
) -> np.ndarray:
    """Final vertex cover: union of fixed sets plus a cover of the union of
    residual subgraphs (see :func:`compose_cover`)."""
    return compose_cover(
        n_vertices,
        [c.residual.edges for c in coresets],
        [c.fixed_vertices for c in coresets],
        combiner=combiner,
        template=template,
        rng=rng,
    )


def compose_cover(
    n_vertices: int,
    residuals: Sequence[np.ndarray],
    fixed: Sequence[np.ndarray],
    combiner: CoverCombiner = "auto",
    template: Graph | None = None,
    rng: RandomState = None,
) -> np.ndarray:
    """Theorem 2's composition straight from the messages: the k residual
    edge arrays are validated and canonicalized once, as one union graph,
    and the cover is the sorted union of every fixed set with a cover of
    that graph, read off a mask over the vertices."""
    residual_union = union_of_coresets(n_vertices, residuals, template)
    if combiner == "auto":
        combiner = "konig" if isinstance(residual_union, BipartiteGraph) else "two_approx"
    if combiner == "konig":
        if not isinstance(residual_union, BipartiteGraph):
            raise TypeError("König combiner requires a bipartite template")
        residual_cover = konig_cover(residual_union)
    elif combiner == "two_approx":
        residual_cover = matching_based_cover(residual_union, rng=rng)
    else:
        raise ValueError(f"unknown cover combiner {combiner!r}")

    covered = np.zeros(n_vertices, dtype=bool)
    covered[residual_cover] = True
    for part in fixed:
        covered[part] = True
    return np.flatnonzero(covered)
