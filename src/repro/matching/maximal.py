"""Greedy maximal matching.

A maximal matching is a 2-approximation to the maximum matching on a single
graph — but §1.2 of the paper shows it is only an Ω(k)-approximate
*randomized coreset*: the freedom to pick a bad maximal matching lets an
adversarial tie-breaking rule destroy the composed solution.  We expose the
edge-ordering policy explicitly so experiment E2 can reproduce exactly that
failure (``order="adversarial_key"``) and also show that a *random* order
does not save maximality in the worst case.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from repro.graph.edgelist import Graph
from repro.utils.rng import RandomState, as_generator

__all__ = ["greedy_maximal_matching", "complete_to_maximal"]

OrderPolicy = Literal["input", "random", "adversarial_key"]


def greedy_maximal_matching(
    graph: Graph,
    order: OrderPolicy = "random",
    rng: RandomState = None,
    priority: np.ndarray | None = None,
) -> np.ndarray:
    """Scan the edges in the given order, keeping every edge whose endpoints
    are both free.

    Parameters
    ----------
    order:
        * ``"input"`` — canonical edge order (deterministic);
        * ``"random"`` — a uniformly random order (the usual randomized
          greedy);
        * ``"adversarial_key"`` — ascending by scalar edge key, which on the
          :func:`~repro.graph.generators.layered_maximal_trap` instance
          systematically prefers trap-biclique edges (low vertex ids) and
          realizes the Ω(k) lower bound of §1.2.
    priority:
        Explicit per-edge sort key overriding ``order`` (smaller = earlier).

    Returns an ``(s, 2)`` matched-edge array.
    """
    e = graph.edges
    if e.shape[0] == 0:
        return np.zeros((0, 2), dtype=np.int64)
    if priority is not None:
        priority = np.asarray(priority)
        if priority.shape != (graph.n_edges,):
            raise ValueError(
                f"priority must have shape ({graph.n_edges},), got {priority.shape}"
            )
        perm = np.argsort(priority, kind="stable")
    elif order == "input":
        perm = np.arange(e.shape[0])
    elif order == "random":
        perm = as_generator(rng).permutation(e.shape[0])
    elif order == "adversarial_key":
        # Canonical order *is* ascending key order, but restate explicitly so
        # the policy is independent of Graph's storage convention.
        keys = e[:, 0] * np.int64(max(graph.n_vertices, 1)) + e[:, 1]
        perm = np.argsort(keys, kind="stable")
    else:  # pragma: no cover - typo guard
        raise ValueError(f"unknown order policy {order!r}")

    return _sequential_scan(
        graph.n_vertices, e[perm, 0], e[perm, 1]
    )


#: Block size of the scan's vectorized prefilter.  Large enough that the
#: numpy gather amortizes, small enough that ``taken`` is usually stale for
#: only a fraction of a block.
_SCAN_BLOCK = 8192


def _sequential_scan(
    n_vertices: int, eu: np.ndarray, ev: np.ndarray
) -> np.ndarray:
    """The order-respecting greedy scan over an already-permuted edge list.

    The scan is inherently sequential — whether edge t is taken depends on
    every earlier decision — but *rejections* need not be: an edge whose
    endpoint was matched in an earlier block can never become free again
    (``taken`` only grows), so each block of edges is prefiltered with one
    vectorized mask against the ``taken`` state at the block boundary, and
    only the survivors enter the Python loop (which re-checks them against
    intra-block conflicts).  Matched pairs land in a preallocated int64
    buffer — a matching has at most ``n/2`` edges — instead of growing two
    Python lists and stacking at the end.  Output is bit-identical to the
    naive one-edge-at-a-time scan (a hypothesis differential test checks
    it against that scan, kept in ``tests/oracles.py``).
    """
    m = eu.shape[0]
    taken = np.zeros(n_vertices, dtype=bool)
    # Capacity bound: every kept edge marks >= 1 new vertex taken (a
    # self-loop marks exactly one, a proper edge two), so at most
    # n_vertices rows are ever written even on raw, non-canonical input.
    out = np.empty((min(m, n_vertices), 2), dtype=np.int64)
    flat = out.reshape(-1)
    j = 0
    for start in range(0, m, _SCAN_BLOCK):
        bu = eu[start:start + _SCAN_BLOCK]
        bv = ev[start:start + _SCAN_BLOCK]
        free = ~(taken[bu] | taken[bv])
        if not free.any():
            continue
        idx = np.nonzero(free)[0]
        for u, v in zip(bu[idx].tolist(), bv[idx].tolist()):
            if taken[u] or taken[v]:
                continue
            taken[u] = True
            taken[v] = True
            flat[j] = u
            flat[j + 1] = v
            j += 2
    return out[: j // 2].copy()


def complete_to_maximal(
    graph: Graph,
    partial: np.ndarray,
    order: OrderPolicy = "input",
    rng: RandomState = None,
) -> np.ndarray:
    """Extend a partial matching of ``graph`` to a maximal one.

    This is the inner step of the paper's GreedyMatch combiner (§3.1): "let
    M^(i) be a maximal matching obtained by adding to M^(i-1) the edges
    [of the coreset] that do not violate the matching property."
    """
    partial = np.asarray(partial, dtype=np.int64).reshape(-1, 2)
    taken = np.zeros(graph.n_vertices, dtype=bool)
    if partial.size:
        verts = partial.ravel()
        if np.bincount(verts, minlength=graph.n_vertices).max() > 1:
            raise ValueError("partial matching is not a matching")
        taken[verts] = True
    free_mask = ~taken[graph.edges[:, 0]] & ~taken[graph.edges[:, 1]]
    addition = greedy_maximal_matching(
        graph.subgraph_from_mask(free_mask), order=order, rng=rng
    )
    if addition.size == 0:
        return partial
    if partial.size == 0:
        return addition
    return np.vstack([partial, addition])
