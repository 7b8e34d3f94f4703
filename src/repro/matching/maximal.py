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

    return _greedy_in_order(graph.n_vertices, e[perm, 0], e[perm, 1])


#: Block size of the scan's vectorized prefilter.  Large enough that the
#: numpy gather amortizes, small enough that ``taken`` is usually stale for
#: only a fraction of a block.
_SCAN_BLOCK = 8192

#: Greedy rounds run only on inputs with at most this many edges per
#: vertex.  On denser inputs a round removes few edges in canonical order
#: and the scan's prefilter already rejects most blocks in one mask, so
#: the scan alone is faster.  Measured at n = 4·10⁴ (uniform and skewed
#: graphs, canonical and random order): rounds take 0.47–0.91 of the
#: scan's time at 2 edges per vertex, 0.58–1.02 at 3, and up to 1.14 in
#: canonical order at 3.5–5; in random order they win up to about 8.
_ROUNDS_MAX_DENSITY = 3


def _greedy_in_order(
    n_vertices: int, eu: np.ndarray, ev: np.ndarray
) -> np.ndarray:
    """The greedy maximal matching of the edges in the given order: rounds
    then the scan on sparse inputs, the scan alone on dense ones.  Both
    give the scan's output, row for row."""
    if eu.shape[0] <= _ROUNDS_MAX_DENSITY * n_vertices:
        return _rounds_then_scan(n_vertices, eu, ev)
    return _sequential_scan(n_vertices, eu, ev)


def _sequential_scan(
    n_vertices: int, eu: np.ndarray, ev: np.ndarray
) -> np.ndarray:
    """The order-respecting greedy scan over an already-permuted edge list
    (see :func:`_scan`); the matched edges in scan order."""
    return _rows(eu, ev, _scan(np.zeros(n_vertices, dtype=bool), eu, ev))


def _rounds_then_scan(
    n_vertices: int, eu: np.ndarray, ev: np.ndarray
) -> np.ndarray:
    """The scan's matching, computed mostly in vectorized rounds.

    An edge whose position is the smallest among the live edges at both of
    its endpoints is taken by the scan, since no earlier edge can claim
    either endpoint; every other live edge at those endpoints comes later
    and is rejected.  A round takes all such edges at once and drops the
    edges they touch (Blelloch, Fineman and Shun, SPAA 2012).  The live
    edges left never touch a taken vertex, so the scan finishes them from
    the same ``taken`` state.  Rounds stop once one removes less than half
    of the live edges.  The matched positions, sorted, are the scan's rows
    in the scan's order.
    """
    m = eu.shape[0]
    taken = np.zeros(n_vertices, dtype=bool)
    best = np.empty(n_vertices, dtype=np.int64)
    live = np.arange(m)
    lu, lv = eu, ev
    won = []
    while live.size:
        best.fill(m)
        np.minimum.at(best, lu, live)
        np.minimum.at(best, lv, live)
        win = (best[lu] == live) & (best[lv] == live)
        won.append(live[win])
        taken[lu[win]] = True
        taken[lv[win]] = True
        keep = ~(taken[lu] | taken[lv])
        before = live.size
        live, lu, lv = live[keep], lu[keep], lv[keep]
        if 2 * live.size > before:
            break
    won.append(live[_scan(taken, lu, lv)])
    return _rows(eu, ev, np.sort(np.concatenate(won)))


def _scan(taken: np.ndarray, eu: np.ndarray, ev: np.ndarray) -> np.ndarray:
    """The greedy scan from a ``taken`` state (updated in place); returns
    the positions of the edges it takes, ascending.

    The scan is inherently sequential — whether edge t is taken depends on
    every earlier decision — but *rejections* need not be: an edge whose
    endpoint was matched in an earlier block can never become free again
    (``taken`` only grows), so each block of edges is prefiltered with one
    vectorized mask against the ``taken`` state at the block boundary, and
    only the survivors enter the Python loop (which re-checks them against
    intra-block conflicts).  Positions land in a preallocated buffer: a
    matching has at most ``n`` rows.  Output is bit-identical to the
    naive one-edge-at-a-time scan (a hypothesis differential test checks
    it against that scan, kept in ``tests/oracles.py``).
    """
    m = eu.shape[0]
    # Capacity bound: every kept edge marks >= 1 new vertex taken (a
    # self-loop marks exactly one, a proper edge two), so at most
    # n_vertices positions are ever written even on raw input.
    out = np.empty(min(m, taken.shape[0]), dtype=np.int64)
    j = 0
    for start in range(0, m, _SCAN_BLOCK):
        bu = eu[start:start + _SCAN_BLOCK]
        bv = ev[start:start + _SCAN_BLOCK]
        free = ~(taken[bu] | taken[bv])
        if not free.any():
            continue
        idx = np.flatnonzero(free)
        for t, u, v in zip(idx.tolist(), bu[idx].tolist(), bv[idx].tolist()):
            if taken[u] or taken[v]:
                continue
            taken[u] = True
            taken[v] = True
            out[j] = start + t
            j += 1
    return out[:j]


def _rows(eu: np.ndarray, ev: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """The ``(s, 2)`` int64 edges at ``positions``."""
    return np.stack([eu[positions], ev[positions]], axis=1).astype(
        np.int64, copy=False)


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
