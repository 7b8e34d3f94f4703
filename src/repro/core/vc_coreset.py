"""The vertex-cover randomized composable coreset (Theorem 2).

    VC-Coreset(G^(i)):
      1. Let Δ be the smallest integer such that n/(k·2^Δ) ≤ 4·log n, and
         define G^(i)_1 := G^(i).
      2. For j = 1 to Δ-1:
           V^(i)_j   := { vertices of degree ≥ n/(k·2^{j+1}) in G^(i)_j }
           G^(i)_{j+1} := G^(i)_j \\ V^(i)_j
      3. Return V^(i)_cs := ∪_j V^(i)_j as a fixed solution plus the graph
         G^(i)_Δ as the coreset.

This is the modified Parnas–Ron peeling: repeatedly remove ("peel") the
vertices of highest residual degree, halving the threshold each iteration,
until the residual is sparse enough (max degree O(log n) per machine) to be
shipped verbatim.  The peeled vertices go *directly* into the final cover —
the coreset is the pair (fixed vertex set, residual subgraph).

The analysis (Lemmas 3.5–3.6) shows all machines peel essentially the same
vertices — the union of the fixed sets stays O(log n)·VC(G) — which is the
quantity experiment E3 measures.

Peeling is vectorized: residual degrees come from one ``np.bincount`` over
the piece's edges and are recounted only after a level that peels.  A level
that peels nothing leaves edges and degrees unchanged, and a peeled vertex
keeps residual degree 0, below every later threshold, so it is never
counted twice.  Of the Δ = O(log(n/(k log n))) levels, each costs O(n) for
its threshold test and only those that peel cost O(m) more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.graph.edgelist import Graph

__all__ = ["PeelingTrace", "VCCoresetResult", "vc_coreset", "peeling_levels"]


@dataclass
class PeelingTrace:
    """Per-level record of one VC-Coreset execution."""

    thresholds: list[float] = field(default_factory=list)
    peeled_counts: list[int] = field(default_factory=list)
    residual_edges: list[int] = field(default_factory=list)

    @property
    def levels(self) -> int:
        return len(self.thresholds)


@dataclass(frozen=True)
class VCCoresetResult:
    """Output of VC-Coreset on one machine: the fixed solution
    ``fixed_vertices`` (= V_cs) and the residual subgraph (= G_Δ)."""

    fixed_vertices: np.ndarray
    residual: Graph
    trace: PeelingTrace

    @property
    def size_edges(self) -> int:
        return self.residual.n_edges

    @property
    def size_vertices(self) -> int:
        return int(self.fixed_vertices.shape[0])


def peeling_levels(n: int, k: int, log_slack: float = 4.0) -> int:
    """Δ: the smallest integer with ``n/(k·2^Δ) ≤ log_slack · log2(n)``.

    Returns 1 when even Δ=1 satisfies the bound trivially (the loop in the
    coreset runs for j = 1..Δ-1, so Δ ≤ 1 means "no peeling").
    """
    if n < 2 or k < 1:
        return 1
    target = log_slack * math.log2(n)
    if target <= 0:
        raise ValueError("log_slack must be positive for graphs with n >= 2")
    delta = 0
    while n / (k * 2.0**delta) > target:
        delta += 1
    return max(delta, 1)


def vc_coreset(
    piece: Graph,
    n: int | None = None,
    k: int = 1,
    log_slack: float = 4.0,
) -> VCCoresetResult:
    """Run VC-Coreset on one machine's piece.

    Parameters
    ----------
    piece:
        the machine's subgraph ``G^(i)`` (on the full vertex set).
    n:
        the *global* number of vertices (defaults to ``piece.n_vertices``;
        they coincide in our representation, but the parameter is explicit
        because the peeling thresholds are global quantities).
    k:
        the number of machines in the partitioning — the thresholds
        ``n/(k·2^{j+1})`` depend on it.
    log_slack:
        the constant in the stopping rule (the paper uses 4).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n = piece.n_vertices if n is None else int(n)
    delta = peeling_levels(n, k, log_slack)

    trace = PeelingTrace()
    alive_edges = piece.edges
    degrees = np.bincount(alive_edges.ravel(), minlength=piece.n_vertices)
    peeled_mask = np.zeros(piece.n_vertices, dtype=bool)

    for j in range(1, delta):
        threshold = n / (k * 2.0 ** (j + 1))
        peel = degrees >= threshold
        peeled = int(np.count_nonzero(peel))
        if peeled:
            peeled_mask |= peel
            keep = ~peel[alive_edges[:, 0]] & ~peel[alive_edges[:, 1]]
            alive_edges = np.take(alive_edges, np.flatnonzero(keep), axis=0)
            degrees = np.bincount(alive_edges.ravel(),
                                  minlength=piece.n_vertices)
        trace.thresholds.append(threshold)
        trace.peeled_counts.append(peeled)
        trace.residual_edges.append(int(alive_edges.shape[0]))

    residual = Graph(piece.n_vertices, alive_edges, validated=True)
    fixed = np.flatnonzero(peeled_mask).astype(np.int64)
    return VCCoresetResult(fixed_vertices=fixed, residual=residual, trace=trace)
