"""LP relaxation of vertex cover: half-integral rounding and lower bounds.

The standard LP  ``min Σ x_v  s.t.  x_u + x_v ≥ 1 ∀(u,v) ∈ E, x ≥ 0``  has a
half-integral optimum (Nemhauser–Trotter); rounding every ``x_v ≥ 1/2`` up
yields a 2-approximation, and the LP value itself is a lower bound on
``VC(G)`` that experiments use to sanity-check ratios on graphs too large
for the exact solver.

Uses ``scipy.optimize.linprog`` (HiGHS) on a sparse constraint matrix.
"""

from __future__ import annotations

import numpy as np

from repro.graph.edgelist import Graph

__all__ = ["lp_cover", "lp_lower_bound", "lp_solution"]


def _solve_lp(graph: Graph) -> np.ndarray:
    # Imported here so that processes which never solve the LP (every
    # coreset solve reaches this module) do not load scipy.optimize.
    from scipy import sparse
    from scipy.optimize import linprog

    m, n = graph.n_edges, graph.n_vertices
    if m == 0:
        return np.zeros(n, dtype=np.float64)
    rows = np.repeat(np.arange(m, dtype=np.int64), 2)
    cols = graph.edges.ravel()
    data = -np.ones(2 * m, dtype=np.float64)  # -(x_u + x_v) <= -1
    a_ub = sparse.csr_matrix((data, (rows, cols)), shape=(m, n))
    res = linprog(
        c=np.ones(n),
        A_ub=a_ub,
        b_ub=-np.ones(m),
        bounds=(0.0, 1.0),
        method="highs",
    )
    if not res.success:  # pragma: no cover - LP is always feasible
        raise RuntimeError(f"vertex cover LP failed: {res.message}")
    return np.asarray(res.x, dtype=np.float64)


def lp_solution(graph: Graph) -> np.ndarray:
    """The optimal (half-integral) LP solution vector ``x``.

    Callers needing both the rounded cover *and* the LP value solve once
    here and pass the vector to :func:`lp_cover` / :func:`lp_lower_bound`
    — the LP solve is the dominant cost and should never run twice for
    one graph.
    """
    return _solve_lp(graph)


def lp_lower_bound(graph: Graph, solution: np.ndarray | None = None) -> float:
    """Optimal LP value: a lower bound on ``VC(G)`` (≥ VC/2, ≥ MM/... exact
    to within a factor 2).  ``solution`` may supply a precomputed
    :func:`lp_solution` vector."""
    x = _solve_lp(graph) if solution is None else solution
    return float(np.asarray(x).sum())


def lp_cover(
    graph: Graph, threshold: float = 0.5,
    solution: np.ndarray | None = None,
) -> np.ndarray:
    """Round the LP solution: keep vertices with ``x_v ≥ threshold``.

    With the default threshold this is the classical 2-approximation; the
    returned set is always verified feasible before returning.
    ``solution`` may supply a precomputed :func:`lp_solution` vector.
    """
    x = _solve_lp(graph) if solution is None else np.asarray(solution)
    # Guard against solver values a hair below 0.5 on tight instances.
    cover = np.flatnonzero(x >= threshold - 1e-9).astype(np.int64)
    from repro.cover.verify import is_vertex_cover

    if not is_vertex_cover(graph, cover):  # pragma: no cover - safety net
        raise RuntimeError("LP rounding produced an infeasible cover")
    return cover
