"""Correctness gates applied to every timed result.

A result is the JSON form of a :class:`repro.solve.result.SolveResult`
(``SolveResult.to_dict()`` in-process, the ``result`` document over
HTTP).  It passes when

* ``verified``: the facade's verifier accepted its certificate;
* ``ratio``: its approximation ratio against a certified bound lies within
  the paper's guarantee: ``opt / |M| <= 9`` for a matching (Theorem 1) and
  ``|C| / lower_bound <= log2 n`` for a vertex cover (Theorem 2);
* ``bits``: when the result carries a communication ledger, its
  ``total_bits`` equals ``2*ceil(log2 n)*total_edges +
  ceil(log2 n)*total_fixed_vertices``.

The gates return the names of the checks that failed, so a report can
print each failure by name.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["MATCHING_BOUND", "check_result", "ledger_bits"]

#: Theorem 1's approximation guarantee for the composed matching.
MATCHING_BOUND = 9.0


def ledger_bits(n_vertices: int, total_edges: int,
                total_fixed_vertices: int) -> int:
    """The ledger's bit formula for ``n`` vertices."""
    per_vertex = max(1, math.ceil(math.log2(n_vertices)))
    return 2 * per_vertex * total_edges + per_vertex * total_fixed_vertices


def check_result(result: Dict[str, Any], n_vertices: int, *,
                 matching_opt: Optional[float] = None,
                 cover_lower_bound: Optional[float] = None,
                 ) -> Tuple[List[str], Optional[float]]:
    """``(failed_check_names, ratio)`` for one result document.

    ``matching_opt`` is the exact optimum (the planted matching size) and
    ``cover_lower_bound`` a certified lower bound on the minimum cover;
    the ratio of a problem whose bound is not given is not checked and
    comes back as ``None``.
    """
    failures: List[str] = []
    if result.get("verified") is not True:
        failures.append("verified")
    value = float(result["value"])
    ratio: Optional[float] = None
    if result["problem"] == "matching" and matching_opt is not None:
        ratio = matching_opt / value if value > 0 else math.inf
        if not 1.0 <= ratio <= MATCHING_BOUND:
            failures.append("ratio")
    elif result["problem"] == "vertex_cover" and cover_lower_bound is not None:
        ratio = value / cover_lower_bound
        if not 1.0 <= ratio <= math.log2(n_vertices):  # Theorem 2
            failures.append("ratio")
    stats = result.get("stats", {})
    if "total_bits" in stats:
        expected = ledger_bits(n_vertices, int(stats["total_edges"]),
                               int(stats["total_fixed_vertices"]))
        if int(stats["total_bits"]) != expected:
            failures.append("bits")
    return failures, ratio
