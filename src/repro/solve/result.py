"""The common result type every registered solver returns.

The paper treats algorithms as black boxes ("ALG outputs an arbitrary
maximum matching"); :class:`SolveResult` is that black box's output made
concrete and uniform: a numeric **value**, a **certificate** that can be
checked against the input graph by the library's verifiers
(:mod:`repro.matching.verify`, :mod:`repro.cover.verify`), a **verified**
flag recording that the facade actually ran that check, a solver-specific
**stats** dict (communication bits, MapReduce rounds, memory high-water
marks, ...) and the wall-clock time of the solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

import numpy as np

from repro.utils.jsonable import jsonable

__all__ = ["SolveResult"]


@dataclass
class SolveResult:
    """Uniform output of :func:`repro.solve.solve`.

    Attributes
    ----------
    problem:
        ``"matching"`` or ``"vertex_cover"``.
    solver:
        The registered solver name that produced this result.
    value:
        The solution's objective value: matching size (or total weight for
        weighted solvers), cover size (or cover weight).
    certificate:
        The solution itself — an ``(s, 2)`` int64 edge array for matchings,
        a sorted int64 vertex-id array for covers.
    verified:
        True iff the certificate passed the problem's verifier against the
        input graph (``is_matching`` / ``is_vertex_cover``).  ``False``
        only when verification was explicitly skipped *or* failed; see
        ``stats["verify_skipped"]`` for the former.
    stats:
        Solver-specific metrics.  Distributed solvers report at least
        ``k`` plus their communication/rounds numbers; every solver may add
        its own keys.  Consumers (benchmarks, experiments) read metrics
        from here instead of reaching into model-specific result objects.
    wall_time_s:
        Wall-clock seconds spent inside the solver adapter (excludes
        verification).
    """

    problem: str
    solver: str
    value: float
    certificate: np.ndarray
    verified: bool
    stats: Dict[str, Any] = field(default_factory=dict)
    wall_time_s: float = 0.0

    @property
    def size(self) -> int:
        """Number of certificate rows (matched edges / cover vertices)."""
        return int(self.certificate.shape[0])

    def to_dict(self, include_certificate: bool = False) -> Dict[str, Any]:
        """A JSON-ready dict (certificate included only on request —
        it can dwarf the rest of the document)."""
        doc: Dict[str, Any] = {
            "problem": self.problem,
            "solver": self.solver,
            "value": jsonable(self.value),
            "size": self.size,
            "verified": bool(self.verified),
            "stats": jsonable(self.stats),
            "wall_time_s": round(float(self.wall_time_s), 6),
        }
        if include_certificate:
            doc["certificate"] = self.certificate.tolist()
        return doc

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SolveResult({self.solver!r}, value={self.value:g}, "
            f"size={self.size}, verified={self.verified})"
        )
