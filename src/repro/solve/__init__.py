"""``repro.solve`` — the unified solver facade.

One API over every matching and vertex-cover algorithm in the library,
mirroring the paper's own abstraction (every algorithm is a black box that
"outputs an arbitrary maximum matching") and the experiment registry's
design (algorithms are registered, capability-tagged objects — not import
paths)::

    from repro.solve import RunContext, solve

    result = solve(graph, "matching.coreset", RunContext(seed=0, k=8))
    result.value            # matching size
    result.verified         # certificate checked against the input
    result.stats["total_bits"]

Surface:

* :func:`solve` — run a registered solver, get a uniform
  :class:`SolveResult` (value, certificate, verified flag, stats, timing);
* :class:`RunContext` — the frozen seed/executor/workers/k context
  replacing per-function keyword soup;
* :func:`solver` / :func:`get_solver` / :func:`all_solvers` /
  :func:`solvers_for` — the capability-tagged registry
  (``repro solve --list`` on the command line);
* :func:`resolve_capability` / :func:`rank_candidates` — capability-driven
  selection: state problem/model/guarantee and get the best registered
  solver deterministically (the ``repro serve`` front door);
* :func:`load_graph` — file-or-generator-spec graph inputs for the CLI.

The per-module entry points (``repro.matching.api``, ``repro.cover``,
``repro.core.protocols``, ``repro.core.mapreduce_algos``,
``repro.baselines``, ``repro.streaming``) remain the algorithm
implementations and keep working, but new call sites should go through
this facade — see ``docs/SOLVER_API.md``.
"""

from repro.solve.capabilities import (
    CapabilityQuery,
    CapabilityResolutionError,
    rank_candidates,
    resolve_capability,
)
from repro.solve.context import RunContext
from repro.solve.graphs import load_graph
from repro.solve.registry import (
    DuplicateSolverError,
    SolverCapabilityError,
    SolverSpec,
    UnknownSolverError,
    all_solvers,
    get_solver,
    solve,
    solver,
    solver_ids,
    solvers_for,
)
from repro.solve.result import SolveResult

__all__ = [
    "CapabilityQuery",
    "CapabilityResolutionError",
    "DuplicateSolverError",
    "RunContext",
    "SolveResult",
    "SolverCapabilityError",
    "SolverSpec",
    "UnknownSolverError",
    "all_solvers",
    "get_solver",
    "load_graph",
    "rank_candidates",
    "resolve_capability",
    "solve",
    "solver",
    "solver_ids",
    "solvers_for",
]
