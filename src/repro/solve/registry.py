"""The capability-tagged solver registry and the ``solve`` facade.

Algorithms become first-class registered objects the same way experiments
did in :mod:`repro.experiments.registry`: a module-level adapter function
is registered once via the :func:`solver` decorator, carrying capability
metadata (problem, model, guarantee, bipartite-only?, weighted?), and every
consumer — the CLI, the experiment trials, the benchmarks — resolves
solvers by name instead of importing algorithm functions directly::

    from repro.solve import RunContext, solve

    result = solve(graph, "matching.coreset", RunContext(seed=0, k=8))
    result.value, result.verified, result.stats["total_bits"]

The registry preserves registration order; :func:`solver_ids` and
:func:`all_solvers` iterate in that order (matching solvers first, then
vertex cover, offline before distributed — the order ``repro solve
--list`` prints).

Adapter contract
----------------
An adapter is a module-level function ``fn(graph, ctx, **params) ->
(certificate, stats)``: it derives any randomness it needs from
``ctx.generators(...)`` (documenting the stream order in its docstring),
resolves the execution substrate through ``ctx.executor_scope()``, and
returns the raw certificate plus a flat stats dict.  Being module-level
(never a closure) keeps every :class:`SolverSpec` picklable, so solver
specs can ship to worker processes exactly like experiment trials do.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.graph.bipartite import BipartiteGraph
from repro.graph.capacity import CapacitatedBipartiteGraph
from repro.graph.weights import has_edge_weights
from repro.solve.context import RunContext
from repro.solve.result import SolveResult

__all__ = [
    "DuplicateSolverError",
    "SolverCapabilityError",
    "SolverSpec",
    "UnknownSolverError",
    "all_solvers",
    "check_fit",
    "get_solver",
    "graph_misfit",
    "solve",
    "solver",
    "solver_ids",
    "solvers_for",
]

PROBLEMS = ("matching", "vertex_cover")
MODELS = ("offline", "coreset", "mapreduce", "streaming")


class UnknownSolverError(LookupError):
    """No solver is registered under the requested name."""


class DuplicateSolverError(ValueError):
    """Two adapters tried to claim the same solver name."""


class SolverCapabilityError(ValueError):
    """The input graph or context does not satisfy a solver's capabilities."""


AdapterFn = Callable[..., Tuple[np.ndarray, Dict[str, Any]]]


@dataclass(frozen=True)
class SolverSpec:
    """One registered solver: capability metadata plus the adapter.

    ``params`` documents the solver-specific keyword parameters and their
    defaults (``alpha`` for subsampled coresets, ``memory_edges`` for
    filtering, ...); ``solve`` merges caller overrides over them.
    """

    name: str
    problem: str
    model: str
    guarantee: str
    description: str
    fn: AdapterFn
    bipartite_only: bool = False
    weighted: bool = False
    #: Capacitated (b-matching / AdWords) solvers require a
    #: :class:`~repro.graph.capacity.CapacitatedBipartiteGraph` — and the
    #: gate is two-way: a capacitated *input* also refuses non-capacitated
    #: solvers, because silently dropping budgets would report an answer to
    #: a different problem.
    capacitated: bool = False
    uses_k: bool = False
    #: Reference/baseline algorithms (the ``repro.baselines`` family):
    #: kept in the registry for experiments and explicit requests, but
    #: capability-driven selection prefers any non-baseline candidate —
    #: "ship every edge" must never win a best-solver query just because
    #: shipping everything is exact.
    baseline: bool = False
    params: Mapping[str, Any] = field(default_factory=dict)
    #: What ``SolveResult.value`` reports: ``"size"`` counts certificate
    #: rows; ``"weight"`` reads the adapter's mandatory ``stats["weight"]``
    #: (solution weight).  Explicit here so an adapter adding an
    #: *informational* weight stat can never silently change the objective.
    objective: str = "size"

    def capabilities(self) -> Dict[str, Any]:
        """The metadata dict ``repro solve --list`` renders."""
        return {
            "name": self.name,
            "problem": self.problem,
            "model": self.model,
            "guarantee": self.guarantee,
            "bipartite_only": self.bipartite_only,
            "weighted": self.weighted,
            "capacitated": self.capacitated,
            "uses_k": self.uses_k,
            "baseline": self.baseline,
            "objective": self.objective,
            "params": dict(self.params),
            "description": self.description,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SolverSpec({self.name!r}, problem={self.problem!r}, "
            f"model={self.model!r}, guarantee={self.guarantee!r})"
        )


_REGISTRY: Dict[str, SolverSpec] = {}


def solver(
    name: str,
    *,
    problem: str,
    model: str,
    guarantee: str,
    description: str,
    bipartite_only: bool = False,
    weighted: bool = False,
    capacitated: bool = False,
    uses_k: bool = False,
    baseline: bool = False,
    params: Mapping[str, Any] | None = None,
    objective: str = "size",
) -> Callable[[AdapterFn], AdapterFn]:
    """Register a module-level adapter function as a named solver."""
    if problem not in PROBLEMS:
        raise ValueError(f"problem must be one of {PROBLEMS}, got {problem!r}")
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}, got {model!r}")
    if objective not in ("size", "weight"):
        raise ValueError(
            f"objective must be 'size' or 'weight', got {objective!r}"
        )
    key = name.strip().lower()

    def decorate(fn: AdapterFn) -> AdapterFn:
        if key in _REGISTRY:
            raise DuplicateSolverError(
                f"solver name {key!r} is already registered "
                f"(by {_REGISTRY[key].fn.__name__})"
            )
        _REGISTRY[key] = SolverSpec(
            name=key,
            problem=problem,
            model=model,
            guarantee=guarantee,
            description=description,
            fn=fn,
            bipartite_only=bipartite_only,
            weighted=weighted,
            capacitated=capacitated,
            uses_k=uses_k,
            baseline=baseline,
            params=dict(params or {}),
            objective=objective,
        )
        return fn

    return decorate


def _ensure_registered() -> None:
    # Adapters live in repro.solve.adapters and register on import; make
    # lookups work even when the caller imported only this module.
    import repro.solve.adapters  # noqa: F401


def get_solver(name: str) -> SolverSpec:
    """Look up a spec by name (case-insensitive).

    Accepts the full registered name (``"matching.coreset"``) or a bare
    suffix (``"coreset"``) when it is unambiguous across problems; pass
    ``"<problem>.<suffix>"`` to disambiguate.
    """
    _ensure_registered()
    key = name.strip().lower()
    if key in _REGISTRY:
        return _REGISTRY[key]
    suffix_hits = [s for s in _REGISTRY.values()
                   if s.name.split(".", 1)[-1] == key]
    if len(suffix_hits) == 1:
        return suffix_hits[0]
    if len(suffix_hits) > 1:
        raise UnknownSolverError(
            f"solver name {name!r} is ambiguous: "
            f"{', '.join(s.name for s in suffix_hits)}"
        )
    raise UnknownSolverError(
        f"unknown solver {name!r}; available: {', '.join(_REGISTRY)}"
    )


def solver_ids() -> List[str]:
    """All registered names, in registration order."""
    _ensure_registered()
    return list(_REGISTRY)


def all_solvers() -> List[SolverSpec]:
    """All registered specs, in registration order."""
    _ensure_registered()
    return list(_REGISTRY.values())


def solvers_for(
    problem: Optional[str] = None, model: Optional[str] = None
) -> List[SolverSpec]:
    """Specs filtered by problem and/or model, in registration order."""
    return [
        s for s in all_solvers()
        if (problem is None or s.problem == problem)
        and (model is None or s.model == model)
    ]


# --------------------------------------------------------------------- #
# the facade
# --------------------------------------------------------------------- #
def graph_misfit(spec: SolverSpec, graph: Any) -> Optional[str]:
    """Why ``spec`` cannot run on ``graph``, or ``None`` when it can.

    The one graph-type rule: bipartite-only solvers need a
    :class:`~repro.graph.bipartite.BipartiteGraph`, weighted solvers edge
    weights, and capacitated solvers a
    :class:`~repro.graph.capacity.CapacitatedBipartiteGraph` — which, the
    other way round, no solver that ignores capacities may take (it would
    silently answer a different problem).
    """
    kind = type(graph).__name__
    if spec.bipartite_only and not isinstance(graph, BipartiteGraph):
        return f"solver {spec.name!r} requires a BipartiteGraph, got {kind}"
    if spec.weighted and not has_edge_weights(graph):
        return f"solver {spec.name!r} requires edge weights, got {kind}"
    capacitated = isinstance(graph, CapacitatedBipartiteGraph)
    if spec.capacitated and not capacitated:
        return (f"solver {spec.name!r} requires a CapacitatedBipartiteGraph, "
                f"got {kind}")
    if capacitated and not spec.capacitated:
        return (f"solver {spec.name!r} ignores capacities; a capacitated "
                f"input needs a capacitated solver (it would silently "
                f"answer a different problem)")
    return None


def check_fit(spec: SolverSpec, graph: Any, params: Mapping[str, Any]) -> None:
    """The checks :func:`solve` runs before the solver, for callers that
    must refuse a request before it reaches one (``repro serve``).

    Raises :class:`SolverCapabilityError` when :func:`graph_misfit` names a
    reason, and ``ValueError`` for a parameter the solver does not have.
    """
    reason = graph_misfit(spec, graph)
    if reason is not None:
        raise SolverCapabilityError(reason)
    unknown = sorted(set(params) - set(spec.params))
    if unknown:
        raise ValueError(
            f"solver {spec.name!r} has no parameter(s) "
            f"{', '.join(unknown)}; settable: "
            f"{', '.join(sorted(spec.params)) or '(none)'}"
        )


def solve(
    graph,
    solver_name: str,
    ctx: RunContext | None = None,
    *,
    verify: bool = True,
    **params: Any,
) -> SolveResult:
    """Run one registered solver on ``graph`` and return a
    :class:`~repro.solve.result.SolveResult`.

    ``ctx`` defaults to ``RunContext()`` (fresh entropy, serial execution).
    ``params`` overrides the solver's registered parameter defaults;
    unknown parameter names are rejected so typos fail loudly.  Capability
    checks (:func:`check_fit`) run before the solver.

    ``verify=True`` (the default) checks the certificate with the
    problem's verifier and records the outcome in ``result.verified``;
    ``verify=False`` skips the check (``verified`` is then ``False`` and
    ``stats["verify_skipped"]`` is set) for hot loops that re-verify in
    bulk elsewhere.
    """
    spec = get_solver(solver_name)
    ctx = RunContext() if ctx is None else ctx
    check_fit(spec, graph, params)
    merged = {**spec.params, **params}

    start = time.perf_counter()
    certificate, stats = spec.fn(graph, ctx, **merged)
    wall = time.perf_counter() - start

    certificate = np.asarray(certificate, dtype=np.int64)
    if spec.problem == "matching":
        certificate = certificate.reshape(-1, 2)
    else:
        certificate = certificate.reshape(-1)
    stats = dict(stats)

    verified = False
    if verify:
        verified = _verify_certificate(spec.problem, graph, certificate)
    else:
        stats["verify_skipped"] = True

    # The objective is declared per spec, never inferred from stats keys —
    # an adapter adding an informational "weight" stat cannot silently
    # change what value means.
    if spec.objective == "weight":
        value = float(stats["weight"])
    else:
        value = float(certificate.shape[0])
    return SolveResult(
        problem=spec.problem,
        solver=spec.name,
        value=value,
        certificate=certificate,
        verified=verified,
        stats=stats,
        wall_time_s=wall,
    )


def _verify_certificate(problem: str, graph, certificate: np.ndarray) -> bool:
    if problem == "matching":
        from repro.graph.capacity import CapacitatedBipartiteGraph

        if isinstance(graph, CapacitatedBipartiteGraph):
            from repro.workloads.bmatching import edge_indices, verify_b_matching

            try:
                idx = edge_indices(graph, certificate)
            except ValueError:
                return False
            return verify_b_matching(graph, idx)
        from repro.matching.verify import is_matching

        return bool(is_matching(graph, certificate))
    from repro.cover.verify import is_vertex_cover

    return bool(is_vertex_cover(graph, certificate))
