"""Capability-driven solver selection: ask for *what*, not *who*.

The registry (:mod:`repro.solve.registry`) tags every solver with its
capability tuple — ``problem`` × ``model`` × ``guarantee`` plus the
bipartite-only / weighted / uses-k flags.  This module closes the loop:
instead of naming a solver (``"matching.coreset"``), a caller states the
capabilities it needs and gets the *best* registered match::

    from repro.solve import resolve_capability

    spec = resolve_capability("matching", model="coreset")
    spec.name                      # -> "matching.coreset"

Resolution is the serving layer's front door (``POST /solve`` with
``{"problem": ..., "model": ...}`` instead of a solver name — see
``docs/SERVING.md``), but it is plain library surface: the CLI, notebooks,
and tests can use it directly.

Ranking
-------
Candidates are filtered by the query's hard constraints, then ranked by
three keys: **real algorithms before baselines** (a ``baseline=True``
spec like ``matching.send_everything`` is exact, but "ship every edge"
must never win a best-solver query — baselines resolve only when nothing
else matches or when named explicitly), then **guarantee quality** — the
total order in :data:`GUARANTEE_ORDER`, exact before constant-factor
before logarithmic approximations — then registration order as the
deterministic tiebreak.  Two calls with the same query always return the
same spec, and among non-baseline candidates the winner's guarantee rank
is never worse than any other's (``tests/test_solve_capabilities.py``
asserts both properties for every registered solver).

Graph awareness
---------------
Passing ``graph=`` makes resolution input-aware: bipartite-only solvers
are dropped unless the graph is a
:class:`~repro.graph.bipartite.BipartiteGraph`, weighted solvers unless it
carries edge weights, and capacitated (b-matching) solvers unless it is a
:class:`~repro.graph.capacity.CapacitatedBipartiteGraph` — with the
reverse gate too: a capacitated input only resolves to capacitated
solvers, never to one that would silently drop budgets.  This is
:func:`~repro.solve.registry.graph_misfit`, the rule ``solve()`` and
``repro serve`` check too.  Likewise ``k=None``
drops coreset-model solvers, which cannot run without a machine count
(MapReduce solvers stay: they default ``k`` to √n).  The result is a spec
that can actually *solve the input at hand*, not merely one whose tags
match.

Failures are always the typed :class:`CapabilityResolutionError` — never a
bare ``KeyError`` — carrying the query and a reason naming the constraint
that emptied the candidate pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.solve.registry import (
    MODELS,
    PROBLEMS,
    SolverCapabilityError,
    SolverSpec,
    all_solvers,
    graph_misfit,
)

__all__ = [
    "GUARANTEE_ORDER",
    "CapabilityQuery",
    "CapabilityResolutionError",
    "guarantee_rank",
    "rank_candidates",
    "resolve_capability",
]

#: Guarantee strings from best to worst.  Exact solutions beat any
#: approximation; among approximations, constant factors beat parameter-
#: and log-dependent ones.  Guarantees not listed rank after all of these
#: (alphabetically, for determinism), so a new solver with a novel
#: guarantee string is resolvable without touching this table.
GUARANTEE_ORDER: Tuple[str, ...] = (
    "exact",
    "exact-bipartite",
    "2-approx",
    "O(1)-approx",
    "O(alpha)-approx",
    "O(log W)-approx",
    "O(log n)-approx",
    "ln(n)-approx",
    "O(log n · log W)-approx",
)

_GUARANTEE_RANK: Dict[str, int] = {g: i for i, g in enumerate(GUARANTEE_ORDER)}


def guarantee_rank(guarantee: str) -> Tuple[int, str]:
    """Sort key for a guarantee string: table position, unknowns last."""
    return (_GUARANTEE_RANK.get(guarantee, len(GUARANTEE_ORDER)), guarantee)


class CapabilityResolutionError(SolverCapabilityError):
    """No registered solver satisfies a capability query.

    Carries the structured context the serving layer turns into its error
    document: the offending :class:`CapabilityQuery`, a ``reason`` naming
    the constraint that emptied the pool, and the candidate names that
    survived up to that constraint (so the message suggests what *would*
    have matched).
    """

    def __init__(self, message: str, query: "CapabilityQuery",
                 reason: str, candidates: Tuple[str, ...] = ()) -> None:
        super().__init__(message)
        self.query = query
        self.reason = reason
        self.candidates = candidates


@dataclass(frozen=True)
class CapabilityQuery:
    """A declarative request for solver capabilities.

    ``problem`` is mandatory; every other field is an optional hard
    constraint (``None`` means "don't care").  ``weighted=True`` demands a
    weighted-objective solver, ``weighted=False`` excludes them;
    ``has_k=False`` records that the caller cannot supply a machine count,
    which rules out the coreset model.
    """

    problem: str
    model: Optional[str] = None
    guarantee: Optional[str] = None
    weighted: Optional[bool] = None
    has_k: bool = True

    def to_dict(self) -> Dict[str, Any]:
        return {
            "problem": self.problem,
            "model": self.model,
            "guarantee": self.guarantee,
            "weighted": self.weighted,
            "has_k": self.has_k,
        }


@dataclass
class _Pool:
    """The shrinking candidate pool, remembering its last non-empty state."""

    specs: List[SolverSpec]
    last_alive: List[SolverSpec] = field(default_factory=list)

    def narrow(self, keep, query: CapabilityQuery, reason: str) -> None:
        self.last_alive = self.specs
        self.specs = [s for s in self.specs if keep(s)]
        if not self.specs:
            names = tuple(s.name for s in self.last_alive)
            raise CapabilityResolutionError(
                f"no solver satisfies {query.to_dict()}: {reason} "
                f"(closest candidates: {', '.join(names)})",
                query=query, reason=reason, candidates=names,
            )


def _validated_query(
    problem: str,
    model: Optional[str],
    guarantee: Optional[str],
    weighted: Optional[bool],
    has_k: bool,
) -> CapabilityQuery:
    query = CapabilityQuery(problem=problem, model=model,
                            guarantee=guarantee, weighted=weighted,
                            has_k=has_k)
    if problem not in PROBLEMS:
        raise CapabilityResolutionError(
            f"unknown problem {problem!r}; problems: {', '.join(PROBLEMS)}",
            query=query, reason="unknown problem",
        )
    if model is not None and model not in MODELS:
        raise CapabilityResolutionError(
            f"unknown model {model!r}; models: {', '.join(MODELS)}",
            query=query, reason="unknown model",
        )
    return query


def rank_candidates(
    problem: str,
    *,
    model: Optional[str] = None,
    guarantee: Optional[str] = None,
    weighted: Optional[bool] = None,
    graph: Any = None,
    has_k: bool = True,
) -> List[SolverSpec]:
    """All specs satisfying the query, best first.

    The same filters and ordering as :func:`resolve_capability` (whose
    result is element 0), but returning the whole ranked list — what the
    server's ``GET /solvers`` uses to show resolution order, and what a
    side-by-side ``/compare`` across "everything that could solve this"
    fans out over.  Raises :class:`CapabilityResolutionError` when the
    pool empties.
    """
    query = _validated_query(problem, model, guarantee, weighted, has_k)
    order = {s.name: i for i, s in enumerate(all_solvers())}
    pool = _Pool([s for s in all_solvers() if s.problem == problem])
    if not pool.specs:  # pragma: no cover - registry always covers both
        raise CapabilityResolutionError(
            f"no solver registered for problem {problem!r}",
            query=query, reason="no solver for problem",
        )
    if model is not None:
        pool.narrow(lambda s: s.model == model, query,
                    f"none of the {problem} solvers runs in the "
                    f"{model!r} model")
    if guarantee is not None:
        pool.narrow(lambda s: s.guarantee == guarantee, query,
                    f"no candidate offers guarantee {guarantee!r}")
    if weighted is not None:
        pool.narrow(lambda s: s.weighted == weighted, query,
                    "no candidate has a weighted objective" if weighted
                    else "every candidate requires edge weights")
    if not has_k:
        pool.narrow(lambda s: s.model != "coreset", query,
                    "coreset solvers need a machine count k and none "
                    "was supplied")
    if graph is not None:
        why = {s.name: graph_misfit(s, graph) for s in pool.specs}
        pool.narrow(lambda s: why[s.name] is None, query,
                    "; ".join(w for w in why.values() if w is not None))
    return sorted(
        pool.specs,
        key=lambda s: (s.baseline, guarantee_rank(s.guarantee),
                       order[s.name]),
    )


def resolve_capability(
    problem: str,
    *,
    model: Optional[str] = None,
    guarantee: Optional[str] = None,
    weighted: Optional[bool] = None,
    graph: Any = None,
    has_k: bool = True,
) -> SolverSpec:
    """The best registered solver satisfying a capability query.

    "Best" means: a non-baseline algorithm if any survives the filters,
    then the strongest guarantee (per :data:`GUARANTEE_ORDER`), then
    registration order — so resolution is deterministic for a fixed
    registry.  Raises :class:`CapabilityResolutionError` (a
    :class:`~repro.solve.registry.SolverCapabilityError` subclass) when no
    solver qualifies.
    """
    return rank_candidates(
        problem, model=model, guarantee=guarantee, weighted=weighted,
        graph=graph, has_k=has_k,
    )[0]
