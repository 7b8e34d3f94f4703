"""Wire schemas and typed errors for the ``repro serve`` HTTP API.

Everything the server reads off the wire is validated here, eagerly and
field by field, so a malformed request dies at the front door with a
structured 4xx document — never inside a worker with a traceback.  The
error taxonomy is small and deliberate:

=========================== ====== =====================================
class                       status code
=========================== ====== =====================================
:class:`BadRequest`         400    ``bad_request``
:class:`NotFound`           404    ``not_found``
:class:`Conflict`           409    ``conflict``
:class:`UnresolvableCapability` 422 ``unresolvable_capability``
:class:`Overloaded`         429    ``overloaded``
:class:`SolveFailed`        500    ``solve_failed``
:class:`PoolBroken`         500    ``worker_pool_broken``
:class:`ShuttingDown`       503    ``shutting_down``
:class:`DeadlineExceeded`   504    ``deadline_exceeded``
=========================== ====== =====================================

Every error renders as ``{"error": {"code": ..., "message": ..., ...}}``
— the contract ``tests/test_serve_faults.py`` holds the server to: a
crashed worker pool must produce ``worker_pool_broken``, not a stack
trace, and the server must keep serving.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "BadRequest",
    "CompareEntry",
    "CompareRequest",
    "Conflict",
    "DeadlineExceeded",
    "GraphRequest",
    "NotFound",
    "Overloaded",
    "PoolBroken",
    "ServeError",
    "ShuttingDown",
    "SolveFailed",
    "SolveRequest",
    "UnresolvableCapability",
    "parse_compare_request",
    "parse_graph_request",
    "parse_solve_request",
]


class ServeError(Exception):
    """Base of every error the server turns into a JSON response."""

    status = 500
    code = "internal_error"

    def __init__(self, message: str, **detail: Any) -> None:
        super().__init__(message)
        self.message = message
        self.detail = detail

    def to_doc(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {"code": self.code, "message": self.message}
        doc.update(self.detail)
        return {"error": doc}


class BadRequest(ServeError):
    status = 400
    code = "bad_request"


class NotFound(ServeError):
    status = 404
    code = "not_found"


class Conflict(ServeError):
    status = 409
    code = "conflict"


class UnresolvableCapability(ServeError):
    status = 422
    code = "unresolvable_capability"


class Overloaded(ServeError):
    """The server shed this request: an in-flight cap, the batch queue
    bound, or the worker-pool circuit breaker.  Carries the advisory
    retry delay both machine-readable (``retry_after_ms`` in the error
    doc) and as an HTTP ``Retry-After`` header (whole seconds,
    rounded up)."""

    status = 429
    code = "overloaded"

    def __init__(self, message: str, *, retry_after_s: float = 1.0,
                 **detail: Any) -> None:
        detail.setdefault("retry_after_ms", round(retry_after_s * 1000.0, 3))
        super().__init__(message, **detail)
        self.retry_after_s = max(0.0, float(retry_after_s))


class SolveFailed(ServeError):
    status = 500
    code = "solve_failed"


class PoolBroken(ServeError):
    status = 500
    code = "worker_pool_broken"


class ShuttingDown(ServeError):
    """The server is draining (SIGTERM): queued work that cannot be
    dispatched any more gets this instead of hanging forever."""

    status = 503
    code = "shutting_down"


class DeadlineExceeded(ServeError):
    """The request's ``deadline_ms`` budget ran out — while queued
    (never dispatched) or while its batch was in flight (its
    batch-mates' results are unaffected)."""

    status = 504
    code = "deadline_exceeded"


# --------------------------------------------------------------------- #
# field extraction
# --------------------------------------------------------------------- #
_MISSING = object()


def _get(doc: Dict[str, Any], name: str, types: tuple, default: Any = _MISSING,
         where: str = "request") -> Any:
    """One field, type-checked; booleans never pass as ints."""
    if name not in doc:
        if default is _MISSING:
            raise BadRequest(f"{where} is missing required field {name!r}",
                             field=name)
        return default
    value = doc[name]
    if value is None and default is not _MISSING:
        return default
    if not isinstance(value, types) or (
        isinstance(value, bool) and bool not in types
    ):
        names = "/".join(t.__name__ for t in types)
        raise BadRequest(
            f"{where} field {name!r} must be {names}, "
            f"got {type(value).__name__}",
            field=name,
        )
    return value


def _params(doc: Dict[str, Any], where: str) -> Dict[str, Any]:
    params = _get(doc, "params", (dict,), default={}, where=where)
    for key, value in params.items():
        if not isinstance(key, str):
            raise BadRequest(f"{where} params keys must be strings",
                             field="params")
        if key == "partition":
            # The partition seat is the server's own (it carries the cached
            # partition view); a client must not reach into it.
            raise BadRequest(
                "the 'partition' parameter is managed by the server "
                "(partition-view cache) and cannot be set per request",
                field="params",
            )
        if value is not None and not isinstance(value, (str, int, float,
                                                        bool)):
            raise BadRequest(
                f"{where} param {key!r} must be a JSON scalar, "
                f"got {type(value).__name__}",
                field="params",
            )
    return dict(params)


def _seed(doc: Dict[str, Any], where: str) -> int:
    seed = _get(doc, "seed", (int,), default=0, where=where)
    if seed < 0:
        raise BadRequest(f"{where} seed must be >= 0, got {seed}",
                         field="seed")
    return seed


def _k(doc: Dict[str, Any], where: str) -> Optional[int]:
    k = _get(doc, "k", (int,), default=None, where=where)
    if k is not None and k < 1:
        raise BadRequest(f"{where} k must be >= 1, got {k}", field="k")
    return k


def _deadline_ms(doc: Dict[str, Any], where: str) -> Optional[float]:
    deadline = _get(doc, "deadline_ms", (int, float), default=None,
                    where=where)
    if deadline is not None and deadline <= 0:
        raise BadRequest(
            f"{where} deadline_ms must be > 0, got {deadline}",
            field="deadline_ms",
        )
    return None if deadline is None else float(deadline)


# --------------------------------------------------------------------- #
# requests
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class SolveRequest:
    """A validated ``POST /solve`` body.

    Exactly one of ``solver`` (an explicit registered name) or ``problem``
    (a capability query, optionally narrowed by ``model`` / ``guarantee``
    / ``weighted``) selects the algorithm.
    """

    graph_id: str
    seed: int
    k: Optional[int]
    params: Dict[str, Any]
    solver: Optional[str] = None
    problem: Optional[str] = None
    model: Optional[str] = None
    guarantee: Optional[str] = None
    weighted: Optional[bool] = None
    verify: bool = True
    include_certificate: bool = False
    deadline_ms: Optional[float] = None


def parse_solve_request(doc: Any, where: str = "solve request") -> SolveRequest:
    if not isinstance(doc, dict):
        raise BadRequest(f"{where} body must be a JSON object, "
                         f"got {type(doc).__name__}")
    req = SolveRequest(
        graph_id=_get(doc, "graph", (str,), where=where),
        seed=_seed(doc, where),
        k=_k(doc, where),
        params=_params(doc, where),
        solver=_get(doc, "solver", (str,), default=None, where=where),
        problem=_get(doc, "problem", (str,), default=None, where=where),
        model=_get(doc, "model", (str,), default=None, where=where),
        guarantee=_get(doc, "guarantee", (str,), default=None, where=where),
        weighted=_get(doc, "weighted", (bool,), default=None, where=where),
        verify=_get(doc, "verify", (bool,), default=True, where=where),
        include_certificate=_get(doc, "certificate", (bool,), default=False,
                                 where=where),
        deadline_ms=_deadline_ms(doc, where),
    )
    if req.solver is None and req.problem is None:
        raise BadRequest(
            f"{where} needs either 'solver' (a registered name) or "
            f"'problem' (a capability query)",
        )
    if req.solver is not None and any(
        v is not None for v in (req.problem, req.model, req.guarantee,
                                req.weighted)
    ):
        raise BadRequest(
            f"{where} mixes an explicit 'solver' with capability fields "
            f"(problem/model/guarantee/weighted) — pick one selection style",
        )
    return req


@dataclass(frozen=True)
class CompareEntry:
    """One column of a ``POST /compare``: a solver plus its overrides."""

    solver: str
    params: Dict[str, Any] = field(default_factory=dict)
    label: Optional[str] = None


@dataclass(frozen=True)
class CompareRequest:
    graph_id: str
    entries: Tuple[CompareEntry, ...]
    seed: int
    k: Optional[int]
    verify: bool = True
    deadline_ms: Optional[float] = None


def parse_compare_request(doc: Any) -> CompareRequest:
    where = "compare request"
    if not isinstance(doc, dict):
        raise BadRequest(f"{where} body must be a JSON object, "
                         f"got {type(doc).__name__}")
    raw = _get(doc, "solvers", (list,), where=where)
    if len(raw) < 2:
        raise BadRequest(f"{where} needs at least two entries in 'solvers'",
                         field="solvers")
    entries: List[CompareEntry] = []
    for i, item in enumerate(raw):
        if isinstance(item, str):
            entries.append(CompareEntry(solver=item))
        elif isinstance(item, dict):
            entry_where = f"{where} solvers[{i}]"
            entries.append(CompareEntry(
                solver=_get(item, "solver", (str,), where=entry_where),
                params=_params(item, entry_where),
                label=_get(item, "label", (str,), default=None,
                           where=entry_where),
            ))
        else:
            raise BadRequest(
                f"{where} solvers[{i}] must be a name or an object "
                f"with 'solver'/'params', got {type(item).__name__}",
                field="solvers",
            )
    return CompareRequest(
        graph_id=_get(doc, "graph", (str,), where=where),
        entries=tuple(entries),
        seed=_seed(doc, where),
        k=_k(doc, where),
        verify=_get(doc, "verify", (bool,), default=True, where=where),
        deadline_ms=_deadline_ms(doc, where),
    )


@dataclass(frozen=True)
class GraphRequest:
    """A validated ``POST /graphs`` body."""

    graph_id: str
    source: str
    seed: int


def parse_graph_request(doc: Any) -> GraphRequest:
    where = "graph request"
    if not isinstance(doc, dict):
        raise BadRequest(f"{where} body must be a JSON object, "
                         f"got {type(doc).__name__}")
    graph_id = _get(doc, "id", (str,), where=where).strip()
    if not graph_id or "/" in graph_id:
        raise BadRequest(
            f"graph id must be a non-empty string without '/', "
            f"got {graph_id!r}",
            field="id",
        )
    return GraphRequest(
        graph_id=graph_id,
        source=_get(doc, "source", (str,), where=where),
        seed=_seed(doc, where),
    )
