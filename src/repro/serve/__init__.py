"""``repro.serve`` — the library's solvers behind a long-lived HTTP API.

``repro solve`` pays its full cost on every invocation: import, graph
load, pool start-up, partitioning.  This package keeps all of that
warm in one process — graphs pinned in a :class:`~repro.serve.store.
GraphStore`, a persistent executor pool, concurrent requests micro-
batched into single barriers (:mod:`repro.serve.batcher`) — behind a
small stdlib-asyncio HTTP server (:mod:`repro.serve.app`).  Requests
name a solver explicitly or resolve one by capability
(:mod:`repro.solve.capabilities`); results are byte-identical per seed
to one-shot ``repro solve`` runs, which the serving test suite
(``tests/test_serve_api.py``) asserts end to end.

The resilience layer (:mod:`repro.serve.resilience`) makes the service
overload-safe: in-flight caps and a bounded batch queue shed excess load
with 429s, per-request ``deadline_ms`` budgets become 504s instead of
unbounded waits, and an :class:`~repro.serve.resilience.
ExecutorSupervisor` circuit-breaks a flapping worker pool (backed-off
half-open probes, backend step-down remote → processes → serial).

See ``docs/SERVING.md`` for the API reference and the determinism,
fault-tolerance, and overload contracts.
"""

from repro.serve.app import ReproServer, ServeConfig, serve_main
from repro.serve.batcher import MicroBatcher
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.protocol import (
    BadRequest,
    Conflict,
    DeadlineExceeded,
    NotFound,
    Overloaded,
    PoolBroken,
    ServeError,
    ShuttingDown,
    SolveFailed,
    UnresolvableCapability,
)
from repro.serve.resilience import (
    AdmissionController,
    ExecutorSupervisor,
    resolve_deadline_ms,
)
from repro.serve.store import GraphStore, PinnedGraph
from repro.serve.tasks import SolveTask, run_solve_task

__all__ = [
    "AdmissionController",
    "BadRequest",
    "Conflict",
    "DeadlineExceeded",
    "ExecutorSupervisor",
    "GraphStore",
    "MicroBatcher",
    "NotFound",
    "Overloaded",
    "PinnedGraph",
    "PoolBroken",
    "ReproServer",
    "ServeClient",
    "ServeClientError",
    "ServeConfig",
    "ServeError",
    "ShuttingDown",
    "SolveFailed",
    "SolveTask",
    "UnresolvableCapability",
    "resolve_deadline_ms",
    "run_solve_task",
    "serve_main",
]
