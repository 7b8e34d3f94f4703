"""The picklable unit of server work: one solve, shipped to the pool.

A :class:`SolveTask` is what crosses the executor boundary.  On the
``processes`` backend it carries the graph's
:class:`~repro.dist.shm.ResidentGraph` — a reference to the segment the
server pinned, the same few hundred bytes for every graph type and size —
and the worker attaches the graph once, remembering it for the tasks
that follow.  Every other backend carries the graph object itself and,
for coreset solvers, the server's cached
:class:`~repro.graph.partition.PartitionedGraph`: by reference on the
in-process backends, pickled like any task argument on ``remote``.

:func:`run_solve_task` never raises: a solver failure becomes a structured
``{"ok": False, "error": ...}`` payload, so the only thing that can fail a
batch is the pool itself dying (which the executor surfaces as
:class:`~repro.dist.executor.WorkerPoolBrokenError` and the server turns
into a 500 ``worker_pool_broken``).  The same chaos hooks the remote
workers use (:mod:`repro.dist.faults`) run before each task, so the fault
suite can kill/hang/slow a serve worker with the standard env knobs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.dist.faults import maybe_chaos
from repro.dist.shm import ResidentGraph

__all__ = ["SolveTask", "run_solve_task", "warm_worker"]


def warm_worker(i: int) -> int:
    """The server's pool warm-up task (a picklable no-op).

    Mapping this over two tasks at boot forces the pooled backends
    (``processes``, ``remote``) to actually spawn their pool: without it, a
    single-task barrier runs *inline in the calling process* (the
    executors' documented short-circuit), which would mean a chaos-killed
    task takes the whole server down instead of one worker.  Only those
    backends isolate the server from solver code; ``serial`` runs every
    task inline by design.  Deliberately skips the chaos hooks — faults
    are for solve tasks, not boot.
    """
    return i


@dataclass(frozen=True)
class SolveTask:
    """One fully-resolved solve: solver name, seed/k, graph transport.

    ``graph`` is the graph object, or on a process pool the
    :class:`~repro.dist.shm.ResidentGraph` naming its pinned segment.
    ``partition`` rides only with a graph object — the server's cached
    partition view for coreset solvers; process workers draw the
    partition from the seed instead, which is bit-identical by the
    facade's determinism contract.
    """

    graph_id: str
    solver: str
    seed: int
    k: Optional[int]
    params: Dict[str, Any]
    verify: bool = True
    include_certificate: bool = False
    graph: Any = None
    partition: Any = None
    # Wall-clock expiry (``time.time()``), comparable across the fork
    # boundary on one host; ``None`` means no deadline.  The batcher keeps
    # the authoritative monotonic copy — this one only lets a worker skip
    # solving a request whose client has already been told 504.
    deadline_ts: Optional[float] = None


# Per-process task counter driving the chaos hooks ($REPRO_CHAOS_AFTER
# counts tasks in *this* worker, exactly like the remote worker loop).
_TASK_SEQ = 0


def run_solve_task(task: SolveTask) -> Dict[str, Any]:
    """Execute one task; always returns a JSON-ready payload dict.

    ``{"ok": True, "result": {...}}`` on success, ``{"ok": False,
    "error": {...}}`` when the solver (not the pool) failed.  The inner
    solve is forced onto the serial executor: the server's pool *is* the
    parallelism, and nesting pools inside pool workers would deadlock the
    one-CPU case and oversubscribe every other.
    """
    global _TASK_SEQ
    _TASK_SEQ += 1
    maybe_chaos(_TASK_SEQ)

    if task.deadline_ts is not None and time.time() >= task.deadline_ts:
        # Already expired before we even started: don't burn worker time on
        # a result nobody will read (the batcher 504s it post-barrier).
        return {
            "ok": False,
            "error": {
                "code": "deadline_exceeded",
                "message": "deadline expired before the task started",
                "solver": task.solver,
                "graph": task.graph_id,
            },
        }

    from repro.solve import RunContext, solve

    try:
        graph = task.graph
        if isinstance(graph, ResidentGraph):
            graph = graph.open()
        ctx = RunContext(seed=task.seed, k=task.k, executor="serial")
        params = dict(task.params)
        if task.partition is not None:
            params["partition"] = task.partition
        result = solve(graph, task.solver, ctx, verify=task.verify, **params)
        return {
            "ok": True,
            "result": result.to_dict(
                include_certificate=task.include_certificate
            ),
        }
    except Exception as exc:  # noqa: BLE001 - the contract: never raise
        return {
            "ok": False,
            "error": {
                "code": "solve_failed",
                "message": f"{type(exc).__name__}: {exc}",
                "solver": task.solver,
                "graph": task.graph_id,
            },
        }
