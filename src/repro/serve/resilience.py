"""Overload safety for the serving stack: admission, deadlines, breaker.

``repro serve`` without this module queues unboundedly: every request is
admitted, every queued request is eventually dispatched no matter how
stale, and a run of worker-pool breaks re-warms the pool in a tight loop.
This module is the resilience layer the server threads through
:mod:`repro.serve.app` and :mod:`repro.serve.batcher`:

:class:`AdmissionController`
    Global and per-graph in-flight caps.  A request over either cap is
    rejected *at the front door* with a structured 429 ``overloaded``
    (plus ``Retry-After``) — it never touches the graph store, the
    batcher, or the pool.  Rejections are counted per cause.

:func:`resolve_deadline_ms`
    The one place that turns a client's ``deadline_ms`` (or the server's
    ``--default-deadline-ms``) into an effective budget, capped by
    ``--max-deadline-ms``.  The batcher enforces it twice: expired-in-
    queue requests are dropped before the barrier (never dispatched), and
    expired-in-flight requests get a 504 after the barrier without
    touching their batch-mates' results.

:class:`ExecutorSupervisor`
    A circuit breaker over the executor pool.  Isolated pool breaks keep
    the PR 7 behavior (immediate re-warm, next request succeeds); a run
    of ``breaker_threshold`` *consecutive* breaks opens the breaker:
    requests shed fast with 429 + ``Retry-After``, and the pool is
    re-warmed only by a half-open **probe** after an exponential backoff
    (open → half-open → closed), so a kill-storm costs one pool per
    backoff window instead of one per request.  When the breaker keeps
    reopening, the supervisor steps the backend down the degradation
    chain (remote → processes → serial — the serving-side extension of
    the PR 6 ``RemoteExecutor`` fallback seam) and gives the more
    conservative backend a clean breaker.

All three are event-loop-thread objects: the server mutates them only
from handler coroutines and the batcher's dispatcher, so no locking is
needed; the only blocking call is :meth:`ExecutorSupervisor.rewarm`,
which callers run in a thread (``run_in_executor``) exactly like the
barriers themselves.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.dist.executor import Executor, resolve_executor
from repro.serve.protocol import Overloaded
from repro.serve.tasks import warm_worker

__all__ = [
    "STEP_DOWN_CHAIN",
    "AdmissionController",
    "ExecutorSupervisor",
    "resolve_deadline_ms",
]

#: The backend degradation order: each entry maps a backend to the more
#: conservative one the supervisor steps down to when the breaker keeps
#: reopening.  ``serial`` is the floor — it always answers (at the cost
#: of running solver code in the server process, the last resort).
STEP_DOWN_CHAIN = {"remote": "processes", "processes": "serial"}


# --------------------------------------------------------------------- #
# deadlines
# --------------------------------------------------------------------- #
def resolve_deadline_ms(
    requested: Optional[float],
    default_ms: Optional[float],
    max_ms: float,
) -> Optional[float]:
    """The effective deadline budget for one request, in milliseconds.

    ``requested`` is the client's ``deadline_ms`` (already validated
    positive); ``None`` falls back to the server's default (``None``
    means requests without a deadline run unbounded).  ``max_ms > 0``
    caps whatever was chosen — a client cannot buy more time than the
    server is willing to hold a pool slot for.
    """
    ms = requested if requested is not None else default_ms
    if ms is None:
        return None
    ms = float(ms)
    if max_ms and max_ms > 0:
        ms = min(ms, float(max_ms))
    return ms


# --------------------------------------------------------------------- #
# admission control
# --------------------------------------------------------------------- #
class AdmissionController:
    """Bounded in-flight request counts, globally and per graph.

    ``acquire`` either admits (and counts) a request or raises
    :class:`~repro.serve.protocol.Overloaded`; every ``acquire`` must be
    paired with ``release`` (the server does this in a ``finally``).
    ``max_inflight_per_graph=0`` disables the per-graph cap.
    """

    def __init__(self, max_inflight: int, max_inflight_per_graph: int = 0,
                 *, retry_after_s: float = 1.0) -> None:
        if max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {max_inflight}")
        if max_inflight_per_graph < 0:
            raise ValueError(
                f"max_inflight_per_graph must be >= 0 (0 disables), "
                f"got {max_inflight_per_graph}")
        self.max_inflight = int(max_inflight)
        self.max_inflight_per_graph = int(max_inflight_per_graph)
        self.retry_after_s = float(retry_after_s)
        self.inflight = 0
        self.inflight_by_graph: Dict[str, int] = {}
        self.max_inflight_seen = 0
        self.admitted_total = 0
        self.rejected_global = 0
        self.rejected_per_graph = 0

    def acquire(self, graph_id: str) -> None:
        if self.inflight >= self.max_inflight:
            self.rejected_global += 1
            raise Overloaded(
                f"server is at its global in-flight cap "
                f"({self.max_inflight}); retry shortly",
                retry_after_s=self.retry_after_s,
                reason="max_inflight",
                max_inflight=self.max_inflight,
            )
        per_graph = self.inflight_by_graph.get(graph_id, 0)
        if self.max_inflight_per_graph and \
                per_graph >= self.max_inflight_per_graph:
            self.rejected_per_graph += 1
            raise Overloaded(
                f"graph {graph_id!r} is at its in-flight cap "
                f"({self.max_inflight_per_graph}); retry shortly",
                retry_after_s=self.retry_after_s,
                reason="max_inflight_per_graph",
                graph=graph_id,
                max_inflight_per_graph=self.max_inflight_per_graph,
            )
        self.inflight += 1
        self.inflight_by_graph[graph_id] = per_graph + 1
        self.admitted_total += 1
        self.max_inflight_seen = max(self.max_inflight_seen, self.inflight)

    def release(self, graph_id: str) -> None:
        self.inflight -= 1
        remaining = self.inflight_by_graph.get(graph_id, 1) - 1
        if remaining <= 0:
            self.inflight_by_graph.pop(graph_id, None)
        else:
            self.inflight_by_graph[graph_id] = remaining

    @property
    def rejected_total(self) -> int:
        return self.rejected_global + self.rejected_per_graph

    def stats(self) -> Dict[str, Any]:
        return {
            "max_inflight": self.max_inflight,
            "max_inflight_per_graph": self.max_inflight_per_graph,
            "inflight": self.inflight,
            "inflight_by_graph": dict(self.inflight_by_graph),
            "max_inflight_seen": self.max_inflight_seen,
            "admitted_total": self.admitted_total,
            "rejected_global": self.rejected_global,
            "rejected_per_graph": self.rejected_per_graph,
            "rejected_total": self.rejected_total,
        }


# --------------------------------------------------------------------- #
# supervised degradation
# --------------------------------------------------------------------- #
class ExecutorSupervisor:
    """Circuit breaker + backend step-down over the server's executor.

    States (classic breaker, batch-granular):

    ``closed``
        Healthy.  An isolated pool break below ``threshold`` consecutive
        breaks keeps PR 7 semantics: the caller re-warms immediately and
        the next batch runs on a fresh pool.
    ``open``
        ``threshold`` consecutive breaks tripped it.  Submissions and
        dispatches are rejected with 429 ``overloaded`` (``reason:
        breaker_open``, ``Retry-After`` = remaining backoff) and **no
        pool is created** until ``retry_at``.
    ``half_open``
        The backoff elapsed and one batch is going through as the probe
        (the caller re-warms first).  Success closes the breaker and
        resets the backoff; another break reopens it with the backoff
        doubled (capped at ``max_backoff_s``).

    After ``step_down_after`` consecutive openings without an
    intervening success, the supervisor swaps the executor for the next
    backend in :data:`STEP_DOWN_CHAIN` and closes the breaker — the
    conservative backend starts clean.  ``step_down_after=0`` disables
    stepping down.

    The supervisor is the single owner of the live executor: callers
    must read ``supervisor.executor`` at dispatch time (never cache it),
    and :meth:`close` releases whichever backend is current.
    """

    def __init__(
        self,
        executor: Executor,
        *,
        threshold: int = 3,
        backoff_s: float = 0.5,
        max_backoff_s: float = 30.0,
        step_down_after: int = 2,
        workers: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if backoff_s <= 0:
            raise ValueError(f"backoff_s must be > 0, got {backoff_s}")
        if max_backoff_s < backoff_s:
            raise ValueError(
                f"max_backoff_s ({max_backoff_s}) must be >= backoff_s "
                f"({backoff_s})")
        if step_down_after < 0:
            raise ValueError(
                f"step_down_after must be >= 0 (0 disables), "
                f"got {step_down_after}")
        self.executor = executor
        self.threshold = int(threshold)
        self.initial_backoff_s = float(backoff_s)
        self.max_backoff_s = float(max_backoff_s)
        self.step_down_after = int(step_down_after)
        self.workers = workers
        self._clock = clock
        self.state = "closed"
        self.pool_warm = False
        self.consecutive_breaks = 0
        self.consecutive_opens = 0
        self.breaks_total = 0
        self.opens_total = 0
        self.rejected_breaker = 0
        self.probes = 0
        self.rewarms = 0
        self.step_downs: List[Tuple[str, str]] = []
        self._backoff_s = float(backoff_s)
        self._retry_at = 0.0
        self._retired_pools = 0

    # ------------------------------------------------------------------ #
    @property
    def backend(self) -> str:
        """The current backend's canonical name."""
        return self.executor.name

    def retry_after_s(self) -> float:
        """Seconds until the next half-open probe is allowed."""
        return max(0.0, self._retry_at - self._clock())

    @property
    def pools_created_total(self) -> int:
        """Pools created across every backend this supervisor has owned
        — the number a kill-storm must keep bounded."""
        return self._retired_pools + getattr(self.executor,
                                             "pools_created", 0)

    # ------------------------------------------------------------------ #
    # the breaker protocol
    # ------------------------------------------------------------------ #
    def on_submit(self) -> None:
        """Fast-fail a new request while the breaker is open.

        Raises :class:`~repro.serve.protocol.Overloaded` when open and
        the backoff has not elapsed; otherwise the request may queue
        (it will dispatch behind the probe, or be rejected at dispatch
        if the probe fails).
        """
        if self.state == "open" and self._clock() < self._retry_at:
            self.rejected_breaker += 1
            raise Overloaded(
                f"worker pool circuit breaker is open "
                f"({self.consecutive_breaks} consecutive pool breaks on "
                f"the {self.backend!r} backend)",
                retry_after_s=self.retry_after_s(),
                reason="breaker_open",
                breaker_state=self.state,
            )

    def on_dispatch(self) -> str:
        """Gate one batch about to hit the pool.

        Returns ``"ok"`` (closed — dispatch normally) or ``"probe"``
        (the backoff elapsed; the breaker is now half-open and **this**
        batch is the probe — the caller must :meth:`rewarm` first).
        Raises :class:`~repro.serve.protocol.Overloaded` while the
        breaker is open (or a probe is already in flight).
        """
        if self.state == "closed":
            return "ok"
        if self.state == "open" and self._clock() >= self._retry_at:
            self.state = "half_open"
            self.probes += 1
            return "probe"
        self.rejected_breaker += 1
        raise Overloaded(
            f"worker pool circuit breaker is "
            f"{self.state.replace('_', '-')} on the {self.backend!r} "
            f"backend",
            retry_after_s=self.retry_after_s(),
            reason="breaker_open",
            breaker_state=self.state,
        )

    def on_break(self) -> str:
        """Record one ``WorkerPoolBrokenError``; decide what happens next.

        Returns the action the caller must take:

        ``"rewarm"``
            Closed, below threshold — PR 7 semantics: re-warm now.
        ``"opened"`` / ``"reopened"``
            The breaker tripped (or a probe failed): do **not** re-warm;
            the next pool is created by the half-open probe after
            ``retry_after_s()``.
        ``"stepped_down"``
            The breaker kept reopening and the backend was swapped for
            the next one in :data:`STEP_DOWN_CHAIN`; re-warm the new
            backend (it starts with a closed breaker).
        """
        self.breaks_total += 1
        self.consecutive_breaks += 1
        self.pool_warm = False
        if self.state == "half_open":
            return self._open("reopened")
        if self.consecutive_breaks >= self.threshold:
            return self._open("opened")
        return "rewarm"

    def _open(self, action: str) -> str:
        self.state = "open"
        self.opens_total += 1
        self.consecutive_opens += 1
        self._retry_at = self._clock() + self._backoff_s
        self._backoff_s = min(self._backoff_s * 2, self.max_backoff_s)
        if (self.step_down_after
                and self.consecutive_opens > self.step_down_after
                and self.backend in STEP_DOWN_CHAIN):
            return self._step_down()
        return action

    def _step_down(self) -> str:
        old = self.executor
        next_name = STEP_DOWN_CHAIN[self.backend]
        self.step_downs.append((self.backend, next_name))
        self._retired_pools += getattr(old, "pools_created", 0)
        self.executor = resolve_executor(next_name, workers=self.workers)
        try:
            old.close()
        except Exception:  # noqa: BLE001 - the old pool is already broken
            pass
        # The conservative backend starts clean: closed breaker, fresh
        # backoff.  If it breaks too, the whole cycle repeats one rung
        # further down the chain.
        self.state = "closed"
        self.consecutive_breaks = 0
        self.consecutive_opens = 0
        self._backoff_s = self.initial_backoff_s
        self._retry_at = 0.0
        return "stepped_down"

    def on_success(self) -> None:
        """One barrier completed: reset the breaker."""
        self.consecutive_breaks = 0
        self.pool_warm = True
        if self.state != "closed":
            self.state = "closed"
            self.consecutive_opens = 0
            self._backoff_s = self.initial_backoff_s
            self._retry_at = 0.0

    # ------------------------------------------------------------------ #
    def rewarm(self) -> None:
        """Force the current executor's pool to exist (blocking).

        Mapping :func:`~repro.serve.tasks.warm_worker` over two tasks
        defeats the pooled backends' single-task inline short-circuit, so
        with processes or remote solver code never runs in the server
        process (serial runs it inline by design).  Callers in async
        context run this in a thread.
        """
        self.executor.map(warm_worker, [0, 1])
        self.rewarms += 1
        self.pool_warm = True

    def ready(self) -> Tuple[bool, List[str]]:
        """The supervisor's half of ``/readyz``: warm pool, closed breaker."""
        reasons = []
        if not self.pool_warm:
            reasons.append("worker pool is not warm")
        if self.state != "closed":
            reasons.append(
                f"circuit breaker is {self.state.replace('_', '-')} "
                f"(retry in {self.retry_after_s() * 1000:.0f} ms)")
        return not reasons, reasons

    def close(self) -> None:
        self.executor.close()

    def stats(self) -> Dict[str, Any]:
        return {
            "state": self.state,
            "backend": self.backend,
            "pool_warm": self.pool_warm,
            "threshold": self.threshold,
            "consecutive_breaks": self.consecutive_breaks,
            "consecutive_opens": self.consecutive_opens,
            "breaks_total": self.breaks_total,
            "opens_total": self.opens_total,
            "rejected": self.rejected_breaker,
            "probes": self.probes,
            "rewarms": self.rewarms,
            "backoff_ms": round(self._backoff_s * 1000.0, 3),
            "retry_in_ms": round(self.retry_after_s() * 1000.0, 3),
            "step_downs": [list(pair) for pair in self.step_downs],
            "pools_created_total": self.pools_created_total,
        }
