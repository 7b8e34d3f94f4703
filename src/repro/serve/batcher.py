"""Micro-batching by group commit: concurrent requests share one barrier.

The server's unit of executor work is a *batch*: one
``executor.map(run_solve_task, tasks)`` — one barrier, one pool wake-up,
one pass over the pinned graph, however many clients are waiting.
Batches form on occupancy, not on a clock: the first ``submit`` starts
one dispatcher task on the next loop tick, which runs barriers back to
back while anything is pending.  Each barrier takes the oldest graph's
queued entries, up to ``max_batch`` (the remainder goes to the back of
the queue), and whatever arrives while it runs forms the next batch —
group commit, sized by load the way Clipper (Crankshaw et al., NSDI
2017) sizes its batches.  The dispatcher is the only caller of
``executor.map`` and ``supervisor.rewarm``, so nothing races the
executors' lazy pool creation.

Each request still gets its own :class:`~repro.serve.tasks.SolveTask`
(own seed, own solver, own params) and its own result future; batching
changes *scheduling only*, never results — the facade's per-seed
determinism contract is what makes that safe, and
``tests/test_serve_api.py`` asserts byte-identical answers whether a
request ran alone or inside a batch.

The resilience layer hangs off three seams here:

* **Bounded queue** — every entry stays queued until its barrier
  starts, and ``submit`` rejects with a 429 ``overloaded`` once
  ``max_queue`` entries are waiting.
* **Deadlines** — each entry may carry a monotonic deadline.  Expired
  entries are dropped *before* the barrier (never dispatched, 504), and
  an entry whose deadline passes while its batch is in flight gets a 504
  after the barrier without touching its batch-mates' payloads.
* **Supervised pool breaks** — a broken pool
  (:class:`~repro.dist.executor.WorkerPoolBrokenError`) still fails only
  the in-flight batch, but what happens next is the
  :class:`~repro.serve.resilience.ExecutorSupervisor`'s call: an isolated
  break re-warms immediately (PR 7 semantics); a run of consecutive
  breaks opens the circuit breaker, and further batches are rejected
  until a half-open probe (which this class dispatches, re-warming
  first) closes it again.

For ``/statz``, two rings of the newest :data:`RING_SIZE` samples time
each request's queue wait (``submit`` to the start of its barrier) and
each barrier.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from collections import deque
from typing import Any, Deque, Dict, List, NamedTuple, Optional

from repro.dist.executor import Executor, WorkerPoolBrokenError
from repro.serve.protocol import (
    DeadlineExceeded,
    Overloaded,
    PoolBroken,
    ShuttingDown,
    SolveFailed,
)
from repro.serve.resilience import ExecutorSupervisor
from repro.serve.tasks import SolveTask, run_solve_task

__all__ = ["MicroBatcher"]

#: Samples kept per latency ring; the newest replace the oldest.
RING_SIZE = 1024


class _Entry(NamedTuple):  # one queued request
    task: SolveTask
    future: asyncio.Future
    deadline: Optional[float]  # time.monotonic() expiry, or None
    budget_ms: Optional[float]  # the client-facing budget, for errors
    queued_at: float  # time.monotonic() at submit


def _expired(entry: _Entry, where: str) -> DeadlineExceeded:
    return DeadlineExceeded(
        f"deadline of {entry.budget_ms:g} ms expired while the {where}",
        graph=entry.task.graph_id,
        solver=entry.task.solver,
        deadline_ms=entry.budget_ms,
    )


def _percentiles(ring: Deque[float]) -> Dict[str, Any]:
    """Nearest-rank p50/p95/p99 of one latency ring, in ms."""
    xs = sorted(ring)
    doc: Dict[str, Any] = {"samples": len(xs)}
    for p in (50, 95, 99):
        rank = (p * len(xs) + 99) // 100  # ceil(p% of n), in integers
        doc[f"p{p}"] = round(xs[rank - 1], 3) if xs else None
    return doc


class MicroBatcher:
    """Coalesces concurrent solve tasks into per-graph executor barriers."""

    def __init__(self, supervisor: ExecutorSupervisor, *,
                 max_batch: int = 32, max_queue: int = 256) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        self.supervisor = supervisor
        self.max_batch = max_batch
        self.max_queue = max_queue
        # graph key → entries waiting for a barrier; dicts keep insertion
        # order, so the first key is the graph that has waited longest.
        self._pending: Dict[str, List[_Entry]] = {}
        self._dispatcher: Optional[asyncio.Task] = None
        self.draining = False
        self._wait_ms: Deque[float] = deque(maxlen=RING_SIZE)
        self._barrier_ms: Deque[float] = deque(maxlen=RING_SIZE)
        # stats
        self.batches = 0
        self.requests = 0
        self.batched_requests = 0  # requests that shared a barrier
        self.max_batch_seen = 0
        self.pool_breaks = 0
        self.max_queue_seen = 0
        self.rejected_queue_full = 0
        self.rejected_at_dispatch = 0
        self.expired_in_queue = 0
        self.expired_in_flight = 0

    @property
    def executor(self) -> Executor:
        """The live executor — always read through the supervisor, which
        may have stepped the backend down since the last batch."""
        return self.supervisor.executor

    def queue_depth(self) -> int:
        return sum(len(entries) for entries in self._pending.values())

    # ------------------------------------------------------------------ #
    async def submit(self, key: str, task: SolveTask, *,
                     deadline: Optional[float] = None,
                     deadline_ms: Optional[float] = None) -> Dict[str, Any]:
        """Enqueue one task; resolves to its payload dict after the batch
        it joined has run.

        ``deadline`` is a ``time.monotonic()`` instant (or ``None``).
        Raises :class:`~repro.serve.protocol.Overloaded` when the queue is
        full or the breaker is open, :class:`~repro.serve.protocol.
        DeadlineExceeded` when the budget ran out, and
        :class:`~repro.serve.protocol.PoolBroken` /
        :class:`~repro.serve.protocol.SolveFailed` if the batch's barrier
        itself failed."""
        if self.draining:
            raise ShuttingDown("server is draining; no new work accepted")
        self.supervisor.on_submit()  # fast shed while the breaker is open
        if self.queue_depth() >= self.max_queue:
            self.rejected_queue_full += 1
            raise Overloaded(
                f"batch queue is full ({self.max_queue} waiting); "
                f"retry shortly",
                retry_after_s=0.05,
                reason="queue_full",
                max_queue=self.max_queue,
            )
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending.setdefault(key, []).append(
            _Entry(task, future, deadline, deadline_ms, time.monotonic())
        )
        self.requests += 1
        self.max_queue_seen = max(self.max_queue_seen, self.queue_depth())
        if self._dispatcher is None:
            self._dispatcher = loop.create_task(self._dispatch())
        return await future

    async def _dispatch(self) -> None:
        """Run barriers back to back until nothing is pending."""
        try:
            while self._pending:
                key = next(iter(self._pending))
                entries = self._pending.pop(key)
                if len(entries) > self.max_batch:
                    self._pending[key] = entries[self.max_batch:]
                    entries = entries[:self.max_batch]
                await self._run(entries)
        finally:
            self._dispatcher = None

    async def _run(self, entries: List[_Entry]) -> None:
        # Expired-in-queue entries are dropped here, *before* the barrier:
        # they are never dispatched, never cost a pool slot.
        now = time.monotonic()
        live: List[_Entry] = []
        for entry in entries:
            if entry.deadline is not None and now >= entry.deadline:
                self.expired_in_queue += 1
                self._reject([entry], _expired(entry, "request was queued"))
            else:
                live.append(entry)
        if not live:
            return
        tasks = [entry.task for entry in live]
        self.batches += 1
        self.max_batch_seen = max(self.max_batch_seen, len(tasks))
        if len(tasks) > 1:
            self.batched_requests += len(tasks)
        loop = asyncio.get_running_loop()
        try:
            try:
                action = self.supervisor.on_dispatch()
            except Overloaded as exc:
                self.rejected_at_dispatch += len(live)
                if self.draining:
                    # Queued before the breaker opened, and the server is
                    # going away: a structured 503 beats waiting out a
                    # backoff that will never be probed.
                    self._reject(live, ShuttingDown(
                        "server is draining and the worker pool is "
                        "unavailable",
                        batch_size=len(tasks),
                    ))
                else:
                    self._reject(live, exc)
                return
            if action == "probe":
                # Half-open: this batch is the probe.  Re-warm first so
                # the barrier runs in a real pool, not inline.
                await loop.run_in_executor(None, self.supervisor.rewarm)
            started = time.monotonic()
            self._wait_ms.extend((started - entry.queued_at) * 1000.0
                                 for entry in live)
            try:
                payloads = await loop.run_in_executor(
                    None, self.executor.map, run_solve_task, tasks
                )
            finally:
                self._barrier_ms.append((time.monotonic() - started)
                                        * 1000.0)
        except WorkerPoolBrokenError as exc:
            self.pool_breaks += 1
            action = self.supervisor.on_break()
            if action in ("rewarm", "stepped_down"):
                # Isolated break (or a fresh backend after step-down):
                # re-warm immediately so the next single-task barrier does
                # not run inline in the server process.
                with contextlib.suppress(Exception):
                    await loop.run_in_executor(None, self.supervisor.rewarm)
            self._reject(live, PoolBroken(
                f"worker pool died mid-batch: {exc}",
                batch_size=len(tasks),
            ))
            return
        except Exception as exc:  # noqa: BLE001 - surface as structured 500
            self._reject(live, SolveFailed(
                f"batch execution failed: {type(exc).__name__}: {exc}",
                batch_size=len(tasks),
            ))
            return
        self.supervisor.on_success()
        now = time.monotonic()
        for entry, payload in zip(live, payloads):
            if entry.future.cancelled():
                continue
            if entry.deadline is not None and now >= entry.deadline:
                # Expired while the batch was in flight.  Only this entry
                # turns into a 504 — its batch-mates' payloads are already
                # computed and untouched.
                self.expired_in_flight += 1
                entry.future.set_exception(
                    _expired(entry, "batch was executing"))
                continue
            payload = dict(payload)
            payload["batch_size"] = len(tasks)
            entry.future.set_result(payload)

    @staticmethod
    def _reject(entries: List[_Entry], error: Exception) -> None:
        for entry in entries:
            if not entry.future.cancelled():
                entry.future.set_exception(error)

    # ------------------------------------------------------------------ #
    async def drain(self) -> None:
        """Stop accepting work and wait until every queued entry has been
        answered.  Queued requests either run to completion or (if the
        breaker is open) get structured 503s — nothing hangs."""
        self.draining = True
        if self._dispatcher is not None:
            await asyncio.wait([self._dispatcher])

    def stats(self) -> Dict[str, Any]:
        return {
            "requests": self.requests,
            "batches": self.batches,
            "batched_requests": self.batched_requests,
            "max_batch_seen": self.max_batch_seen,
            "pool_breaks": self.pool_breaks,
            "max_batch": self.max_batch,
            "max_queue": self.max_queue,
            "queue_depth": self.queue_depth(),
            "max_queue_seen": self.max_queue_seen,
            "rejected_queue_full": self.rejected_queue_full,
            "rejected_at_dispatch": self.rejected_at_dispatch,
            "expired_in_queue": self.expired_in_queue,
            "expired_in_flight": self.expired_in_flight,
            "wait_ms": _percentiles(self._wait_ms),
            "barrier_ms": _percentiles(self._barrier_ms),
        }
