"""Fault-injection helpers for the remote-executor chaos tests.

The worker loop in :mod:`repro.dist.remote` carries env-triggered hooks
(``REPRO_CHAOS_KILL`` / ``REPRO_CHAOS_HANG`` / ``REPRO_CHAOS_SLOW_MS``)
checked once per task.  This module is the test-side driver: it arms those
variables in the *coordinator's* environment — locally-spawned workers
inherit it — scoped to a ``with`` block so no chaos leaks into later
tests.

The latch is what makes the injected faults precise instead of chaotic:
``REPRO_CHAOS_LATCH`` points at a path workers claim with
``O_CREAT | O_EXCL``, so exactly one process fires the fault exactly once
— "kill one worker mid-round" means one kill, with every replacement
running clean.  Pass ``latch=False`` to make *every* worker misbehave
(the retry-exhaustion tests).

For the serving tests, :func:`held_barrier` holds a live server's
executor barriers on a ``threading.Event`` so a test can build a queued
state — requests waiting behind a barrier in flight — without a sleep.

Also home to the module-level task functions the remote tests map: a
remote worker *imports* its task function (pickle-by-reference, like
spawn-based multiprocessing), so tasks must live in a module both sides
can import — this one.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from contextlib import asynccontextmanager, contextmanager
from typing import (Any, AsyncIterator, Callable, Iterator, List, Optional,
                    Tuple)

__all__ = [
    "chaos",
    "boom",
    "held_barrier",
    "overload_burst",
    "run_async",
    "serve_harness",
    "sleep_ms",
    "square",
    "wait_until",
    "worker_pid",
]


@contextmanager
def chaos(
    tmp_path,
    *,
    kill: bool = False,
    hang: bool = False,
    slow_ms: Optional[int] = None,
    after: int = 1,
    latch: bool = True,
    hang_s: Optional[float] = None,
    exit_code: Optional[int] = None,
) -> Iterator[None]:
    """Arm the worker chaos hooks for the duration of the block.

    Parameters mirror the env protocol: ``kill`` makes the armed worker
    ``os._exit`` (``exit_code``, default 17) before executing its
    ``after``-th task; ``hang`` makes it sleep ``hang_s`` seconds
    (default: effectively forever) instead; ``slow_ms`` merely delays it.
    With ``latch=True`` (the default) the fault fires in exactly one
    worker process, once; the latch file lives under ``tmp_path``.
    """
    previous = {
        key: os.environ.get(key)
        for key in (
            "REPRO_CHAOS_KILL", "REPRO_CHAOS_HANG", "REPRO_CHAOS_SLOW_MS",
            "REPRO_CHAOS_AFTER", "REPRO_CHAOS_LATCH", "REPRO_CHAOS_HANG_S",
            "REPRO_CHAOS_EXIT",
        )
    }

    def _set(key: str, value: Optional[str]) -> None:
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value

    _set("REPRO_CHAOS_KILL", "1" if kill else None)
    _set("REPRO_CHAOS_HANG", "1" if hang else None)
    _set("REPRO_CHAOS_SLOW_MS", str(slow_ms) if slow_ms else None)
    _set("REPRO_CHAOS_AFTER", str(after))
    _set("REPRO_CHAOS_LATCH",
         str(tmp_path / "chaos.latch") if latch else None)
    _set("REPRO_CHAOS_HANG_S", str(hang_s) if hang_s is not None else None)
    _set("REPRO_CHAOS_EXIT",
         str(exit_code) if exit_code is not None else None)
    try:
        yield
    finally:
        for key, value in previous.items():
            _set(key, value)


# --------------------------------------------------------------------- #
# the serving test harness
# --------------------------------------------------------------------- #
def run_async(coro):
    """Drive one async test body (no pytest-asyncio in this toolchain)."""
    return asyncio.run(coro)


@asynccontextmanager
async def serve_harness(
    *, graphs: Tuple[Tuple[str, str, int], ...] = (), **config: Any
) -> AsyncIterator[Tuple[Any, Any]]:
    """Boot a :class:`~repro.serve.ReproServer` on an ephemeral port.

    Yields ``(server, client)`` and tears the server down afterwards.
    ``graphs`` preloads ``(graph_id, source_spec, seed)`` triples;
    ``config`` keywords go straight into
    :class:`~repro.serve.ServeConfig` (``port`` defaults to 0 → the OS
    picks a free port, so parallel test runs never collide).

    Order matters for chaos tests: the worker pool spawns inside this
    context manager's first line, so arm :func:`chaos` *around* the
    harness — pool workers inherit the armed environment — and keep the
    block open through recovery assertions (replacement workers carry
    the armed env too; only the claimed latch keeps them clean).
    """
    from repro.serve import ReproServer, ServeClient, ServeConfig

    server = ReproServer(ServeConfig(**config))
    await server.start()
    try:
        for graph_id, source, seed in graphs:
            server.add_graph(graph_id, source, seed=seed)
        yield server, ServeClient(port=server.port)
    finally:
        await server.aclose()


class HeldBarrier:
    """A server's executor barriers, held until the test lets them run.

    ``batches`` lists the tasks of every barrier that reached the
    executor, in order; a barrier is recorded when it *enters*, before it
    waits.  :meth:`release` lets the barriers waiting now run and holds
    the later ones again; :meth:`open` stops holding.
    """

    def __init__(self, map_fn: Callable, timeout: float) -> None:
        self.batches: List[list] = []
        self._map = map_fn
        self._timeout = timeout
        self._gate = threading.Event()

    def map(self, fn, tasks):
        tasks = list(tasks)
        gate = self._gate
        self.batches.append(tasks)
        if not gate.wait(self._timeout):
            raise TimeoutError("a held barrier was never released")
        return self._map(fn, tasks)

    def release(self) -> None:
        gate, self._gate = self._gate, threading.Event()
        gate.set()

    def open(self) -> None:
        self._gate.set()


@contextmanager
def held_barrier(server: Any, *,
                 timeout: float = 60.0) -> Iterator[HeldBarrier]:
    """Make ``server``'s executor ``map`` wait on a ``threading.Event``.

    Inside the block every barrier — the batcher's solves and a re-warm
    alike — blocks in its executor thread until released, so requests
    that arrive meanwhile wait in the batch queue, exactly as they do
    behind a slow barrier.  The block's exit opens the gate; ``timeout``
    turns a barrier nobody releases into a failed batch, not a hung test.
    """
    executor = server.supervisor.executor
    hold = HeldBarrier(executor.map, timeout)
    executor.map = hold.map
    try:
        yield hold
    finally:
        hold.open()
        del executor.map


async def wait_until(predicate: Callable[[], Any], *,
                     timeout: float = 30.0) -> None:
    """Yield to the event loop until ``predicate()`` holds.

    Waits on a state, not a duration: however slow the host, the test
    proceeds exactly when the server has reached the state it checks.
    """
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            raise AssertionError(f"condition not reached in {timeout} s")
        await asyncio.sleep(0.002)


async def overload_burst(
    client: Any,
    graph_id: str,
    n: int,
    *,
    solver: str = "matching.greedy_maximal",
    k: Optional[int] = None,
    seed_of=None,
    **fields: Any,
):
    """The overload injector: fire ``n`` concurrent solves, classify.

    All ``n`` requests launch in one ``gather`` (near-simultaneous
    arrival — the sustained-overload shape the admission tests need) and
    every outcome is bucketed by the server's error taxonomy::

        {"ok": [result docs...], "overloaded": [ServeClientError...],
         "deadline_exceeded": [...], "worker_pool_broken": [...],
         "shutting_down": [...], "other": [anything unexpected]}

    ``seed_of(i)`` picks per-request seeds (default: ``i``), so callers
    can replay any admitted request through in-process ``solve()`` and
    assert bit-identical results.  Extra ``fields`` ride into every
    request body (``deadline_ms=...``, ``params=...``).
    """
    from repro.serve import ServeClientError

    def _seed(i: int) -> int:
        return seed_of(i) if seed_of is not None else i

    async def one(i: int):
        body: dict = {"solver": solver, "seed": _seed(i), **fields}
        if k is not None:
            body["k"] = k
        return await client.solve(graph_id, **body)

    outcomes = await asyncio.gather(*(one(i) for i in range(n)),
                                    return_exceptions=True)
    buckets: dict = {
        "ok": [], "overloaded": [], "deadline_exceeded": [],
        "worker_pool_broken": [], "shutting_down": [], "other": [],
    }
    for outcome in outcomes:
        if isinstance(outcome, dict):
            buckets["ok"].append(outcome)
        elif (isinstance(outcome, ServeClientError)
              and outcome.code in buckets):
            buckets[outcome.code].append(outcome)
        else:
            buckets["other"].append(outcome)
    return buckets


# --------------------------------------------------------------------- #
# picklable-by-reference task functions
# --------------------------------------------------------------------- #
def square(x):
    return x * x


def worker_pid(_):
    return os.getpid()


def boom(x):
    raise ValueError(f"task exploded on purpose: {x}")


def sleep_ms(ms):
    time.sleep(ms / 1000.0)
    return ms
