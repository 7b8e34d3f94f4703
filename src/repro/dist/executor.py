"""Pluggable execution backends for the distributed substrate.

The paper's model is *simultaneous*: machines act independently and only a
barrier (the coordinator, which is also where a MapReduce round ends)
joins their results.  That independence is already real in the code — per-machine
generators are spawned from one ``SeedSequence`` and graph pieces are
immutable views — so the engine can fan the per-machine work out to an
:class:`Executor` without changing a single output bit.  This module
provides the backends and the resolution logic shared by
:func:`~repro.dist.coordinator.run_simultaneous`, which the MapReduce
algorithms run on too, and :func:`~repro.experiments.harness.run_trials`.

The determinism contract (see ``docs/PARALLELISM.md``) is owned by the
*callers*, not the backends: an executor only promises that
:meth:`Executor.map` returns results **in input order**, regardless of
completion order.  Engines submit machines in index order and compose the
returned list positionally, so every backend produces bit-identical results
for the same seed.

Backends
--------
``serial``
    A plain loop in the calling process.  The default; zero overhead and
    no constraints on the task functions.
``processes``
    ``concurrent.futures.ProcessPoolExecutor``.  True parallelism, but
    every task — including the protocol's summarizer or the trial —
    must be **picklable**: defined at module level, never a closure or a
    lambda.  Unpicklable tasks raise
    :class:`UnpicklableTaskError`.
``remote``
    :class:`~repro.dist.remote.RemoteExecutor`: a socket coordinator plus
    ``repro worker`` processes (local subprocesses by default, other
    hosts by design), with per-task timeouts, bounded retry, heartbeats,
    and a content-addressed graph cache.  Registered lazily here so this
    module never imports the socket machinery it does not need.

Lifecycle
---------
Executors are **persistent**: a process pool is created lazily on
the first :meth:`Executor.map` call that needs it and *reused* by every
subsequent call until :meth:`Executor.close`.  That is what lets a series
of solves or an n-trial sweep pay pool start-up (fork + import) once
instead of once per barrier.  Executors are context managers::

    with ProcessExecutor(max_workers=4) as ex:
        res1 = run_simultaneous(proto, part, rng=2, executor=ex)
        res2 = run_simultaneous(proto, part, rng=3, executor=ex)  # same pool

``close()`` is idempotent; :meth:`Executor.map` after ``close()`` raises
:class:`ExecutorClosedError`.  Engines that *resolve* an executor from a
name or the environment own it and close it when their work completes;
engines handed an :class:`Executor` instance never close it — the caller
controls pool lifetime (ownership rule in ``docs/PARALLELISM.md`` §6).

Usage
-----
Run the Theorem 1 protocol with one process per machine::

    from repro.core.protocols import matching_coreset_protocol
    from repro.dist.coordinator import run_simultaneous
    from repro.graph.generators import planted_matching_gnp
    from repro.graph.partition import random_k_partition

    graph, _ = planted_matching_gnp(2000, 2000, p=3.0 / 4000, rng=0)
    part = random_k_partition(graph, k=8, rng=1)
    res = run_simultaneous(matching_coreset_protocol(), part, rng=2,
                           executor="processes")
    # Bit-identical to executor="serial" with the same seed.

Or pick the backend per environment (the CLI's ``--executor`` flag and the
CI's parallel leg both use this)::

    REPRO_EXECUTOR=processes REPRO_WORKERS=8 python -m pytest tests/ -q
"""

from __future__ import annotations

import os
import pickle
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional, Union

if TYPE_CHECKING:  # pragma: no cover - the segment machinery loads lazily
    from repro.dist.shm import ResidentPin

__all__ = [
    "EXECUTOR_ENV",
    "WORKERS_ENV",
    "Executor",
    "ExecutorClosedError",
    "ExecutorError",
    "ExecutorSpec",
    "ProcessExecutor",
    "SerialExecutor",
    "UnpicklableTaskError",
    "WorkerPoolBrokenError",
    "available_backends",
    "resolve_executor",
    "validate_workers",
]

#: Environment variable selecting the default backend (``serial`` if unset).
EXECUTOR_ENV = "REPRO_EXECUTOR"
#: Environment variable selecting the default worker count (cpu count if unset).
WORKERS_ENV = "REPRO_WORKERS"


class ExecutorError(RuntimeError):
    """A task could not be executed on the selected backend."""


class ExecutorClosedError(ExecutorError):
    """:meth:`Executor.map` was called on an executor after ``close()``."""


class UnpicklableTaskError(ExecutorError):
    """A task cannot cross a process boundary.

    Raised by the ``processes`` backend with a message naming the offending
    object instead of surfacing as an opaque ``PicklingError`` from inside
    the pool machinery.
    """


class WorkerPoolBrokenError(ExecutorError):
    """A worker process died mid-map (segfault, ``os._exit``, OOM kill).

    The executor discards the broken pool when raising this, so the *next*
    :meth:`Executor.map` call transparently starts a fresh pool — a crash
    costs one barrier, not the whole executor.
    """


class Executor:
    """Maps a function over tasks; results come back in **input order**.

    Subclasses implement :meth:`map`.  The order guarantee is the whole
    API: callers rely on it to compose per-machine results positionally,
    which is what keeps parallel runs bit-identical to serial ones.

    Executors own at most one worker pool, created lazily and reused by
    every ``map`` call until :meth:`close` — the pool lifecycle documented
    in ``docs/PARALLELISM.md`` §6.
    """

    name: str = "abstract"

    def __init__(self) -> None:
        self._closed = False

    # ------------------------------------------------------------------ #
    def map(self, fn: Callable[[Any], Any], tasks: Iterable[Any], *,
            equal_cost: bool = False) -> List[Any]:
        """Apply ``fn`` to every task; return results in input order.

        ``equal_cost`` is the caller's word that the tasks cost about the
        same (the machines of a random partition), so a pool need not
        balance them: :class:`ProcessExecutor` then hands each worker one
        block of consecutive tasks.  It changes scheduling only, never
        results, and a backend may ignore it.
        """
        raise NotImplementedError

    def resident(self, graph: Any) -> Any:
        """What a machine task carries to name ``graph``.

        Machines cut their own pieces from the graph
        (:func:`~repro.dist.coordinator.run_simultaneous`), so the graph
        must reach every worker once, not once per task.  In-process this
        is the graph itself; :class:`ProcessExecutor` pins it in a shared
        segment, and the remote backend ships it once per worker through
        its content cache.
        """
        return graph

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def close(self) -> None:
        """Release the worker pool (if any).  Idempotent."""
        self._closed = True

    def __enter__(self) -> "Executor":
        self._ensure_open()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _ensure_open(self) -> None:
        if self._closed:
            raise ExecutorClosedError(
                f"{type(self).__name__} has been closed; create a new "
                f"executor (or use the context-manager form) to run more "
                f"tasks"
            )

    def stats(self) -> dict:
        """Observable backend state, JSON-ready.  The base payload covers
        every backend (``pools_created`` is 0 for poolless ones);
        subclasses with more to say — :class:`~repro.dist.remote.
        RemoteExecutor`'s degradation seam — extend it."""
        return {
            "backend": self.name,
            "closed": self._closed,
            "max_workers": getattr(self, "max_workers", None),
            "pools_created": getattr(self, "pools_created", 0),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class SerialExecutor(Executor):
    """The plain loop: run every task in the calling process, in order.

    There is no pool to release, but ``close()`` still flips the executor
    into the closed state so lifecycle behavior is backend-independent —
    code that works with a closed ``serial`` executor would silently break
    the moment ``$REPRO_EXECUTOR`` selects a pooled backend.
    """

    name = "serial"

    def map(self, fn: Callable[[Any], Any], tasks: Iterable[Any], *,
            equal_cost: bool = False) -> List[Any]:
        self._ensure_open()
        return [fn(t) for t in tasks]


class ProcessExecutor(Executor):
    """A ``ProcessPoolExecutor`` backend (true parallelism, pickled tasks).

    Every ``fn`` and every task is pickled into a worker process, so both
    must be defined at module level.  Unpicklable work surfaces as
    :class:`UnpicklableTaskError` naming the object, never as an opaque
    pool crash.  The pool is created on the first :meth:`map` that needs
    one and reused by every later call until :meth:`close`; a crashed pool
    is discarded (:class:`WorkerPoolBrokenError`) and replaced on the next
    call.

    :meth:`resident` keeps one graph — the most recent — pinned in a
    shared segment (:class:`~repro.dist.shm.ResidentPin`), which each
    worker attaches once.  Pinning another graph unlinks the previous
    segment, so barriers that switch graphs must not overlap on one
    executor; :meth:`close` unlinks the last one.

    Parameters
    ----------
    max_workers:
        Process count; defaults to ``$REPRO_WORKERS`` or the cpu count.
    """

    name = "processes"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        super().__init__()
        self.max_workers = _default_workers(max_workers)
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pin: Optional["ResidentPin"] = None
        self._pin_lock = threading.Lock()
        #: How many pools this executor has created over its lifetime.
        #: Stays at 1 across barriers unless a broken pool was discarded
        #: (then the next map() bumps it) — the observable half of the
        #: persistence and discard/replace contracts (§6).
        self.pools_created = 0

    def map(self, fn: Callable[[Any], Any], tasks: Iterable[Any], *,
            equal_cost: bool = False) -> List[Any]:
        self._ensure_open()
        tasks = list(tasks)
        self._check_picklable("task function", fn)
        if len(tasks) <= 1 and self._pool is None:
            # One task gains nothing from a pool, but the pickle contract
            # still holds so behavior is task-count-independent; with no
            # pool serialization this check is the only pass.
            for i, t in enumerate(tasks):
                self._check_picklable(f"task {i}", t)
            return [fn(t) for t in tasks]
        # Tasks of equal cost go out as one call item per worker, each
        # carrying ceil(n / W) consecutive tasks: W pool round trips, not
        # n.  Any other map goes task by task, so a worker that finishes
        # early takes the next one.
        chunk = max(1, -(-len(tasks) // self.max_workers)) if equal_cost else 1
        try:
            return list(self._ensure_pool().map(fn, tasks, chunksize=chunk))
        except BrokenProcessPool as exc:
            self._discard_pool()
            raise WorkerPoolBrokenError(
                "a worker process died while executing tasks (crash, "
                "os._exit, or kill); the broken pool was discarded and the "
                "next map() call will start a fresh one"
            ) from exc
        except pickle.PicklingError as exc:
            culprit = self._first_unpicklable(tasks) or "a task"
            raise UnpicklableTaskError(self._advice(culprit, exc)) from exc
        except (AttributeError, TypeError) as exc:
            # Structured disambiguation, not message sniffing: besides
            # PicklingError, pickle signals failures as AttributeError or
            # TypeError ("Can't pickle local object ..."), which a task
            # body could equally raise on its own.  Re-checking the
            # payloads' picklability — only on this failure path — tells
            # the two apart exactly; any other exception type is task
            # code's own and propagates untouched.
            culprit = self._first_unpicklable(tasks)
            if culprit is None:
                raise
            raise UnpicklableTaskError(self._advice(culprit, exc)) from exc

    def resident(self, graph: Any) -> Any:
        from repro.dist.shm import ResidentPin

        self._ensure_open()
        with self._pin_lock:
            pin = self._pin
            if pin is None or pin.graph is not graph:
                self._pin = ResidentPin(graph)
                if pin is not None:
                    pin.close()
            return self._pin.ref

    # ------------------------------------------------------------------ #
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
            self.pools_created += 1
        return self._pool

    def _discard_pool(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        with self._pin_lock:
            pin, self._pin = self._pin, None
        if pin is not None:
            pin.close()
        super().close()

    # ------------------------------------------------------------------ #
    @classmethod
    def _check_picklable(cls, label: str, obj: Any) -> None:
        try:
            pickle.dumps(obj)
        except Exception as exc:
            raise UnpicklableTaskError(
                cls._advice(f"{label} ({obj!r})", exc)
            ) from exc

    @staticmethod
    def _first_unpicklable(tasks: List[Any]) -> Optional[str]:
        """The label of the first task that cannot be pickled, or ``None``."""
        for i, task in enumerate(tasks):
            try:
                pickle.dumps(task)
            except Exception:
                return f"task {i} ({task!r})"
        return None

    @staticmethod
    def _advice(what: str, exc: Exception) -> str:
        return _pickle_advice(what, exc)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else (
            "pool" if self._pool is not None else "lazy")
        return f"ProcessExecutor(max_workers={self.max_workers}, {state})"


#: What callers may pass wherever an executor is accepted: ``None`` (resolve
#: from ``$REPRO_EXECUTOR``, default serial), a backend name, or an instance.
ExecutorSpec = Union[None, str, Executor]

def _pickle_advice(what: str, exc: Exception) -> str:
    """The shared diagnosis for work that cannot cross a process boundary.

    Used by both the ``processes`` backend and the ``remote`` backend so
    the advice (and its wording) never drifts between them.
    """
    return (
        f"the executor cannot ship {what} to a worker: it is not "
        f"picklable. Summarizers, trials and other task functions "
        f"must be defined at module level (closures and lambdas cannot be "
        f"pickled); alternatively use the 'serial' backend. "
        f"Underlying error: {exc}"
    )


def _make_remote(max_workers: Optional[int] = None) -> Executor:
    # Imported lazily: the remote backend pulls in sockets, subprocess
    # management, and the content cache, none of which the in-process
    # backends need, and repro.dist.remote imports *this* module.
    from repro.dist.remote import RemoteExecutor

    return RemoteExecutor(max_workers=max_workers)


_BACKENDS = {
    "serial": SerialExecutor,
    "processes": ProcessExecutor,
    "remote": _make_remote,
}

_ALIASES = {
    "none": "serial",
    "sync": "serial",
    "process": "processes",
    "mp": "processes",
}


def available_backends() -> tuple:
    """The canonical backend names, in preference order."""
    return tuple(_BACKENDS)


def resolve_executor(
    spec: ExecutorSpec = None, workers: Optional[int] = None
) -> Executor:
    """Turn an :data:`ExecutorSpec` into a ready :class:`Executor`.

    ``None`` consults ``$REPRO_EXECUTOR`` (default ``serial``); a string
    names a backend (a few aliases are accepted); an :class:`Executor`
    instance passes through unchanged (``workers`` is then ignored —
    the instance already fixed its worker count).

    Ownership: an executor *created here* (spec was ``None`` or a name)
    belongs to the caller, which should ``close()`` it when its barriers
    are done; a passed-through instance stays owned by whoever built it.
    """
    if isinstance(spec, Executor):
        return spec
    if spec is None:
        spec = os.environ.get(EXECUTOR_ENV, "serial")
    if not isinstance(spec, str):
        raise ValueError(
            f"executor spec must be None, a backend name, or an Executor "
            f"instance, got {spec!r}; available backends: "
            f"{', '.join(available_backends())}"
        )
    name = _ALIASES.get(spec.strip().lower(), spec.strip().lower())
    if name not in _BACKENDS:
        raise ValueError(
            f"unknown executor {spec!r}; available backends: "
            f"{', '.join(available_backends())}"
        )
    if name == "serial":
        return SerialExecutor()
    return _BACKENDS[name](max_workers=workers)


def validate_workers(workers: int) -> int:
    """The one place that owns the worker-count rule: an int >= 1.

    Every consumer — backend constructors, ``$REPRO_WORKERS`` resolution,
    and the CLI's ``--workers`` flag — funnels through here, so the error
    message (and the rule) can never drift between layers.  The message
    always names the offending value, including when ``int()`` itself
    rejects it (``None``, ``"four"``, ...).
    """
    try:
        workers = int(workers)
    except (TypeError, ValueError):
        raise ValueError(
            f"worker count must be an int >= 1, got {workers!r}"
        ) from None
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    return workers


def _default_workers(max_workers: Optional[int]) -> int:
    if max_workers is None:
        env = os.environ.get(WORKERS_ENV)
        max_workers = int(env) if env else (os.cpu_count() or 1)
    return validate_workers(max_workers)
