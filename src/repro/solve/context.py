"""The frozen per-run execution context.

Before this facade existed, every algorithm entry point grew its own
``rng=`` / ``executor=`` / ``workers=`` / ``k=`` keyword soup, each with
slightly different resolution rules.  :class:`RunContext`
replaces all of them with one immutable, picklable value object:

* **seed** — the single source of randomness for the whole solve, following
  the library-wide discipline (:mod:`repro.utils.rng`): each solver derives
  the independent streams it needs via :meth:`RunContext.generators`, in an
  order documented by that solver's adapter, so the same context reproduces
  the run bit for bit.
* **k** — machine count for the distributed models (coreset, mapreduce).
  Offline and streaming solvers ignore it.
* **executor / workers** — the substrate knobs of
  :mod:`repro.dist.executor`, resolved through
  :meth:`RunContext.executor_scope` with exactly the ownership rules the
  engines document: a context that *names* a backend owns (and closes)
  the pool it creates; a context carrying an
  :class:`~repro.dist.executor.Executor` instance leaves its lifetime to
  the caller.

The dataclass is frozen so a context can be shared between solvers, hashed
into cache keys, and shipped to worker processes without aliasing worries.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterator, Optional

import numpy as np

from repro.dist.executor import Executor, ExecutorSpec, resolve_executor
from repro.utils.rng import RandomState, as_generator, spawn_seeds

__all__ = ["RunContext"]


@dataclass(frozen=True)
class RunContext:
    """Immutable execution context shared by every registered solver.

    Parameters
    ----------
    seed:
        Root randomness (int, ``None``, ``Generator``, or ``SeedSequence``
        — the :data:`~repro.utils.rng.RandomState` union).  Solvers never
        touch it directly; they call :meth:`generators`.
    k:
        Machine count for coreset/mapreduce solvers.  ``None`` means "not
        specified": solvers that *require* a machine count raise
        :class:`~repro.solve.registry.SolverCapabilityError`, solvers with
        a natural default (MapReduce's ``k = √n``) use it.
    executor:
        Execution backend spec (``"serial"`` / ``"processes"`` /
        ``"remote"`` / an :class:`~repro.dist.executor.Executor`
        instance / ``None`` for ``$REPRO_EXECUTOR``).
    workers:
        Worker count for pooled backends (``None`` →
        ``$REPRO_WORKERS`` or the CPU count).
    """

    seed: RandomState = None
    k: Optional[int] = None
    executor: ExecutorSpec = None
    workers: Optional[int] = None

    def __post_init__(self) -> None:
        if self.k is not None and self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")

    # ------------------------------------------------------------------ #
    # randomness
    # ------------------------------------------------------------------ #
    def generator(self) -> np.random.Generator:
        """The context's seed coerced into a single generator."""
        return as_generator(self.seed)

    def generators(self, n: int) -> list[np.random.Generator]:
        """``n`` independent generators derived from the seed.

        This is the one randomness access path for solver adapters: each
        adapter documents how many streams it draws and what each one is
        for, which is what makes ``solve`` runs reproducible from the
        context alone.

        Unlike raw :func:`~repro.utils.rng.spawn_generators`, this method
        never mutates the stored seed: a ``SeedSequence`` is re-derived
        from its identity (``SeedSequence.spawn`` would advance its child
        counter), and a ``Generator`` has its entropy drawn from a copy of
        its current state.  Two solves with the same context therefore see
        the same streams — the facade's determinism contract.
        """
        return [np.random.default_rng(s) for s in self.seed_sequences(n)]

    def seed_sequences(self, n: int) -> list[np.random.SeedSequence]:
        """The ``SeedSequence`` under each of :meth:`generators`' streams.

        A consumer that draws in another process takes the sequence
        instead of the generator: ``default_rng`` of it is the same
        stream (the coreset adapters hand the partition its sequence, so
        every machine can draw the assignment itself).
        """
        seed = self.seed
        if isinstance(seed, np.random.SeedSequence):
            # A fresh sequence with the same identity spawns the same
            # children every time, leaving the caller's object untouched.
            return np.random.SeedSequence(
                entropy=seed.entropy, spawn_key=seed.spawn_key,
                pool_size=seed.pool_size,
            ).spawn(n)
        if isinstance(seed, np.random.Generator):
            import copy

            seed = copy.deepcopy(seed)
        return spawn_seeds(seed, n)

    # ------------------------------------------------------------------ #
    # machine count
    # ------------------------------------------------------------------ #
    def require_k(self, solver: str) -> int:
        """The machine count, or a uniform error naming the solver."""
        if self.k is None:
            from repro.solve.registry import SolverCapabilityError

            raise SolverCapabilityError(
                f"solver {solver!r} runs in a k-machine model and needs "
                f"RunContext.k (e.g. RunContext(seed=0, k=8))"
            )
        return self.k

    # ------------------------------------------------------------------ #
    # substrate
    # ------------------------------------------------------------------ #
    @contextmanager
    def executor_scope(self) -> Iterator[ExecutorSpec]:
        """Resolve the context's executor for the duration of one solve.

        Yields a value suitable for the engines' ``executor=`` parameter.
        Ownership follows the substrate contract (docs/PARALLELISM.md):

        * ``executor`` is an :class:`~repro.dist.executor.Executor`
          instance — yielded as-is, caller keeps ownership;
        * ``executor`` is ``None`` and no explicit ``workers`` — yield
          ``None`` and let each engine resolve ``$REPRO_EXECUTOR`` itself
          (the engine then owns and closes what it resolves);
        * otherwise — resolve a backend here (honouring ``workers``) and
          close it when the scope exits, so one pool is shared by every
          barrier inside a single solve.
        """
        if isinstance(self.executor, Executor):
            yield self.executor
            return
        if self.executor is None and self.workers is None:
            yield None
            return
        backend = resolve_executor(self.executor, workers=self.workers)
        try:
            yield backend
        finally:
            backend.close()

    # ------------------------------------------------------------------ #
    def with_options(self, **changes) -> "RunContext":
        """A copy of the context with the given fields replaced."""
        return replace(self, **changes)
