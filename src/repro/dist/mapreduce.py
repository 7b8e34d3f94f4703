"""MapReduce (MPC) simulator with per-machine memory accounting.

The paper's MapReduce corollaries run with ``k = √n`` machines of memory
Õ(n·√n) and finish in at most two rounds: one *shuffle* round that turns an
arbitrary edge placement into the random k-partitioning, and one *compute*
round where every machine ships its coreset to a designated solver machine.
The simulator executes exactly those primitives over in-memory edge arrays:

* :meth:`MapReduceSimulator.shuffle_round` — every machine routes each of
  its edges to a destination machine (edge-conserving by construction;
  route arrays are shape- and range-validated);
* :meth:`MapReduceSimulator.compute_round` — every machine maps its edge
  set to a new edge set (a coreset, a matching, ...), optionally
  concentrating all outputs on one machine (``send_to``);
* the per-machine memory cap — the MPC model's defining constraint — is
  enforced after loading and after every round, raising
  :class:`MemoryCapExceeded` on violation rather than silently simulating
  a machine that could not exist.

Every round appends a :class:`RoundRecord` to the :class:`MapReduceJob`
log, so experiments can report round counts, shuffle volume, and peak
memory without instrumenting the algorithms themselves.

Rounds are barriers, so per-machine route/compute work can run on any
:mod:`repro.dist.executor` backend (serial, processes, remote) with
bit-identical results per seed: outputs and advanced generator states are
adopted in machine-index order after every round.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence

import numpy as np

from repro.dist.executor import Executor, ExecutorSpec, resolve_executor
from repro.graph.edgelist import Graph
from repro.utils.rng import RandomState, spawn_generators

__all__ = [
    "MapReduceJob",
    "MapReduceSimulator",
    "MemoryCapExceeded",
    "RoundRecord",
]

# route_fn(machine_index, edges, rng) -> destination machine per edge
RouteFn = Callable[[int, np.ndarray, np.random.Generator], np.ndarray]
# compute_fn(machine_index, edges, rng) -> new (m', 2) edge array, or a
# tuple (edge array, aux payload); aux payloads are collected by
# compute_round in machine-index order.
ComputeFn = Callable[[int, np.ndarray, np.random.Generator], np.ndarray]


def _route_machine(task: tuple) -> tuple:
    """One machine's routing step, as an executor-shippable unit of work.

    Returns the destination array *and* the generator: on the process
    backend the generator advanced in a worker's copy, so the simulator
    must adopt the returned state to stay bit-identical with serial runs.
    """
    i, edges, gen, route_fn = task
    dest = route_fn(i, edges, gen)
    return dest, gen


def _compute_machine(task: tuple) -> tuple:
    """One machine's compute step, as an executor-shippable unit of work."""
    i, edges, gen, compute_fn = task
    out = compute_fn(i, edges, gen)
    return out, gen


class MemoryCapExceeded(RuntimeError):
    """A machine would hold more edges than its memory budget allows."""


@dataclass(frozen=True)
class RoundRecord:
    """One round of the job log."""

    kind: str  # "shuffle" or "compute"
    total_edges_moved: int
    machine_sizes: np.ndarray  # per-machine edge counts after the round


@dataclass
class MapReduceJob:
    """The accumulated log of one MapReduce execution."""

    rounds: List[RoundRecord] = field(default_factory=list)
    peak_machine_edges: int = 0

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)

    @property
    def total_shuffled_edges(self) -> int:
        """Edges that crossed machines, summed over all rounds."""
        return sum(r.total_edges_moved for r in self.rounds)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MapReduceJob(n_rounds={self.n_rounds}, "
            f"peak_machine_edges={self.peak_machine_edges}, "
            f"total_shuffled_edges={self.total_shuffled_edges})"
        )


class MapReduceSimulator:
    """k machines, each holding an edge array, advancing in lockstep rounds.

    Parameters
    ----------
    n_vertices:
        Vertex count of the underlying graph (all machines know ``V``).
    k:
        Number of machines.
    rng:
        Seed or generator; fans out into one private stream per machine.
    memory_cap_edges:
        Per-machine memory budget in edges (the MPC constraint), or
        ``None`` for unbounded.  Checked after :meth:`load` and after every
        round.
    executor:
        How per-machine round work runs: ``"serial"`` (default),
        ``"processes"``, ``"remote"``, an
        :class:`~repro.dist.executor.Executor` instance, or ``None`` to
        consult ``$REPRO_EXECUTOR``.  Rounds are barriers: results are
        adopted in machine-index order, and each machine's generator state
        is threaded back from the workers, so all backends are
        bit-identical per seed.  The ``processes`` backend requires
        picklable route/compute functions (no lambdas or closures).  The
        executor's worker pool persists *across rounds* — pool start-up is
        paid once per job, not once per barrier.  An executor resolved
        here (name/``None``) is owned by the simulator and released by
        :meth:`close` (simulators are context managers); a passed-in
        instance stays open for the caller to reuse.
    """

    def __init__(
        self,
        n_vertices: int,
        k: int,
        rng: RandomState = None,
        memory_cap_edges: Optional[int] = None,
        executor: ExecutorSpec = None,
    ) -> None:
        if n_vertices < 0:
            raise ValueError(
                f"n_vertices must be non-negative, got {n_vertices}"
            )
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        if memory_cap_edges is not None and memory_cap_edges < 0:
            raise ValueError(
                f"memory_cap_edges must be non-negative, got {memory_cap_edges}"
            )
        self.n_vertices = int(n_vertices)
        self.k = int(k)
        self.memory_cap_edges = memory_cap_edges
        self.executor = resolve_executor(executor)
        self._owns_executor = not isinstance(executor, Executor)
        self._machine_gens = spawn_generators(rng, self.k)
        self._edges: List[np.ndarray] = [
            np.zeros((0, 2), dtype=np.int64) for _ in range(self.k)
        ]
        self._loaded = False
        self.job = MapReduceJob()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release the executor's worker pool if this simulator owns it.

        Idempotent.  A simulator handed an :class:`Executor` instance
        never closes it — the caller amortizes that pool across jobs.
        """
        if self._owns_executor:
            self.executor.close()

    def __enter__(self) -> "MapReduceSimulator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # state
    # ------------------------------------------------------------------ #
    def load(self, pieces: Sequence[np.ndarray]) -> None:
        """Place the initial edge arrays on the machines (round 0, free)."""
        if len(pieces) != self.k:
            raise ValueError(
                f"expected {self.k} pieces, got {len(pieces)}"
            )
        self._edges = [self._validate_edges(p, owner=i)
                       for i, p in enumerate(pieces)]
        self._loaded = True
        self._enforce_memory_cap("load")
        self._track_peak()

    def machine_sizes(self) -> np.ndarray:
        """Per-machine edge counts as a length-``k`` int64 array."""
        return np.array([e.shape[0] for e in self._edges], dtype=np.int64)

    def machine_edges(self, i: int) -> np.ndarray:
        """The raw ``(m_i, 2)`` edge array currently on machine ``i``."""
        self._check_machine(i, "machine index")
        return self._edges[i]

    def machine_graph(self, i: int) -> Graph:
        """Machine ``i``'s piece as a graph on the full vertex set."""
        return Graph(self.n_vertices, self.machine_edges(i))

    # ------------------------------------------------------------------ #
    # rounds
    # ------------------------------------------------------------------ #
    def shuffle_round(self, route_fn: RouteFn) -> None:
        """One communication round: every machine routes each of its edges.

        ``route_fn(i, edges, rng)`` must return one destination machine id
        per edge of machine ``i``.  Edges are conserved by construction:
        every edge lands on exactly the machine its owner routed it to.
        """
        results = self._run_round(route_fn, _route_machine)

        all_edges: List[np.ndarray] = []
        all_dest: List[np.ndarray] = []
        moved = 0
        for i, (raw_dest, gen) in enumerate(results):
            self._machine_gens[i] = gen
            edges = self._edges[i]
            dest = np.asarray(raw_dest, dtype=np.int64)
            if dest.shape != (edges.shape[0],):
                raise ValueError(
                    f"route function must return one destination per edge: "
                    f"machine {i} has {edges.shape[0]} edges but got "
                    f"shape {dest.shape}"
                )
            if dest.size and (dest.min() < 0 or dest.max() >= self.k):
                raise ValueError(
                    f"machine {i} routed edges to destinations out of range "
                    f"[0, {self.k})"
                )
            moved += int((dest != i).sum())
            all_edges.append(edges)
            all_dest.append(dest)

        stacked = np.vstack(all_edges) if all_edges else \
            np.zeros((0, 2), dtype=np.int64)
        dests = np.concatenate(all_dest) if all_dest else \
            np.zeros(0, dtype=np.int64)
        # One bincount-style pass: sort edges by destination, then split.
        order = np.argsort(dests, kind="stable")
        stacked = stacked[order]
        counts = np.bincount(dests, minlength=self.k)
        bounds = np.concatenate([[0], np.cumsum(counts)])
        self._edges = [
            np.ascontiguousarray(stacked[bounds[j]:bounds[j + 1]])
            for j in range(self.k)
        ]
        self._finish_round("shuffle", moved)

    def compute_round(
        self, compute_fn: ComputeFn, send_to: Optional[int] = None
    ) -> List[Any]:
        """One local-computation round, optionally concentrating output.

        ``compute_fn(i, edges, rng)`` maps machine ``i``'s edge array to a
        new edge array (e.g. its coreset).  With ``send_to=None`` each
        output stays on its machine; with ``send_to=j`` all outputs are
        shipped to machine ``j`` (the paper's round-2 pattern), which
        counts as shuffle volume for every non-``j`` machine.

        A compute function may also return a ``(edges, aux)`` pair; the
        ``aux`` payloads (e.g. the fixed vertices of a VC coreset) are
        returned as a length-``k`` list in machine-index order.  Machines
        whose compute returned a bare edge array contribute ``None``.  This
        is the executor-safe replacement for side-channel mutation of
        caller state, which cannot cross a process boundary.
        """
        if send_to is not None:
            self._check_machine(send_to, "send_to machine")
        results = self._run_round(compute_fn, _compute_machine)

        outputs: List[np.ndarray] = []
        aux: List[Any] = []
        for i, (out, gen) in enumerate(results):
            self._machine_gens[i] = gen
            if isinstance(out, tuple):
                if len(out) != 2:
                    raise ValueError(
                        f"machine {i}: compute function returning a tuple "
                        f"must return (edges, aux), got length {len(out)}"
                    )
                out, extra = out
            else:
                extra = None
            aux.append(extra)
            outputs.append(self._validate_edges(out, owner=i))

        if send_to is None:
            self._edges = outputs
            moved = 0
        else:
            moved = sum(
                out.shape[0] for i, out in enumerate(outputs) if i != send_to
            )
            concentrated = np.vstack(outputs) if outputs else \
                np.zeros((0, 2), dtype=np.int64)
            self._edges = [
                np.zeros((0, 2), dtype=np.int64) for _ in range(self.k)
            ]
            self._edges[send_to] = concentrated
        self._finish_round("compute", moved)
        return aux

    def local_round(self, compute_fn: ComputeFn) -> List[Any]:
        """A purely local round: :meth:`compute_round` with no shipping."""
        return self.compute_round(compute_fn, send_to=None)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _run_round(self, round_fn: Any, worker: Any) -> List[tuple]:
        """Fan one round's per-machine work out on the configured backend.

        Each machine's edge array is pickled into its task; results come
        back as ``(output, generator)`` pairs in machine-index order.
        """
        tasks = [
            (i, self._edges[i], self._machine_gens[i], round_fn)
            for i in range(self.k)
        ]
        return self.executor.map(worker, tasks)

    def _validate_edges(self, edges: np.ndarray, owner: int) -> np.ndarray:
        arr = np.asarray(edges, dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(
                f"machine {owner}: edges must have shape (m, 2), "
                f"got {arr.shape}"
            )
        if arr.size and (arr.min() < 0 or arr.max() >= self.n_vertices):
            raise ValueError(
                f"machine {owner}: edge endpoints must lie in "
                f"[0, {self.n_vertices})"
            )
        return np.ascontiguousarray(arr)

    def _check_machine(self, i: int, what: str) -> None:
        if not 0 <= i < self.k:
            raise ValueError(f"{what} {i} out of range [0, {self.k})")

    def _enforce_memory_cap(self, when: str) -> None:
        if self.memory_cap_edges is None:
            return
        sizes = self.machine_sizes()
        worst = int(sizes.argmax()) if self.k else 0
        if sizes.size and sizes[worst] > self.memory_cap_edges:
            raise MemoryCapExceeded(
                f"after {when}: machine {worst} holds {int(sizes[worst])} "
                f"edges, exceeding the memory cap of "
                f"{self.memory_cap_edges} edges"
            )

    def _track_peak(self) -> None:
        if self.k:
            self.job.peak_machine_edges = max(
                self.job.peak_machine_edges, int(self.machine_sizes().max())
            )

    def _finish_round(self, kind: str, moved: int) -> None:
        self._enforce_memory_cap(f"{kind} round {self.job.n_rounds + 1}")
        self._track_peak()
        self.job.rounds.append(
            RoundRecord(
                kind=kind,
                total_edges_moved=moved,
                machine_sizes=self.machine_sizes(),
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MapReduceSimulator(n_vertices={self.n_vertices}, k={self.k}, "
            f"rounds={self.job.n_rounds}, "
            f"edges={int(self.machine_sizes().sum())})"
        )
