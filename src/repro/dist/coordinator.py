"""The simultaneous-protocol engine.

A protocol in the paper's model is fully described by three pieces of code
(:class:`SimultaneousProtocol`):

* a **summarizer** run independently on every machine's piece, producing
  that machine's single :class:`~repro.dist.message.Message`;
* a **combine** step run by the coordinator over the k collected messages;
* optionally a **public_setup** sampling shared public randomness (e.g. the
  Remark 5.8 vertex grouping) that every machine sees identically.

:func:`run_simultaneous` executes a protocol over a partitioned graph: it
derives one independent seed per machine (plus one for the public setup)
from a single seed, collects one message per machine, charges every
message to the :class:`~repro.dist.ledger.CommunicationLedger`, and hands
the messages to the coordinator.  Given the same seed and partition the
whole run is bit-identical — the reproducibility contract every experiment
relies on.  The per-machine work can run serially, on a process pool, or
on a remote fleet (:mod:`repro.dist.executor`) without changing a single
output bit: machines are composed in index order, never completion order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generic, List, Optional, Protocol as TypingProtocol, TypeVar

import numpy as np

from repro.dist.executor import Executor, ExecutorSpec, resolve_executor
from repro.dist.ledger import CommunicationLedger
from repro.dist.machine import Machine, Summarizer
from repro.dist.message import Message
from repro.dist.shm import ResidentGraph
from repro.graph.bipartite import BipartiteGraph
from repro.graph.edgelist import Graph
from repro.graph.partition import SeededRecipe
from repro.utils.rng import RandomState, spawn_seeds

__all__ = [
    "Coordinator",
    "ProtocolResult",
    "SimultaneousProtocol",
    "run_simultaneous",
]

T = TypeVar("T")


class _Partitioned(TypingProtocol):
    """Anything that splits a graph into k machine pieces.

    Satisfied by :class:`~repro.graph.partition.PartitionedGraph` (the
    paper's random edge partitioning) and
    :class:`~repro.graph.partition.VertexPartitionedGraph` (the §1.3
    vertex-partition model of [10]) alike.
    """

    graph: Graph
    k: int

    def recipe(self, i: int) -> Any:
        """What machine ``i`` needs besides the graph: an object whose
        ``piece(graph, i)`` cuts that machine's piece."""
        ...


@dataclass
class Coordinator:
    """The coordinator's view: the vertex set and an optional template.

    The coordinator knows ``V`` (so ``n_vertices``) but not ``E``.  The
    ``template`` carries graph *metadata* the model makes public — in
    particular the bipartition, which algorithms like Hopcroft–Karp and
    König need — never the edges themselves.
    """

    n_vertices: int
    template: Optional[Graph] = None

    def __post_init__(self) -> None:
        if self.n_vertices < 0:
            raise ValueError(
                f"n_vertices must be non-negative, got {self.n_vertices}"
            )
        if self.template is not None and self.template.n_vertices != self.n_vertices:
            raise ValueError(
                f"template has {self.template.n_vertices} vertices, "
                f"expected {self.n_vertices}"
            )

    # ------------------------------------------------------------------ #
    def union_graph(self, messages: List[Message]) -> Graph:
        """The union of all message edge sets, as a graph on ``V``.

        Dispatches on the template: a bipartite template yields a
        :class:`~repro.graph.bipartite.BipartiteGraph` with the same side
        split, so side-aware algorithms keep working downstream.  Edge
        endpoints are range-checked — a message naming vertices outside
        ``V`` is a protocol violation, not a silent truncation.
        """
        if messages:
            stacked = np.vstack([m.edges for m in messages])
        else:
            stacked = np.zeros((0, 2), dtype=np.int64)
        if isinstance(self.template, BipartiteGraph):
            return BipartiteGraph(
                self.template.n_left, self.template.n_right, stacked
            )
        return Graph(self.n_vertices, stacked)

    @staticmethod
    def fixed_vertices(messages: List[Message]) -> np.ndarray:
        """The sorted union of all fixed-vertex sets across messages."""
        parts = [m.fixed_vertices for m in messages if m.n_fixed_vertices]
        if not parts:
            return np.zeros(0, dtype=np.int64)
        return np.unique(np.concatenate(parts))


@dataclass
class SimultaneousProtocol(Generic[T]):
    """A complete protocol description for the simultaneous model.

    Parameters
    ----------
    name:
        Display name (used by experiment tables and reprs).
    summarizer:
        ``summarizer(piece, machine_index, rng, public=...) -> Message``;
        run once per machine on its piece with its private generator.
    combine:
        ``combine(coordinator, messages) -> T``; the coordinator's
        composition step over all k messages.
    public_setup:
        Optional ``public_setup(graph, k, rng) -> object`` sampling public
        randomness shared by all machines.  It receives the full graph
        object, but the model only permits it to use *public* knowledge
        (``n``, the bipartition, k) plus the public coin flips in ``rng``.
    """

    name: str
    summarizer: Summarizer
    combine: Callable[[Coordinator, List[Message]], T]
    public_setup: Optional[Callable[[Graph, int, np.random.Generator], Any]] = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimultaneousProtocol({self.name!r})"


@dataclass
class ProtocolResult(Generic[T]):
    """The outcome of one protocol execution."""

    output: T
    messages: List[Message] = field(default_factory=list)
    ledger: CommunicationLedger = None  # type: ignore[assignment]

    @property
    def total_bits(self) -> int:
        """Total communication of the run, in bits."""
        return self.ledger.total_bits()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ProtocolResult(messages={len(self.messages)}, "
            f"total_bits={self.total_bits})"
        )


def _summarize_machine(task: tuple) -> Message:
    """Cut one machine's piece and run its summarizer; the unit of work an
    executor ships.

    The task names the graph (the executor's resident reference) and the
    partition's recipe for machine ``index``; the piece is cut here, on
    the machine, and the machine's generator is built here from its
    spawned ``SeedSequence``.  Module-level on purpose: the pooled
    backends pickle this function (and its task tuple) into a worker,
    which a closure could not survive.
    """
    graph, recipe, index, seed, summarizer, public = task
    if isinstance(graph, ResidentGraph):
        graph = graph.open()
    machine = Machine(index=index, piece=recipe.piece(graph, index),
                      rng=np.random.default_rng(seed))
    return machine.summarize(summarizer, public)


def run_simultaneous(
    protocol: SimultaneousProtocol[T],
    partition: _Partitioned,
    rng: RandomState = None,
    executor: ExecutorSpec = None,
) -> ProtocolResult[T]:
    """Execute ``protocol`` over a partitioned graph.

    Randomness discipline: a single ``rng`` seed fans out into ``k + 1``
    independent streams — one per machine (private coins) plus one for the
    public setup (public coins) — via SeedSequence spawning, so the same
    seed reproduces the run bit for bit regardless of machine count or
    execution order.

    ``executor`` selects how the k machines run (``"serial"``,
    ``"processes"``, ``"remote"``, an :class:`~repro.dist.executor.Executor`
    instance, or ``None`` for ``$REPRO_EXECUTOR``/serial).  Machine work is
    submitted and collected in machine-index order, the ledger is charged
    after the barrier in that same order, and the public setup and the
    combine step always run in the calling process — so every backend
    yields bit-identical results for the same seed (the contract documented
    in ``docs/PARALLELISM.md``).  A machine's task is a reference, not a
    piece: the executor's resident reference to the graph
    (:meth:`~repro.dist.executor.Executor.resident`), the partition's
    recipe for that machine, its index, its spawned seed, the summarizer
    and the public setup.  The machine cuts its own piece, so the
    coordinator never builds or ships the k pieces, and a random
    partition's task pickles to O(1) bytes in the edge count.  The
    pooled backends additionally require the summarizer to be picklable.

    An executor resolved here (by name or from the environment) is closed
    before returning; a passed-in :class:`~repro.dist.executor.Executor`
    instance is left open so callers can amortize one pool across many
    runs (``docs/PARALLELISM.md`` §6).
    """
    graph = partition.graph
    k = partition.k
    seeds = spawn_seeds(rng, k + 1)
    backend = resolve_executor(executor)
    owns_backend = not isinstance(executor, Executor)

    try:
        public = (
            protocol.public_setup(graph, k, np.random.default_rng(seeds[k]))
            if protocol.public_setup is not None
            else None
        )

        # A lone machine's piece is the whole graph, and a lone task runs
        # inline until a pool exists: it carries the graph itself.
        ref = backend.resident(graph) if k > 1 else graph
        recipes = [partition.recipe(i) for i in range(k)]
        tasks = [
            (ref, recipes[i], i, seeds[i], protocol.summarizer, public)
            for i in range(k)
        ]
        # A random partition's pieces are about the same size, so its
        # machines need no balancing; an explicit partition's may not be.
        messages: List[Message] = backend.map(
            _summarize_machine, tasks,
            equal_cost=all(isinstance(r, SeededRecipe) for r in recipes),
        )
    finally:
        if owns_backend:
            backend.close()

    ledger = CommunicationLedger(n_vertices=max(graph.n_vertices, 1), k=k)
    for message in messages:
        ledger.record(message)

    coordinator = Coordinator(
        n_vertices=graph.n_vertices, template=_metadata_template(graph)
    )
    output = protocol.combine(coordinator, messages)
    return ProtocolResult(output=output, messages=messages, ledger=ledger)


def _metadata_template(graph: Graph) -> Graph:
    """An edge-free copy of ``graph`` carrying only public metadata.

    The coordinator may know ``n`` and the bipartition but must never see
    the input edges except through messages; handing it the full graph
    would let a buggy combine step read the input for free, invisibly to
    the ledger.
    """
    if isinstance(graph, BipartiteGraph):
        return BipartiteGraph(graph.n_left, graph.n_right)
    return Graph(graph.n_vertices)
