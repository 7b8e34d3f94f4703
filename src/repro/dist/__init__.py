"""The distributed substrate: simultaneous protocols and MapReduce.

The paper's model of computation is the *simultaneous communication model*:
the edges of a graph are partitioned across ``k`` machines, every machine
sends a single message (its coreset) to a coordinator, and the coordinator
must output a solution from the union of the messages alone.  Communication
is measured in bits (:mod:`repro.utils.bits`).  This package provides that
substrate, independent of any particular coreset:

* :mod:`repro.dist.message` — the :class:`~repro.dist.message.Message` a
  machine sends: an edge set, a fixed partial solution, and an auxiliary
  bit payload, with an exact bit-size accounting.
* :mod:`repro.dist.ledger` — the
  :class:`~repro.dist.ledger.CommunicationLedger` charging every message to
  its sender, so protocols are compared against the paper's lower bounds in
  the same currency.
* :mod:`repro.dist.machine` — one simulated
  :class:`~repro.dist.machine.Machine` holding a piece of the input and a
  private randomness stream.
* :mod:`repro.dist.coordinator` — the
  :class:`~repro.dist.coordinator.SimultaneousProtocol` description and the
  :func:`~repro.dist.coordinator.run_simultaneous` engine that executes it
  over a partitioned graph.
* :mod:`repro.dist.mapreduce` — the
  :class:`~repro.dist.mapreduce.MapReduceSimulator` with per-machine memory
  caps, for the paper's 2-round MPC corollaries.
* :mod:`repro.dist.executor` — pluggable execution backends (``serial``,
  ``processes``, ``remote``) for the per-machine work of both
  engines, with persistent worker pools amortized across rounds and trials.
* :mod:`repro.dist.shm` — shared-memory graph segments: a
  :class:`~repro.dist.shm.ResidentPin` writes a graph into one segment
  and a task carries its :class:`~repro.dist.shm.ResidentGraph`
  reference, which each worker attaches once.  The ``processes`` backend
  pins the graph of its barriers this way, and ``repro serve`` every
  graph it registers on a process pool; a machine task carries the
  reference and its partition's recipe, and the machine cuts its own
  piece.
* :mod:`repro.dist.remote` — the socket coordinator behind
  ``executor="remote"``: ``repro worker`` processes joined over
  length-prefixed RPC, with per-task timeouts, bounded retry, heartbeats,
  and the content-addressed :class:`~repro.dist.remote.RemotePieceCache`,
  which ships a graph, or an explicit partition's machine rows, at most
  once per worker.

Machines are independent in the model, and the engines preserve that
independence in the code, so the k per-machine computations can genuinely
run in parallel — with outputs bit-identical to a serial run for the same
seed, because results are always composed in machine-index order (the
contract documented in ``docs/PARALLELISM.md``)::

    from repro.core.protocols import matching_coreset_protocol
    from repro.dist import run_simultaneous
    from repro.graph.generators import planted_matching_gnp
    from repro.graph.partition import random_k_partition

    graph, _ = planted_matching_gnp(2000, 2000, p=3.0 / 4000, rng=0)
    part = random_k_partition(graph, k=8, rng=1)

    serial = run_simultaneous(matching_coreset_protocol(), part, rng=2)
    procs = run_simultaneous(matching_coreset_protocol(), part, rng=2,
                             executor="processes")  # one process per machine
    assert (serial.output == procs.output).all()

The ``processes`` backend requires picklable summarizers (the factories in
:mod:`repro.core.protocols` all qualify); setting ``REPRO_EXECUTOR``
selects the default backend for a whole run without touching call sites.
"""

from repro.dist.coordinator import (
    Coordinator,
    ProtocolResult,
    SimultaneousProtocol,
    run_simultaneous,
)
from repro.dist.executor import (
    Executor,
    ExecutorClosedError,
    ExecutorError,
    ProcessExecutor,
    SerialExecutor,
    UnpicklableTaskError,
    WorkerPoolBrokenError,
    available_backends,
    resolve_executor,
)
from repro.dist.ledger import CommunicationLedger
from repro.dist.machine import Machine
from repro.dist.mapreduce import (
    MapReduceJob,
    MapReduceSimulator,
    MemoryCapExceeded,
    RoundRecord,
)
from repro.dist.message import Message

#: Names served from :mod:`repro.dist.remote` on first access (PEP 562):
#: the socket backend is imported only by a process that uses it.
_REMOTE_NAMES = frozenset({
    "RemoteDegradedWarning",
    "RemoteExecutor",
    "RemotePieceCache",
    "RemoteTaskError",
})

__all__ = [
    "CommunicationLedger",
    "Coordinator",
    "Executor",
    "ExecutorClosedError",
    "ExecutorError",
    "Machine",
    "MapReduceJob",
    "MapReduceSimulator",
    "MemoryCapExceeded",
    "Message",
    "ProcessExecutor",
    "ProtocolResult",
    "RemoteDegradedWarning",
    "RemoteExecutor",
    "RemotePieceCache",
    "RemoteTaskError",
    "RoundRecord",
    "SerialExecutor",
    "SimultaneousProtocol",
    "UnpicklableTaskError",
    "WorkerPoolBrokenError",
    "available_backends",
    "resolve_executor",
    "run_simultaneous",
]


def __getattr__(name: str):
    if name in _REMOTE_NAMES:
        from repro.dist import remote

        return getattr(remote, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
