"""Layer-by-layer replay of one coreset ``solve()``.

:func:`replay` re-runs the pipeline that ``solve(g, "matching.coreset" |
"vertex_cover.coreset", RunContext(seed, k))`` runs, through the same
public functions and in the order the facade calls them, and times each
call from here:

1. ``RunContext.generators`` and ``random_k_partition``    graph.partition
2. ``PartitionedGraph.piece`` for each machine              graph.pieces
3. the protocol's summarizer per machine, in-process       dist.summarize
   then the k machine tasks through the run's executor     dist.barrier
4. ``CommunicationLedger.record`` per message              dist.ledger
5. ``compose_matching`` / ``compose_vertex_cover``          core.compose
6. ``is_matching`` / ``is_vertex_cover``                    solve.verify

Nothing inside the program is instrumented, so a replay counts only while
it reproduces its untraced solve bit for bit: :func:`traced_solve` runs
both and raises :class:`ReplayMismatch` otherwise.
"""

from __future__ import annotations

import pickle
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.compose import (
    compose_matching,
    compose_vertex_cover,
    union_of_coresets,
)
from repro.core.protocols import (
    matching_coreset_protocol,
    vertex_cover_coreset_protocol,
)
from repro.core.vc_coreset import VCCoresetResult
from repro.cover.verify import is_vertex_cover
from repro.dist.executor import Executor, ProcessExecutor, SerialExecutor
from repro.dist.ledger import CommunicationLedger
from repro.dist.machine import Machine
from repro.dist.message import Message
from repro.graph.bipartite import BipartiteGraph
from repro.graph.edgelist import Graph
from repro.graph.partition import random_k_partition
from repro.matching.api import maximum_matching
from repro.matching.hopcroft_karp import hopcroft_karp_mates
from repro.matching.verify import is_matching
from repro.solve import RunContext, SolveResult, get_solver, solve
from repro.utils.rng import spawn_generators

__all__ = ["BLOCKING", "Replay", "ReplayMismatch", "SOLVERS",
           "count_kernel_calls", "fidelity", "kernel_time", "layer_medians",
           "replay", "summarize_task", "traced_solve"]

#: The coreset solver each problem replays.
SOLVERS = {"matching": "matching.coreset",
           "vertex_cover": "vertex_cover.coreset"}
#: The phases a solve waits on, in order; their sum is the replayed time.
BLOCKING = ("graph.partition_ms", "graph.pieces_ms", "dist.barrier_ms",
            "dist.ledger_ms", "core.compose_ms", "solve.verify_ms")

_clock = time.perf_counter


class ReplayMismatch(RuntimeError):
    """A replay that does not reproduce its solve; the trace is void."""


@dataclass
class Replay:
    """One replayed solve: its outputs, per-phase times and counts."""

    certificate: np.ndarray
    total_bits: int
    phases_ms: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)
    pieces: List[Graph] = field(default_factory=list)
    messages: List[Message] = field(default_factory=list)
    template: Optional[Graph] = None


def summarize_task(task: tuple) -> Message:
    """One machine's work as the engine ships it by default: the piece
    itself, pickled into the task.  Module-level so a process pool can
    unpickle it."""
    index, piece, gen, summarizer, public = task
    return Machine(index=index, piece=piece, rng=gen).summarize(summarizer,
                                                                public)


def _same_message(a: Message, b: Message) -> bool:
    return (a.sender == b.sender and a.aux_bits == b.aux_bits
            and np.array_equal(a.edges, b.edges)
            and np.array_equal(a.fixed_vertices, b.fixed_vertices))


def replay(graph: Graph, problem: str, seed: int, k: int,
           executor: Executor) -> Replay:
    """Replay ``solve(graph, SOLVERS[problem], RunContext(seed, k))`` with
    the machine tasks on ``executor``; the messages it returns must equal
    the in-process ones, and the certificate must pass its verifier."""
    params = get_solver(SOLVERS[problem]).params
    if problem == "matching":
        protocol = matching_coreset_protocol(
            combiner=params["combiner"], algorithm=params["algorithm"])
    else:
        protocol = vertex_cover_coreset_protocol(
            k=k, combiner=params["combiner"], log_slack=params["log_slack"])
    ctx = RunContext(seed=seed, k=k)
    n = graph.n_vertices
    ms: Dict[str, float] = {}
    counts: Dict[str, int] = {}

    t = _clock()
    partition_rng, run_rng = ctx.generators(2)
    partition = random_k_partition(graph, k, partition_rng)
    ms["graph.partition_ms"] = (_clock() - t) * 1e3

    t = _clock()
    pieces = [partition.piece(i) for i in range(k)]
    ms["graph.pieces_ms"] = (_clock() - t) * 1e3

    # k machine streams plus the public-setup stream, as the engine
    # derives them; neither protocol has a public setup.
    gens = spawn_generators(run_rng, k + 1)
    messages: List[Message] = []
    per_machine: List[float] = []
    for i in range(k):
        t = _clock()
        messages.append(Machine(index=i, piece=pieces[i], rng=gens[i])
                        .summarize(protocol.summarizer, None))
        per_machine.append((_clock() - t) * 1e3)
    ms["dist.summarize_ms"] = sum(per_machine)
    ms["dist.summarize_max_ms"] = max(per_machine)

    # Fresh streams: the in-process pass may have advanced its own.
    gens = spawn_generators(ctx.generators(2)[1], k + 1)
    tasks = [(i, pieces[i], gens[i], protocol.summarizer, None)
             for i in range(k)]
    counts["dist.task_bytes"] = (
        sum(len(pickle.dumps(task)) for task in tasks)
        if isinstance(executor, ProcessExecutor) else 0)
    t = _clock()
    pooled = executor.map(summarize_task, tasks)
    ms["dist.barrier_ms"] = (_clock() - t) * 1e3
    if not all(map(_same_message, messages, pooled)):
        raise ReplayMismatch("executor messages differ from in-process ones")

    t = _clock()
    ledger = CommunicationLedger(n_vertices=max(n, 1), k=k)
    for message in messages:
        ledger.record(message)
    ms["dist.ledger_ms"] = (_clock() - t) * 1e3

    # The coordinator's edge-free template: public metadata only.
    if isinstance(graph, BipartiteGraph):
        template: Graph = BipartiteGraph(graph.n_left, graph.n_right)
    else:
        template = Graph(n)
    t = _clock()
    if problem == "matching":
        certificate = compose_matching(
            n, [m.edges for m in messages], combiner=params["combiner"],
            template=template)
    else:
        coresets = [
            VCCoresetResult(fixed_vertices=m.fixed_vertices,
                            residual=Graph(n, m.edges, validated=False),
                            trace=None)
            for m in messages
        ]
        certificate = compose_vertex_cover(
            n, coresets, combiner=params["combiner"], template=template)
    ms["core.compose_ms"] = (_clock() - t) * 1e3

    t = _clock()
    if problem == "matching":
        valid = is_matching(graph, certificate)
    else:
        valid = is_vertex_cover(graph, certificate)
    ms["solve.verify_ms"] = (_clock() - t) * 1e3
    if not valid:
        raise ReplayMismatch("replayed certificate fails its verifier")

    counts["dist.message_edges"] = ledger.total_edges()
    counts["core.fixed_vertices"] = ledger.total_fixed_vertices()
    return Replay(certificate=np.asarray(certificate, dtype=np.int64),
                  total_bits=ledger.total_bits(), phases_ms=ms, counts=counts,
                  pieces=pieces, messages=messages, template=template)


def fidelity(result: SolveResult, rep: Replay) -> List[str]:
    """Names of the outputs where the replay differs from ``result``."""
    mismatches = []
    if not np.array_equal(result.certificate, rep.certificate):
        mismatches.append("certificate")
    if rep.total_bits != result.stats["total_bits"]:
        mismatches.append("total_bits")
    return mismatches


def kernel_time(rep: Replay) -> Tuple[float, int]:
    """``(ms, edges)``: ``maximum_matching`` over every piece and over the
    union of the messages, the inputs the Theorem 1 pipeline feeds it."""
    n = rep.template.n_vertices
    union = union_of_coresets(n, [m.edges for m in rep.messages],
                              rep.template)
    inputs = [*rep.pieces, union]
    t = _clock()
    for g in inputs:
        maximum_matching(g)
    return (_clock() - t) * 1e3, sum(g.n_edges for g in inputs)


def count_kernel_calls(fn: Callable[[], Any]) -> int:
    """How many times ``fn()`` enters the Hopcroft–Karp kernel in this
    process (a profile hook, so never inside a timed region)."""
    code = hopcroft_karp_mates.__code__
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is code:
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return calls


def traced_solve(graph: Graph, problem: str, seed: int, k: int,
                 executor: Any = None) -> Tuple[SolveResult, Dict[str, float]]:
    """An untraced ``solve()`` and then its replay, as one row of layer
    numbers.

    ``executor`` is the run's ``RunContext.executor`` (``None`` for the
    default, a backend name or an instance); the replay's barrier runs on
    that instance, or on the serial executor the others resolve to.
    Raises :class:`ReplayMismatch` unless the replay reproduces the
    solve's certificate and ``total_bits`` exactly.
    """
    t = _clock()
    result = solve(graph, SOLVERS[problem],
                   RunContext(seed=seed, k=k, executor=executor))
    untraced_ms = (_clock() - t) * 1e3
    barrier = executor if isinstance(executor, Executor) else SerialExecutor()
    rep = replay(graph, problem, seed, k, barrier)
    mismatches = fidelity(result, rep)
    if mismatches:
        raise ReplayMismatch(f"replay of seed {seed} differs from solve() "
                             f"in: {', '.join(mismatches)}")
    row = {**rep.phases_ms, **rep.counts, "untraced_ms": untraced_ms}
    if problem == "matching":
        row["matching.kernel_ms"], row["matching.kernel_edges"] = \
            kernel_time(rep)
    return result, row


def layer_medians(rows: List[Dict[str, float]]) -> Dict[str, float]:
    """Each layer's median over the rows that have it, plus the facade's
    share: the median untraced solve minus the blocking phases, and the
    share of that solve the replay covers."""
    names = {name for row in rows for name in row}
    layer = {name: statistics.median([row[name] for row in rows
                                      if name in row])
             for name in sorted(names)}
    untraced = layer.pop("untraced_ms")
    phase_sum = sum(layer[name] for name in BLOCKING)
    layer["solve.facade_ms"] = untraced - phase_sum
    layer["trace.coverage"] = phase_sum / untraced
    return layer
