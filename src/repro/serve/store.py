"""The server's resident graph store: load once, pin, serve forever.

A :class:`GraphStore` owns every graph the server can solve over.  Each
graph is loaded once (at startup via ``--graph`` or at runtime via
``POST /graphs``) and *pinned*: when the worker pool runs in separate
processes, a :class:`~repro.dist.shm.ResidentPin` writes the graph —
edges, and the weights and capacities of the weighted types — into one
shared-memory segment up front, so each request ships the pin's small
:class:`~repro.dist.shm.ResidentGraph` reference instead of the graph,
and each worker attaches a graph once, not once per request.

On top of the graphs sits a small LRU of **partition views**: coreset
solvers derive their k-partition from ``(seed, k)``, so whenever tasks
carry the graph object (every pool but a process pool) the store builds
``random_k_partition`` once per ``(graph, k, seed)`` and hands the same
:class:`~repro.graph.partition.PartitionedGraph` to every request that
repeats the triple — which is exactly what a micro-batch of identical
requests does.  The partition's seed sequence is re-derived from
``RunContext(seed, k).seed_sequences(2)[0]`` (the stream the adapter
itself would draw), so a cached view is bit-identical to the partition an
uncached solve would have built.  Building a view draws nothing (the
draw happens when a machine cuts its piece), so a lookup is O(1) either
way.  A view is a plain in-memory object, so the cache needs no leases:
evicting one drops only the cache's reference, never a running solve's.

Unpinning is refcounted and never yanks memory from under a request:
``unregister`` retires the graph immediately (new requests 404) but
defers closing its pin until every in-flight lease is released — and
POSIX keeps existing mappings valid past unlink anyway, so even a racing
worker cannot fault.  A worker keeps the last graph it attached mapped
until it attaches another one.  ``tests/test_serve_faults.py`` hammers
exactly this path.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.dist.shm import ResidentPin
from repro.graph.bipartite import BipartiteGraph
from repro.graph.partition import PartitionedGraph, random_k_partition
from repro.graph.weights import WeightedGraph
from repro.serve.protocol import Conflict, NotFound

__all__ = ["MAX_VIEWS_PER_GRAPH", "GraphStore", "PinnedGraph"]

#: Bound of each graph's partition-view LRU.
MAX_VIEWS_PER_GRAPH = 4


@dataclass
class PinnedGraph:
    """A registered graph, its shared-segment pin, and its view cache."""

    graph_id: str
    source: str
    seed: int
    graph: Any
    pin: Optional[ResidentPin] = None
    refs: int = 0
    retired: bool = False
    solves: int = 0
    views: "OrderedDict[Tuple[int, int], PartitionedGraph]" = field(
        default_factory=OrderedDict
    )

    def info(self) -> Dict[str, Any]:
        g = self.graph
        return {
            "id": self.graph_id,
            "source": self.source,
            "seed": self.seed,
            "kind": type(g).__name__,
            "n_vertices": int(g.n_vertices),
            "n_edges": int(g.n_edges),
            "bipartite": isinstance(g, BipartiteGraph),
            "weighted": isinstance(g, WeightedGraph),
            "pinned_shared": self.pin is not None,
            "in_flight": self.refs,
            "partition_views": len(self.views),
            "solves": self.solves,
        }


class GraphStore:
    """Thread-safe registry of pinned graphs and cached partition views.

    ``pin_shared=True`` (process pools) pins each registered graph in a
    shared segment at registration; ``False`` (in-process pools) skips the
    copy and shares the object directly.
    """

    def __init__(self, pin_shared: bool = False) -> None:
        self.pin_shared = pin_shared
        self._graphs: Dict[str, PinnedGraph] = {}
        self._lock = threading.RLock()
        self.views_created = 0
        self.view_hits = 0

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def register(self, graph_id: str, source: str, seed: int = 0,
                 graph: Any = None) -> PinnedGraph:
        """Load (if needed), pin, and register a graph under ``graph_id``.

        The load and the pin's copy run outside the store lock, so a
        slow registration never stalls in-flight solves; only the final
        insert is serialized (and re-checks for an id conflict).
        """
        with self._lock:
            if graph_id in self._graphs:
                raise Conflict(f"graph id {graph_id!r} is already registered",
                               graph=graph_id)
        if graph is None:
            from repro.solve.graphs import load_graph

            graph = load_graph(source, rng=int(seed))
        pin = ResidentPin(graph) if self.pin_shared else None
        pg = PinnedGraph(graph_id=graph_id, source=source, seed=int(seed),
                         graph=graph, pin=pin)
        with self._lock:
            if graph_id in self._graphs:
                if pin is not None:
                    pin.close()
                raise Conflict(f"graph id {graph_id!r} is already registered",
                               graph=graph_id)
            self._graphs[graph_id] = pg
        return pg

    def unregister(self, graph_id: str) -> Dict[str, Any]:
        """Retire a graph: 404 for new requests, its segment freed once the
        last in-flight lease drains (existing mappings stay valid)."""
        with self._lock:
            pg = self._graphs.pop(graph_id, None)
            if pg is None:
                raise NotFound(f"no graph registered as {graph_id!r}",
                               graph=graph_id)
            pg.retired = True
            info = pg.info()
            pg.views.clear()
            if pg.refs == 0:
                self._finalize(pg)
        return info

    def _finalize(self, pg: PinnedGraph) -> None:
        if pg.pin is not None:
            pg.pin.close()
            pg.pin = None

    # ------------------------------------------------------------------ #
    # lookup and leases
    # ------------------------------------------------------------------ #
    def get(self, graph_id: str) -> PinnedGraph:
        with self._lock:
            pg = self._graphs.get(graph_id)
            if pg is None:
                raise NotFound(f"no graph registered as {graph_id!r}",
                               graph=graph_id)
            return pg

    def acquire(self, graph_id: str) -> PinnedGraph:
        """Lease a graph for one request; pair with :meth:`release`."""
        with self._lock:
            pg = self.get(graph_id)
            pg.refs += 1
            return pg

    def release(self, pg: PinnedGraph) -> None:
        with self._lock:
            pg.refs -= 1
            if pg.retired and pg.refs == 0:
                self._finalize(pg)

    def ids(self) -> List[str]:
        with self._lock:
            return list(self._graphs)

    def infos(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [pg.info() for pg in self._graphs.values()]

    # ------------------------------------------------------------------ #
    # partition views
    # ------------------------------------------------------------------ #
    def lease_view(self, pg: PinnedGraph, k: int,
                   seed: int) -> PartitionedGraph:
        """The cached partition view for ``(pg, k, seed)``, building it on
        first use.

        The partition is derived exactly as the coreset adapters derive it
        — stream 0 of ``RunContext(seed, k).seed_sequences(2)`` feeding
        ``random_k_partition`` — so handing the view into the solver's
        ``partition=`` seat is bit-identical to letting it partition
        itself (``tests/test_serve_api.py`` proves this end to end).
        """
        from repro.solve.context import RunContext

        key = (int(k), int(seed))
        with self._lock:
            view = pg.views.get(key)
            if view is not None:
                pg.views.move_to_end(key)
                self.view_hits += 1
                return view
            sequence = RunContext(seed=seed, k=k).seed_sequences(2)[0]
            view = pg.views[key] = random_k_partition(pg.graph, k, sequence)
            self.views_created += 1
            if len(pg.views) > MAX_VIEWS_PER_GRAPH:
                pg.views.popitem(last=False)
            return view

    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "graphs": len(self._graphs),
                "partition_views": sum(len(pg.views)
                                       for pg in self._graphs.values()),
                "views_created": self.views_created,
                "view_hits": self.view_hits,
            }

    def close(self) -> None:
        """Force-release everything (shutdown path; in-flight mappings
        survive the unlink by POSIX semantics)."""
        with self._lock:
            graphs, self._graphs = list(self._graphs.values()), {}
            for pg in graphs:
                pg.retired = True
                pg.views.clear()
                self._finalize(pg)
