"""Shared-memory graph segments and their handles.

Two owners keep a graph resident in a segment instead of pickling it into
every task.  ``repro serve`` pins every registered graph for its whole
lifetime, and a :class:`~repro.dist.executor.ProcessExecutor` pins the
graph of its most recent barrier (:class:`ResidentPin`), so a machine
task carries only a :class:`ResidentGraph` reference and the machine cuts
its own piece.  :class:`SharedEdgeStore` writes a graph once into a
``multiprocessing.shared_memory`` segment (or a memory-mapped temp file
where POSIX shared memory is unavailable): the edge array, and for the
weighted types the per-edge weights and the capacities.  A task carries a
lightweight :class:`EdgeHandle` — ``(backend, name, offsets, rows)`` plus
graph metadata — and workers reconstruct a read-only graph of the same
type *in place*, no copy on either side.  A reconstructed view is
bit-identical to the arrays that were stored (covered by
``tests/test_dist_shm.py``).

Lifecycle
---------
The *owner* unlinks its segments in :meth:`SharedEdgeStore.close` —
stores are context managers, and close is idempotent; an executor closes
its pin when a barrier over another graph replaces it and on ``close()``.
Workers attach via :func:`open_edges` / :func:`open_graph`; attachment
lifetime is reference-counted through the numpy base chain, so a worker's
mapping disappears when its last view dies — at the end of a task, when
:meth:`ResidentGraph.open` moves on to the next graph, or exactly as late
as a result that aliases the graph requires.  If the owner dies without
closing, the interpreter's resource tracker reclaims shm segments and the
OS reclaims temp files — a worker crash therefore cannot leak segments
past the owning process.

The segment backend follows ``$REPRO_SHM_BACKEND`` (``shm`` where
available, else ``mmap``).
"""

from __future__ import annotations

import itertools
import os
import tempfile
import threading
import weakref
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.bipartite import BipartiteGraph
from repro.graph.capacity import (
    CapacitatedBipartiteGraph,
    WeightedBipartiteGraph,
)
from repro.graph.edgelist import Graph
from repro.graph.weights import WeightedGraph

try:  # pragma: no cover - always present on CPython >= 3.8
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - exotic platforms only
    _shared_memory = None

__all__ = [
    "SHM_BACKEND_ENV",
    "AttachedEdges",
    "EdgeHandle",
    "ResidentGraph",
    "ResidentPin",
    "SharedEdgeStore",
    "SharedStoreClosedError",
    "open_edges",
    "open_graph",
]

#: Environment variable forcing the segment backend (``shm`` or ``mmap``).
SHM_BACKEND_ENV = "REPRO_SHM_BACKEND"

_EDGE_DTYPE = np.int64
_ROW_BYTES = 2 * np.dtype(_EDGE_DTYPE).itemsize


class SharedStoreClosedError(RuntimeError):
    """A :class:`SharedEdgeStore` was used after :meth:`~SharedEdgeStore.close`."""


def _default_backend() -> str:
    env = os.environ.get(SHM_BACKEND_ENV)
    if env:
        name = env.strip().lower()
        if name not in ("shm", "mmap"):
            raise ValueError(
                f"${SHM_BACKEND_ENV} must be 'shm' or 'mmap', got {env!r}"
            )
        if name == "shm" and _shared_memory is None:  # pragma: no cover
            raise ValueError(
                "shared_memory is unavailable on this platform; "
                f"set ${SHM_BACKEND_ENV}=mmap"
            )
        return name
    return "shm" if _shared_memory is not None else "mmap"


# --------------------------------------------------------------------- #
# handles
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class EdgeHandle:
    """A picklable pointer to one edge array inside a shared segment.

    This is what crosses the process boundary instead of the array: a few
    scalars, regardless of how many edges the array holds.  ``sides``
    carries the bipartition (``n_left``, ``n_right``) when the edges came
    from a :class:`~repro.graph.bipartite.BipartiteGraph`, and the two
    offsets locate a weighted graph's per-edge weights (float64, one per
    row) and a capacitated graph's per-left-vertex capacities (int64) in
    the same segment, so :func:`open_graph` reconstructs the right graph
    type.
    """

    backend: str                       # "shm" | "mmap"
    name: str                          # segment name or temp-file path
    offset: int                        # byte offset into the segment
    n_rows: int                        # number of edges at that offset
    n_vertices: int = 0                # vertex count for graph rebuilding
    sides: Optional[Tuple[int, int]] = None  # (n_left, n_right) if bipartite
    weights_offset: Optional[int] = None     # float64[n_rows], if weighted
    capacities_offset: Optional[int] = None  # int64[n_left], if capacitated

    @property
    def nbytes(self) -> int:
        """Edge payload size in bytes (``16 * n_rows``)."""
        return self.n_rows * _ROW_BYTES


class AttachedEdges:
    """A worker-side attachment: read-only mapped views of one graph's
    arrays (the edges, plus the weights and capacities when stored).

    Lifetime is reference-counted, not explicitly closed: the mapping is
    owned by the numpy base chain (the ``mmap`` object under ``array``),
    so it is unmapped exactly when the last view dies — whether that is
    at :meth:`release`, or later because the task's *result* aliased the
    array.  An explicit ``close()`` would be unsound here: numpy holds a
    raw pointer without a registered buffer export, so closing a mapping
    that a live result still views would not fail loudly, it would
    segfault the worker.
    """

    def __init__(self, array: np.ndarray,
                 weights: Optional[np.ndarray] = None,
                 capacities: Optional[np.ndarray] = None) -> None:
        self.array: Optional[np.ndarray] = array
        self.weights = weights
        self.capacities = capacities

    def graph(self, handle: EdgeHandle) -> Graph:
        """Reconstruct the stored graph as a read-only view (no copy)."""
        assert self.array is not None, "attachment already released"
        edges, weights = self.array, self.weights
        if handle.sides is None:
            if weights is not None:
                return WeightedGraph(handle.n_vertices, edges, weights,
                                     validated=True)
            return Graph.from_canonical_edges(handle.n_vertices, edges)
        n_left, n_right = handle.sides
        if self.capacities is not None:
            return CapacitatedBipartiteGraph(n_left, n_right, edges, weights,
                                             self.capacities, validated=True)
        if weights is not None:
            return WeightedBipartiteGraph(n_left, n_right, edges, weights,
                                          validated=True)
        return BipartiteGraph(n_left, n_right, edges, validated=True)

    def release(self) -> None:
        """Drop this attachment's references to the mapping.

        The segment is unmapped as soon as no other array references it;
        results that alias the arrays keep it alive exactly as long as
        they need it.
        """
        self.array = self.weights = self.capacities = None


def open_edges(handle: EdgeHandle) -> AttachedEdges:
    """Attach to a handle's segment and map its arrays (read-only)."""
    mapping = _map_segment(handle) if handle.name else None

    def view(dtype: type, shape: Tuple[int, ...], offset: int) -> np.ndarray:
        if mapping is None or 0 in shape:
            arr = np.zeros(shape, dtype=dtype)
        else:
            arr = np.ndarray(shape, dtype=dtype, buffer=mapping,
                             offset=offset)
        arr.setflags(write=False)
        return arr

    n = handle.n_rows
    weights = capacities = None
    if handle.weights_offset is not None:
        weights = view(np.float64, (n,), handle.weights_offset)
    if handle.capacities_offset is not None:
        capacities = view(np.int64, (handle.sides[0],),
                          handle.capacities_offset)
    return AttachedEdges(view(_EDGE_DTYPE, (n, 2), handle.offset),
                         weights, capacities)


def _map_segment(handle: EdgeHandle) -> Any:
    """A read-only-by-convention buffer over the handle's whole segment."""
    if handle.backend == "shm":
        if _shared_memory is None:  # pragma: no cover - exotic platforms
            raise RuntimeError("shared_memory unavailable; cannot attach")
        seg = _attach_untracked(handle.name)
        # Views are built directly over the mmap object so numpy's base ref
        # keeps the mapping alive; the SharedMemory wrapper is neutered:
        # its close()/__del__ would munmap under the views (numpy keeps a
        # raw pointer, not a tracked buffer export).  The duplicate fd can
        # go immediately — a POSIX mapping outlives its descriptor.
        mapping = seg._mmap
        try:
            seg._buf.release()
        except (AttributeError, BufferError):  # pragma: no cover
            pass
        seg._buf = None
        seg._mmap = None
        fd = getattr(seg, "_fd", -1)
        if fd >= 0:
            try:
                os.close(fd)
            except OSError:  # pragma: no cover - already closed
                pass
            seg._fd = -1
        return mapping
    if handle.backend == "mmap":
        return np.memmap(handle.name, dtype=np.uint8, mode="r")
    raise ValueError(f"unknown shared-store backend {handle.backend!r}")


_ATTACH_LOCK = threading.Lock()


def _attach_untracked(name: str):
    """Attach to an existing segment without resource-tracker registration.

    Tracking belongs to the *owner*: it registered the segment at creation
    and unregisters at unlink.  Before Python 3.13 an attach registers
    again — and a pool worker forked before the first segment existed has
    no inherited tracker, so that registration spawns a private tracker
    per worker which later "cleans up" the already-unlinked name and warns
    at exit.  3.13+ exposes ``track=False`` for exactly this; earlier
    versions get the registration no-op'd for the duration of the attach
    (serialized by a lock: the patch is process-global state).
    """
    try:
        return _shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        pass
    from multiprocessing import resource_tracker

    with _ATTACH_LOCK:
        original = resource_tracker.register
        suffix = name.lstrip("/")

        def _register_except_attached(reg_name, rtype,
                                      _original=original, _suffix=suffix):
            # Drop only the attach's own registration; a *create* on
            # another thread during this window (its own segment, so a
            # different name) must still reach the tracker — it is the
            # crash-cleanup backstop for that owner.
            if rtype == "shared_memory" and str(reg_name).lstrip("/") == _suffix:
                return None
            return _original(reg_name, rtype)

        resource_tracker.register = _register_except_attached
        try:
            return _shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


def open_graph(handle: EdgeHandle) -> Tuple[Graph, AttachedEdges]:
    """Attach to a handle and reconstruct its read-only graph view."""
    attachment = open_edges(handle)
    return attachment.graph(handle), attachment


# --------------------------------------------------------------------- #
# the resident graph of an executor
# --------------------------------------------------------------------- #
_PIN_SERIAL = itertools.count()


@dataclass(frozen=True)
class ResidentGraph:
    """A machine task's reference to the graph its executor keeps resident.

    ``token`` is unique per pin within the owning process, so a worker can
    never mistake its attachment for a later graph whose segment happens
    to reuse a name.
    """

    token: Tuple[int, int]
    handle: EdgeHandle

    def open(self) -> Graph:
        """The graph, attached once per worker: the most recent one is
        remembered, and attaching another graph drops it."""
        recent = _OPENED[0]
        if recent is None or recent[0] != self.token:
            graph, _ = open_graph(self.handle)
            recent = _OPENED[0] = (self.token, graph)
        return recent[1]


#: ``(token, graph)`` of the last :class:`ResidentGraph` this process opened.
_OPENED: List[Optional[Tuple[Tuple[int, int], Graph]]] = [None]


class ResidentPin:
    """The owner side of a :class:`ResidentGraph`: one graph in its own
    segment.  Holds the graph, so identity checks against it are safe.
    The segment is unlinked by :meth:`close`, or when the pin is collected.
    """

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        store = SharedEdgeStore()
        self.ref = ResidentGraph((os.getpid(), next(_PIN_SERIAL)),
                                 store.put_graph(graph))
        self._finalizer = weakref.finalize(self, store.close)

    def close(self) -> None:
        """Unlink the segment (workers' mappings stay valid until dropped)."""
        self._finalizer()


# --------------------------------------------------------------------- #
# the owner-side store
# --------------------------------------------------------------------- #
class SharedEdgeStore:
    """Owner of shared edge segments: put arrays in, hand out handles.

    One :meth:`put_arrays` call packs any number of edge arrays into a
    single segment (one allocation, one handle family); :meth:`put_graph`
    shares one graph's edges together with the vertex metadata workers
    need to rebuild :class:`~repro.graph.edgelist.Graph` views.

    The store is a context manager; :meth:`close` unlinks every segment it
    created and is idempotent.  ``put_*`` after ``close`` raises
    :class:`SharedStoreClosedError`.
    """

    def __init__(self, backend: Optional[str] = None) -> None:
        self.backend = _default_backend() if backend is None else backend
        if self.backend not in ("shm", "mmap"):
            raise ValueError(
                f"backend must be 'shm' or 'mmap', got {self.backend!r}"
            )
        self._segments: List[Any] = []   # SharedMemory objects or file paths
        self._closed = False

    # ------------------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "SharedEdgeStore":
        self._ensure_open()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _ensure_open(self) -> None:
        if self._closed:
            raise SharedStoreClosedError(
                "SharedEdgeStore has been closed; its segments are gone — "
                "create a new store to share more arrays"
            )

    # ------------------------------------------------------------------ #
    def put_arrays(
        self,
        arrays: Sequence[np.ndarray],
        n_vertices: int = 0,
        sides: Optional[Tuple[int, int]] = None,
    ) -> List[EdgeHandle]:
        """Copy ``(m_i, 2)`` edge arrays into one shared segment.

        This is the single copy sharing ever makes: workers map the
        segment directly.  Returns one :class:`EdgeHandle` per input array,
        in order.  Empty arrays get a zero-row handle with no backing
        segment at all.
        """
        self._ensure_open()
        normalized = [self._as_edge_array(a) for a in arrays]
        total = sum(a.nbytes for a in normalized)
        handles: List[EdgeHandle] = []
        if total == 0:
            return [
                EdgeHandle(self.backend, "", 0, 0, n_vertices, sides)
                for _ in normalized
            ]
        name, buf = self._new_segment(total)
        offset = 0
        for arr in normalized:
            if arr.nbytes:
                view = np.ndarray(arr.shape, dtype=_EDGE_DTYPE,
                                  buffer=buf, offset=offset)
                np.copyto(view, arr)
            handles.append(
                EdgeHandle(self.backend, name, offset, arr.shape[0],
                           n_vertices, sides)
            )
            offset += arr.nbytes
        if self.backend == "mmap":
            buf.flush()
        return handles

    def put_edges(self, edges: np.ndarray, n_vertices: int = 0,
                  sides: Optional[Tuple[int, int]] = None) -> EdgeHandle:
        """Share a single edge array (see :meth:`put_arrays`)."""
        return self.put_arrays([edges], n_vertices, sides)[0]

    def put_graph(self, graph: Graph) -> EdgeHandle:
        """Share one graph in one segment: its canonical edge array, the
        per-edge weights of the weighted types and the capacities of a
        :class:`~repro.graph.capacity.CapacitatedBipartiteGraph`, with the
        metadata :func:`open_graph` needs to rebuild the same type."""
        self._ensure_open()
        edges = self._as_edge_array(graph.edges)
        parts = [edges]
        weighted = isinstance(graph, (WeightedGraph, WeightedBipartiteGraph))
        if weighted:
            parts.append(np.ascontiguousarray(graph.weights, np.float64))
        if isinstance(graph, CapacitatedBipartiteGraph):
            parts.append(np.ascontiguousarray(graph.capacities, np.int64))
        offsets = np.cumsum([0] + [p.nbytes for p in parts]).tolist()
        name = ""
        if offsets[-1]:
            name, buf = self._new_segment(offsets[-1])
            raw = np.ndarray((offsets[-1],), dtype=np.uint8, buffer=buf)
            for part, at in zip(parts, offsets):
                raw[at:at + part.nbytes] = part.reshape(-1).view(np.uint8)
            if self.backend == "mmap":
                buf.flush()
        return EdgeHandle(
            self.backend, name, 0, edges.shape[0], graph.n_vertices,
            self._graph_sides(graph),
            weights_offset=offsets[1] if weighted else None,
            capacities_offset=(offsets[-2] if isinstance(
                graph, CapacitatedBipartiteGraph) else None),
        )

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Unlink every segment this store created.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        segments, self._segments = self._segments, []
        for seg in segments:
            if isinstance(seg, str):  # mmap temp file
                try:
                    os.unlink(seg)
                except OSError:  # pragma: no cover - already gone
                    pass
            else:  # SharedMemory
                # Unlink before close: unlinking needs no buffer release, so
                # the segment is reclaimed even if a caller still holds a
                # view (existing mappings stay valid until they are dropped).
                try:
                    seg.unlink()
                except OSError:  # pragma: no cover - already gone
                    pass
                try:
                    seg.close()
                except BufferError:
                    # A live view (e.g. a serial-path result aliasing the
                    # segment) still exports the buffer; process exit will
                    # finish the close.
                    pass

    # ------------------------------------------------------------------ #
    def _new_segment(self, size: int) -> Tuple[str, Any]:
        """Allocate a segment of ``size`` bytes; returns (name, buffer)."""
        if self.backend == "shm":
            seg = _shared_memory.SharedMemory(create=True, size=size)
            self._segments.append(seg)
            return seg.name, seg.buf
        fd, path = tempfile.mkstemp(prefix="repro-edges-", suffix=".bin")
        os.close(fd)
        self._segments.append(path)
        buf = np.memmap(path, dtype=np.uint8, mode="w+", shape=(size,))
        return path, buf

    @staticmethod
    def _as_edge_array(edges: np.ndarray) -> np.ndarray:
        arr = np.ascontiguousarray(edges, dtype=_EDGE_DTYPE)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(
                f"edge arrays must have shape (m, 2), got {arr.shape}"
            )
        return arr

    @staticmethod
    def _graph_sides(graph: Graph) -> Optional[Tuple[int, int]]:
        if isinstance(graph, BipartiteGraph):
            return (graph.n_left, graph.n_right)
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else f"{len(self._segments)} segment(s)"
        return f"SharedEdgeStore(backend={self.backend!r}, {state})"
