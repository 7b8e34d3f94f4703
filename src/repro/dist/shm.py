"""Shared-memory edge segments and their handles.

``repro serve`` keeps every registered graph resident for its whole
lifetime.  With a process pool, pickling that graph into every request's
task would copy the whole edge array per request, so the server *pins* it
instead: :class:`SharedEdgeStore` writes the edge array once into a
``multiprocessing.shared_memory`` segment (or a memory-mapped temp file
where POSIX shared memory is unavailable), each task carries only a
lightweight :class:`EdgeHandle` — ``(backend, name, offset, rows)`` plus
graph metadata — and workers reconstruct a read-only graph view *in
place*, no copy on either side.  A reconstructed view is bit-identical to
the array that was stored (covered by ``tests/test_dist_shm.py``).

The engines themselves always pickle pieces into tasks: a fresh partition
per solve gains nothing from a segment it packs once and reads once
(``docs/PARALLELISM.md`` §6 has the measurement).

Lifecycle
---------
The *owner* (the server's graph store) unlinks all segments in
:meth:`SharedEdgeStore.close` — stores are context managers, and close is
idempotent.  Workers attach per task via :func:`open_edges` /
:func:`open_graph`; attachment lifetime is reference-counted through the
numpy base chain, so a worker's mapping disappears when its last view
dies — normally at the end of the task, or exactly as late as a result
that aliases the graph requires.  If the owner dies without closing, the
interpreter's resource tracker reclaims shm segments and the OS reclaims
temp files — a worker crash therefore cannot leak segments past the
owning process.

The segment backend follows ``$REPRO_SHM_BACKEND`` (``shm`` where
available, else ``mmap``).
"""

from __future__ import annotations

import os
import tempfile
import threading
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.bipartite import BipartiteGraph
from repro.graph.edgelist import Graph

try:  # pragma: no cover - always present on CPython >= 3.8
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - exotic platforms only
    _shared_memory = None

__all__ = [
    "SHM_BACKEND_ENV",
    "AttachedEdges",
    "EdgeHandle",
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
    from a :class:`~repro.graph.bipartite.BipartiteGraph`, so
    :func:`open_graph` reconstructs the right graph type.
    """

    backend: str                       # "shm" | "mmap"
    name: str                          # segment name or temp-file path
    offset: int                        # byte offset into the segment
    n_rows: int                        # number of edges at that offset
    n_vertices: int = 0                # vertex count for graph rebuilding
    sides: Optional[Tuple[int, int]] = None  # (n_left, n_right) if bipartite

    @property
    def nbytes(self) -> int:
        """Payload size in bytes (``16 * n_rows``)."""
        return self.n_rows * _ROW_BYTES


class AttachedEdges:
    """A worker-side attachment: a read-only mapped view of one edge array.

    Lifetime is reference-counted, not explicitly closed: the mapping is
    owned by the numpy base chain (the ``mmap`` object under ``array``),
    so it is unmapped exactly when the last view dies — whether that is
    at :meth:`release`, or later because the task's *result* aliased the
    array.  An explicit ``close()`` would be unsound here: numpy holds a
    raw pointer without a registered buffer export, so closing a mapping
    that a live result still views would not fail loudly, it would
    segfault the worker.
    """

    def __init__(self, array: np.ndarray) -> None:
        self.array: Optional[np.ndarray] = array

    def graph(self, handle: EdgeHandle) -> Graph:
        """Reconstruct the edges as a read-only graph view (no copy)."""
        assert self.array is not None, "attachment already released"
        if handle.sides is not None:
            n_left, n_right = handle.sides
            return BipartiteGraph(n_left, n_right, self.array, validated=True)
        return Graph.from_canonical_edges(handle.n_vertices, self.array)

    def release(self) -> None:
        """Drop this attachment's reference to the mapping.

        The segment is unmapped as soon as no other array references it;
        results that alias the array keep it alive exactly as long as
        they need it.
        """
        self.array = None


def open_edges(handle: EdgeHandle) -> AttachedEdges:
    """Attach to a handle's segment and map its edge array (read-only)."""
    if handle.n_rows == 0:
        empty = np.zeros((0, 2), dtype=_EDGE_DTYPE)
        empty.setflags(write=False)
        return AttachedEdges(empty)
    if handle.backend == "shm":
        if _shared_memory is None:  # pragma: no cover - exotic platforms
            raise RuntimeError("shared_memory unavailable; cannot attach")
        seg = _attach_untracked(handle.name)
        # Build the view directly over the mmap object so numpy's base ref
        # keeps the mapping alive, then neuter the SharedMemory wrapper:
        # its close()/__del__ would munmap under the view (numpy keeps a
        # raw pointer, not a tracked buffer export).  The duplicate fd can
        # go immediately — a POSIX mapping outlives its descriptor.
        mapping = seg._mmap
        arr = np.ndarray(
            (handle.n_rows, 2), dtype=_EDGE_DTYPE,
            buffer=mapping, offset=handle.offset,
        )
        arr.setflags(write=False)
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
        return AttachedEdges(arr)
    if handle.backend == "mmap":
        arr = np.memmap(
            handle.name, dtype=_EDGE_DTYPE, mode="r",
            offset=handle.offset, shape=(handle.n_rows, 2),
        )
        return AttachedEdges(arr)
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
        """Share one graph's canonical edge array, with its metadata."""
        return self.put_edges(graph.edges, graph.n_vertices,
                              self._graph_sides(graph))

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
