"""Shared-memory graph segments: one owner, one reference.

A graph reaches worker processes once and stays there, instead of being
pickled into every task.  :class:`ResidentPin` is the owner: it writes one
graph into one ``multiprocessing.shared_memory`` segment (or a
memory-mapped temp file where POSIX shared memory is unavailable) — the
edge array, and for the weighted types the per-edge weights and the
capacities.  Its :class:`ResidentGraph` is what a task carries instead of
the graph: the segment's name and the graph's shape, the same few scalars
at every m.  :meth:`ResidentGraph.open` rebuilds a read-only graph of the
same type *in place*, no copy on either side, and remembers the process's
most recent graph, so a worker attaches each graph once.  A rebuilt graph
is bit-identical to the pinned one (covered by ``tests/test_dist_shm.py``).

Two owners pin graphs: a :class:`~repro.dist.executor.ProcessExecutor`
pins the graph of its most recent barrier, and ``repro serve`` pins every
graph it registers on a process pool, until the graph is unregistered.

Lifecycle
---------
The owner unlinks the segment in :meth:`ResidentPin.close` — idempotent —
or when the pin is collected.  A worker's mapping is reference-counted
through the numpy base chain, so it disappears when its last view dies:
when :meth:`ResidentGraph.open` moves on to another graph, or exactly as
late as a result that aliases the graph requires.  Until then a worker
keeps its most recent graph mapped, also after the owner unlinked it;
POSIX keeps such a mapping valid.  If the owner dies without closing, the
interpreter's resource tracker reclaims its shm segments — a worker crash
therefore cannot leak segments past the owning process.  The ``mmap``
backend has no tracker; instead its owner holds an exclusive ``flock`` on
its ``repro-edges-*.bin`` temp file for the pin's life, and the kernel
drops that lock however the owner exits.  Every new ``mmap`` pin first
unlinks each such non-empty file whose lock it can take, so a file
orphaned by a dead owner lasts until the next ``mmap`` pin that uses the
same temp directory.

The segment backend follows ``$REPRO_SHM_BACKEND`` (``shm`` where
available, else ``mmap``).
"""

from __future__ import annotations

import fcntl
import glob
import itertools
import os
import tempfile
import threading
import weakref
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

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

__all__ = ["SHM_BACKEND_ENV", "ResidentGraph", "ResidentPin"]

#: Environment variable forcing the segment backend (``shm`` or ``mmap``).
SHM_BACKEND_ENV = "REPRO_SHM_BACKEND"


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
# the reference a task carries
# --------------------------------------------------------------------- #
_PIN_SERIAL = itertools.count()


@dataclass(frozen=True)
class ResidentGraph:
    """A task's reference to a pinned graph: where its segment is, and
    which graph type to rebuild from it.

    ``token`` is unique per pin within the owning process, so a worker can
    never mistake its attachment for a later graph whose segment happens
    to reuse a name.  The edges (int64, ``n_edges`` rows of two) start the
    segment; ``sides`` carries the bipartition (``n_left``, ``n_right``)
    of a :class:`~repro.graph.bipartite.BipartiteGraph`, and the two
    offsets locate a weighted graph's per-edge weights (float64) and a
    capacitated graph's per-left-vertex capacities (int64).  A graph with
    nothing to store has no segment (``name == ""``).
    """

    token: Tuple[int, int]
    backend: str                       # "shm" | "mmap"
    name: str                          # segment name or temp-file path
    n_edges: int
    n_vertices: int
    sides: Optional[Tuple[int, int]] = None
    weights_offset: Optional[int] = None
    capacities_offset: Optional[int] = None

    def open(self) -> Graph:
        """The graph, attached once per worker: the most recent one is
        remembered, and attaching another graph drops it."""
        recent = _OPENED[0]
        if recent is None or recent[0] != self.token:
            recent = _OPENED[0] = (self.token, _attach(self))
        return recent[1]


#: ``(token, graph)`` of the last :class:`ResidentGraph` this process opened.
_OPENED: List[Optional[Tuple[Tuple[int, int], Graph]]] = [None]


def _attach(ref: ResidentGraph) -> Graph:
    """Map ``ref``'s segment and rebuild its graph over read-only views.

    The views own the mapping through their numpy base chain (the ``mmap``
    object under each array), so it is unmapped exactly when the last view
    dies, also when a result aliases the graph.  An explicit close would be
    unsound here: numpy holds a raw pointer without a registered buffer
    export, so closing a mapping that a live result still views would not
    fail loudly, it would segfault the worker.
    """
    mapping = _map_segment(ref.backend, ref.name) if ref.name else None

    def view(dtype: type, shape: Tuple[int, ...], offset: int) -> np.ndarray:
        if mapping is None or 0 in shape:
            arr = np.zeros(shape, dtype=dtype)
        else:
            arr = np.ndarray(shape, dtype=dtype, buffer=mapping,
                             offset=offset)
        arr.setflags(write=False)
        return arr

    edges = view(np.int64, (ref.n_edges, 2), 0)
    weights = None
    if ref.weights_offset is not None:
        weights = view(np.float64, (ref.n_edges,), ref.weights_offset)
    if ref.sides is None:
        if weights is not None:
            return WeightedGraph(ref.n_vertices, edges, weights,
                                 validated=True)
        return Graph.from_canonical_edges(ref.n_vertices, edges)
    n_left, n_right = ref.sides
    if ref.capacities_offset is not None:
        capacities = view(np.int64, (n_left,), ref.capacities_offset)
        return CapacitatedBipartiteGraph(n_left, n_right, edges, weights,
                                         capacities, validated=True)
    if weights is not None:
        return WeightedBipartiteGraph(n_left, n_right, edges, weights,
                                      validated=True)
    return BipartiteGraph(n_left, n_right, edges, validated=True)


def _map_segment(backend: str, name: str) -> Any:
    """A read-only-by-convention buffer over a whole segment."""
    if backend == "shm":
        if _shared_memory is None:  # pragma: no cover - exotic platforms
            raise RuntimeError("shared_memory unavailable; cannot attach")
        seg = _attach_untracked(name)
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
    if backend == "mmap":
        return np.memmap(name, dtype=np.uint8, mode="r")
    raise ValueError(f"unknown segment backend {backend!r}")


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


# --------------------------------------------------------------------- #
# the owner
# --------------------------------------------------------------------- #
class ResidentPin:
    """The owner side of a :class:`ResidentGraph`: one graph in its own
    segment.  Holds the graph, so identity checks against it are safe.
    The segment is unlinked by :meth:`close`, or when the pin is collected.

    The segment holds the canonical edge array, then the per-edge weights
    of the weighted types, then the capacities of a
    :class:`~repro.graph.capacity.CapacitatedBipartiteGraph`: the single
    copy pinning makes, since workers map the segment directly.
    """

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        backend = _default_backend()
        edges = np.ascontiguousarray(graph.edges, np.int64).reshape(-1, 2)
        weighted = isinstance(graph, (WeightedGraph, WeightedBipartiteGraph))
        capacitated = isinstance(graph, CapacitatedBipartiteGraph)
        parts = [edges]
        if weighted:
            parts.append(np.ascontiguousarray(graph.weights, np.float64))
        if capacitated:
            parts.append(np.ascontiguousarray(graph.capacities, np.int64))
        offsets = np.cumsum([0] + [p.nbytes for p in parts]).tolist()
        segment, name = None, ""
        if offsets[-1]:
            segment, name, buf = _new_segment(backend, offsets[-1])
        # Registered before the copy, so a copy that fails still unlinks.
        self._finalizer = weakref.finalize(self, _unlink, segment)
        if segment is not None:
            raw = np.ndarray((offsets[-1],), dtype=np.uint8, buffer=buf)
            for part, at in zip(parts, offsets):
                raw[at:at + part.nbytes] = part.reshape(-1).view(np.uint8)
            if backend == "mmap":
                buf.flush()
        sides = ((graph.n_left, graph.n_right)
                 if isinstance(graph, BipartiteGraph) else None)
        self.ref = ResidentGraph(
            (os.getpid(), next(_PIN_SERIAL)), backend, name, edges.shape[0],
            graph.n_vertices, sides,
            weights_offset=offsets[1] if weighted else None,
            capacities_offset=offsets[-2] if capacitated else None,
        )

    def close(self) -> None:
        """Unlink the segment (workers' mappings stay valid until dropped).
        Idempotent."""
        self._finalizer()


_MMAP_PREFIX, _MMAP_SUFFIX = "repro-edges-", ".bin"


def _new_segment(backend: str, size: int) -> Tuple[Any, str, Any]:
    """Allocate ``size`` bytes: ``(segment, name, writable buffer)``.

    An ``mmap`` segment is ``(path, fd)``: ``fd`` holds the file's lock
    until :func:`_unlink`.  The file is locked before it is sized, so the
    sweep, which skips empty files, never takes one still being created.
    """
    if backend == "shm":
        seg = _shared_memory.SharedMemory(create=True, size=size)
        return seg, seg.name, seg.buf
    _sweep_orphans()
    fd, path = tempfile.mkstemp(prefix=_MMAP_PREFIX, suffix=_MMAP_SUFFIX)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)  # blocks only while a sweep checks it
        buf = np.memmap(path, dtype=np.uint8, mode="w+", shape=(size,))
    except BaseException:
        _unlink((path, fd))
        raise
    return (path, fd), path, buf


def _sweep_orphans() -> None:
    """Unlink every ``mmap`` segment file whose owner is gone: a non-empty
    one whose lock this process can take."""
    pattern = os.path.join(tempfile.gettempdir(),
                           f"{_MMAP_PREFIX}*{_MMAP_SUFFIX}")
    for path in glob.glob(pattern):
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError:  # gone already, or another user's
            continue
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            if os.fstat(fd).st_size:
                os.unlink(path)
        except OSError:  # a live owner holds it, or it is gone
            pass
        finally:
            os.close(fd)


def _unlink(segment: Any) -> None:
    """Remove a pin's segment: a ``SharedMemory``, an ``mmap`` temp file's
    ``(path, fd)``, or ``None`` for a graph that needed none."""
    if segment is None:
        return
    if isinstance(segment, tuple):  # mmap temp file and its lock
        path, fd = segment
        try:
            os.unlink(path)
        except OSError:  # pragma: no cover - already gone
            pass
        os.close(fd)
        return
    # Unlink before close: unlinking needs no buffer release, so the
    # segment is reclaimed even if a caller still holds a view (existing
    # mappings stay valid until they are dropped).
    try:
        segment.unlink()
    except OSError:  # pragma: no cover - already gone
        pass
    try:
        segment.close()
    except BufferError:
        # A live view (e.g. a serial-path result aliasing the segment)
        # still exports the buffer; process exit will finish the close.
        pass
