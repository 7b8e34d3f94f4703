"""Remote execution: a socket coordinator plus ``repro worker`` processes.

The local backends (:mod:`repro.dist.executor`) stop at one host — a
process pool assumes the operating system can see every worker.
:class:`RemoteExecutor` is the distributed seam the paper's model
actually describes: a **coordinator** that listens on a TCP socket and k
**workers** that connect to it (``repro worker --connect HOST:PORT``),
exchange length-prefixed pickled frames, and execute the same task tuples
the ``processes`` backend ships.  Today the executor launches its workers
as local subprocesses; because the wire protocol is plain sockets, the
same workers can run on other hosts by pointing ``repro worker`` at a
coordinator bound with ``$REPRO_REMOTE_BIND`` — nothing in the protocol
assumes a shared kernel.

Determinism is inherited, not re-proven: an executor only promises
input-order results (``docs/PARALLELISM.md`` §1), randomness is assigned
to tasks before the fan-out, and a retried task re-runs the *same* pickled
payload — so a worker crash mid-round changes scheduling, never output
bits.  The contract is asserted by ``tests/test_remote_faults.py``.

Robustness primitives the in-process backends never needed:

* **per-task timeouts** — a worker that holds a task past ``task_timeout``
  is declared hung, disconnected (and killed, if this executor spawned
  it), and the task is reassigned;
* **bounded retry with backoff** — infrastructure failures (worker death,
  timeout, dropped connection) requeue the task up to ``retries`` times
  with exponential backoff; *task exceptions* are deterministic and are
  re-raised immediately, never retried;
* **worker heartbeats** — workers beat every ``$REPRO_REMOTE_HEARTBEAT``
  seconds from a side thread, so a slow-but-alive worker is distinguished
  from a dead one without waiting out the task timeout;
* **graceful degradation** — if no worker connects within
  ``connect_timeout`` the executor warns (:class:`RemoteDegradedWarning`)
  and transparently falls back to a local ``processes`` pool, so
  ``--executor remote`` on a machine with no fleet still completes.

Graph transfer
--------------
A machine task names the whole graph and the machine cuts its own piece
(:func:`~repro.dist.coordinator.run_simultaneous`), so every task of a
barrier — and of every later barrier over the same graph — carries the
same graph.  The :class:`RemotePieceCache` ships it once per worker: when
a task is serialized, every :class:`~repro.graph.edgelist.Graph` above a
size threshold — and each machine's rows of an explicit partition — is
replaced by its **content digest** (via the pickle ``persistent_id``
hook), computed once per object; a worker that has not seen the digest
sends one ``fetch`` frame, receives the payload once, and **pins** it for
every later task.  Both sides keep only the few most recently used
payloads, never evicting one the barrier in flight names.

Lifecycle
---------
The full executor contract of ``docs/PARALLELISM.md`` §6 holds: the worker
pool (listener + subprocesses) is created lazily on the first
:meth:`RemoteExecutor.map` that needs it and reused until ``close()``;
``close()`` is idempotent; ``map()`` after ``close()`` raises
:class:`~repro.dist.executor.ExecutorClosedError`; losing *every* worker
with no replacement raises
:class:`~repro.dist.executor.WorkerPoolBrokenError` and discards the pool,
so the next ``map()`` transparently starts a fresh one.

Usage
-----
Run the Theorem 1 protocol on two locally-spawned workers::

    from repro.dist.remote import RemoteExecutor

    with RemoteExecutor(max_workers=2) as ex:
        res = run_simultaneous(proto, part, rng=2, executor=ex)
        # Bit-identical to executor="serial" with the same seed.

Or join externally-launched workers (same host or not)::

    REPRO_REMOTE_BIND=0.0.0.0:7341 REPRO_REMOTE_SPAWN=0 \\
        repro solve planted:n=4000 --solver coreset --problem matching \\
        --k 8 --executor remote --workers 2    # coordinator
    repro worker --connect HOST:7341    # each of the 2 workers, anywhere

The coordinator waits up to the connect timeout for all ``--workers`` of
an external fleet before the first barrier.

Chaos hooks
-----------
The worker loop carries env-triggered fault-injection hooks
(``REPRO_CHAOS_KILL`` / ``REPRO_CHAOS_HANG`` / ``REPRO_CHAOS_SLOW_MS``,
scoped by ``REPRO_CHAOS_LATCH`` so exactly one worker misbehaves) used by
``tests/chaos.py`` to prove the retry/timeout paths; with none of the
variables set the hook is a single dict lookup per task.
"""

from __future__ import annotations

import hashlib
import io
import os
import pickle
import socket
import struct
import subprocess
import sys
import threading
import time
import warnings
from collections import OrderedDict, deque
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.dist.executor import (
    Executor,
    ExecutorError,
    ProcessExecutor,
    WorkerPoolBrokenError,
    _default_workers,
    _pickle_advice,
)

__all__ = [
    "REMOTE_BIND_ENV",
    "REMOTE_CACHE_MIN_ENV",
    "REMOTE_CONNECT_TIMEOUT_ENV",
    "REMOTE_HEARTBEAT_ENV",
    "REMOTE_RETRIES_ENV",
    "REMOTE_SPAWN_ENV",
    "REMOTE_TIMEOUT_ENV",
    "RemoteDegradedWarning",
    "RemoteExecutor",
    "RemotePieceCache",
    "RemoteTaskError",
    "worker_main",
]

#: Coordinator bind address, ``HOST:PORT`` (default ``127.0.0.1:0`` — an
#: ephemeral loopback port; bind a fixed port to accept external workers).
REMOTE_BIND_ENV = "REPRO_REMOTE_BIND"
#: How many local ``repro worker`` subprocesses the executor launches
#: (default: ``max_workers``; ``0`` relies entirely on external workers).
REMOTE_SPAWN_ENV = "REPRO_REMOTE_SPAWN"
#: Per-task timeout in seconds (default: unset — no timeout).
REMOTE_TIMEOUT_ENV = "REPRO_REMOTE_TIMEOUT"
#: Infrastructure-failure retries per task (default 2).
REMOTE_RETRIES_ENV = "REPRO_REMOTE_RETRIES"
#: Seconds to wait for workers before degrading (default 20).
REMOTE_CONNECT_TIMEOUT_ENV = "REPRO_REMOTE_CONNECT_TIMEOUT"
#: Worker heartbeat interval in seconds (default 1.0).
REMOTE_HEARTBEAT_ENV = "REPRO_REMOTE_HEARTBEAT"
#: Smallest graph payload (bytes) the content cache digests (default 4096).
REMOTE_CACHE_MIN_ENV = "REPRO_REMOTE_CACHE_MIN"

_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL
_RECV_CHUNK = 1 << 20
#: How many payloads (graphs, and explicit partitions' machine rows) the
#: content cache keeps on each side: the coordinator's store and every
#: worker's pins (least recently used go first).
_CACHED_PAYLOADS = 4
#: How long shutdown() waits, in total, for the pool's threads to finish.
_JOIN_TIMEOUT = 5.0
#: Default for ``$REPRO_REMOTE_CONNECT_TIMEOUT`` — shared by the
#: coordinator's wait-for-workers window and the worker's connect-retry
#: grace so the two sides of the startup race actually mirror.
_DEFAULT_CONNECT_TIMEOUT = 20.0


class RemoteTaskError(ExecutorError):
    """A task exhausted its retry budget on the remote backend.

    Raised only for *infrastructure* failures — worker deaths, timeouts,
    dropped connections.  An exception raised by the task function itself
    is deterministic, so it is re-raised in the caller unretried.
    """


class RemoteDegradedWarning(RuntimeWarning):
    """No worker connected in time; the run fell back to ``processes``."""


# --------------------------------------------------------------------- #
# wire protocol: 4-byte length prefix + pickled tuple
# --------------------------------------------------------------------- #
def _send_frame(sock: socket.socket, message: tuple,
                lock: Optional[threading.Lock] = None) -> None:
    payload = pickle.dumps(message, _PICKLE_PROTOCOL)
    data = struct.pack("!I", len(payload)) + payload
    if lock is not None:
        with lock:
            sock.sendall(data)
    else:
        sock.sendall(data)


class _FrameReader:
    """Incremental frame decoder that survives recv timeouts.

    A timeout may land mid-frame; the partial bytes stay buffered so the
    next call resumes exactly where the stream left off — the coordinator
    uses short recv timeouts as its heartbeat/deadline polling clock, so
    losing sync on timeout would corrupt the protocol.
    """

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self._buf = bytearray()
        self._want: Optional[int] = None

    def recv(self, timeout: Optional[float]) -> Optional[tuple]:
        """The next frame, or ``None`` on timeout.

        Raises :class:`ConnectionError` when the peer closed the stream.
        """
        self.sock.settimeout(timeout)
        while True:
            if self._want is None and len(self._buf) >= 4:
                self._want = struct.unpack("!I", bytes(self._buf[:4]))[0]
                del self._buf[:4]
            if self._want is not None and len(self._buf) >= self._want:
                frame = bytes(self._buf[: self._want])
                del self._buf[: self._want]
                self._want = None
                return pickle.loads(frame)
            try:
                chunk = self.sock.recv(_RECV_CHUNK)
            except socket.timeout:
                return None
            except OSError as exc:
                raise ConnectionError(f"connection lost: {exc}") from exc
            if not chunk:
                raise ConnectionError("connection closed by peer")
            self._buf += chunk


# --------------------------------------------------------------------- #
# the content cache (coordinator side) and its pickle hooks
# --------------------------------------------------------------------- #
class RemotePieceCache:
    """Content-addressed graph store: serialize once, fetch-and-pin.

    The coordinator-side half of the remote transfer strategy.  When a
    task is pickled, graphs (and explicit partitions' machine rows)
    above ``min_bytes`` are swapped for the sha256 digest of their pickled
    payload (:class:`_CachingPickler`).  The digest is computed once per
    object — later tasks naming the same object are identity hits — and
    the payload is stored once per distinct content.  Workers resolve a
    digest they have not pinned with one ``fetch`` round-trip and keep the
    object for later tasks.

    Only the :data:`_CACHED_PAYLOADS` most recently used payloads are kept;
    :meth:`begin_barrier` marks the start of a barrier, and no digest that
    barrier's tasks name is evicted while it runs.

    Counters (``pieces_stored`` / ``store_hits`` / ``fetches_served`` /
    ``bytes_stored`` / ``bytes_shipped``) let tests and ``repro bench``
    assert the ship-bytes-once claim instead of trusting it.
    """

    def __init__(self, min_bytes: Optional[int] = None) -> None:
        if min_bytes is None:
            min_bytes = int(os.environ.get(REMOTE_CACHE_MIN_ENV, 4096))
        self.min_bytes = max(int(min_bytes), 0)
        self._payloads: "OrderedDict[str, bytes]" = OrderedDict()
        # One registered object per digest, held so its id is never reused
        # while the id -> digest entry exists.
        self._holders: Dict[str, Any] = {}
        self._digests: Dict[int, str] = {}
        self._barrier: set = set()
        self._lock = threading.Lock()
        self.pieces_stored = 0
        self.store_hits = 0
        self.fetches_served = 0
        self.bytes_stored = 0
        self.bytes_shipped = 0

    # ------------------------------------------------------------------ #
    def cacheable(self, obj: Any) -> bool:
        """Whether ``obj`` should cross the wire as a digest: a graph, or
        a machine's rows of an explicit partition, of at least
        ``min_bytes``.  Both are immutable, so a digest can be keyed on
        the object."""
        # Imported lazily so a worker process can import this module
        # before it ever touches numpy.
        from repro.graph.edgelist import Graph
        from repro.graph.partition import RowsRecipe

        if isinstance(obj, Graph):
            size = obj.n_edges * 16
        elif isinstance(obj, RowsRecipe):
            size = obj.rows.nbytes
        else:
            return False
        return size >= self.min_bytes

    def begin_barrier(self) -> None:
        """Start a barrier: from now on only its digests are protected."""
        with self._lock:
            self._barrier = set()

    def register(self, obj: Any) -> str:
        """Store ``obj``'s payload (if new) and return its content digest."""
        with self._lock:
            digest = self._digests.get(id(obj))
            if digest is not None and self._holders.get(digest) is obj:
                return self._hit(digest)
        payload = pickle.dumps(obj, _PICKLE_PROTOCOL)
        digest = hashlib.sha256(payload).hexdigest()
        with self._lock:
            previous = self._holders.get(digest)
            if previous is not None:
                self._digests.pop(id(previous), None)
            self._holders[digest] = obj
            self._digests[id(obj)] = digest
            if digest in self._payloads:
                return self._hit(digest)
            self._payloads[digest] = payload
            self.pieces_stored += 1
            self.bytes_stored += len(payload)
            self._barrier.add(digest)
            self._evict()
        return digest

    def _hit(self, digest: str) -> str:
        self.store_hits += 1
        self._payloads.move_to_end(digest)
        self._barrier.add(digest)
        return digest

    def _evict(self) -> None:
        """Drop least recently used payloads the barrier does not name."""
        for digest in list(self._payloads):
            if len(self._payloads) <= _CACHED_PAYLOADS:
                break
            if digest not in self._barrier:
                del self._payloads[digest]
                holder = self._holders.pop(digest)
                self._digests.pop(id(holder), None)

    def payload(self, digest: str) -> bytes:
        """The stored payload for ``digest`` (served to worker fetches)."""
        with self._lock:
            payload = self._payloads[digest]
            self.fetches_served += 1
            self.bytes_shipped += len(payload)
        return payload

    def __len__(self) -> int:
        return len(self._payloads)

    def stats(self) -> Dict[str, int]:
        """A snapshot of the cache counters (JSON-ready)."""
        with self._lock:
            return dict(
                pieces_stored=self.pieces_stored,
                store_hits=self.store_hits,
                fetches_served=self.fetches_served,
                bytes_stored=self.bytes_stored,
                bytes_shipped=self.bytes_shipped,
            )


_PIECE_TAG = "repro-remote-piece"


class _CachingPickler(pickle.Pickler):
    """Swaps cacheable graphs for content digests while pickling a task."""

    def __init__(self, file: io.BytesIO, cache: Optional[RemotePieceCache]):
        super().__init__(file, _PICKLE_PROTOCOL)
        self._cache = cache

    def persistent_id(self, obj: Any) -> Optional[tuple]:
        if self._cache is not None and self._cache.cacheable(obj):
            return (_PIECE_TAG, self._cache.register(obj))
        return None


class _FetchingUnpickler(pickle.Unpickler):
    """Resolves piece digests through the worker's fetch-and-pin cache."""

    def __init__(self, file: io.BytesIO, fetch: Callable[[str], Any]):
        super().__init__(file)
        self._fetch = fetch

    def persistent_load(self, pid: tuple) -> Any:
        tag, digest = pid
        if tag != _PIECE_TAG:  # pragma: no cover - protocol guard
            raise pickle.UnpicklingError(f"unknown persistent id tag {tag!r}")
        return self._fetch(digest)


def _dump_task(fn: Callable[[Any], Any], task: Any,
               cache: Optional[RemotePieceCache]) -> bytes:
    buf = io.BytesIO()
    _CachingPickler(buf, cache).dump((fn, task))
    return buf.getvalue()


# --------------------------------------------------------------------- #
# coordinator internals
# --------------------------------------------------------------------- #
class _WorkerGone(Exception):
    """Internal: this worker connection is unusable (died / hung / lost)."""


class _PoolStopped(Exception):
    """Internal: the pool is shutting down; handler threads unwind."""


class _WorkerConn:
    """Coordinator-side record of one connected worker."""

    def __init__(self, sock: socket.socket, info: dict,
                 proc: Optional[subprocess.Popen],
                 reader: Optional[_FrameReader] = None) -> None:
        self.sock = sock
        # Reuse the reader that consumed the hello frame: any bytes it
        # recv'd past the hello (an early heartbeat coalesced into the
        # same chunk) are buffered there, and dropping them would desync
        # the length-prefixed stream permanently.
        self.reader = reader if reader is not None else _FrameReader(sock)
        self.info = info
        self.proc = proc
        self.send_lock = threading.Lock()
        self.last_seen = time.monotonic()
        self.dead = False
        self.tasks_done = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"_WorkerConn(pid={self.info.get('pid')}, "
                f"{'dead' if self.dead else 'live'})")


class _RemotePool:
    """Listener, worker registry, and the retrying barrier scheduler.

    One pool serves every :meth:`RemoteExecutor.map` barrier until the
    executor closes (or the pool breaks).  Handler threads — one per
    worker connection — pull task indices from the shared queue, ship the
    pre-pickled payload, serve ``fetch`` requests inline, and deliver the
    result; every failure mode funnels through :meth:`_retire_worker`,
    which requeues the in-flight task with backoff and spawns a
    replacement when this pool launched its own workers.
    """

    def __init__(self, ex: "RemoteExecutor") -> None:
        self._ex = ex
        self._cond = threading.Condition()
        self._workers: List[_WorkerConn] = []
        self._stopping = False
        self._spawned: List[subprocess.Popen] = []

        # Barrier state, all guarded by _cond.
        self._barrier = 0          # generation counter; stale results ignored
        self._payloads: Optional[List[bytes]] = None
        self._pending: deque = deque()
        self._not_before: Dict[int, float] = {}
        self._attempts: Dict[int, int] = {}
        self._results: Dict[int, Tuple[str, Any]] = {}
        self._outstanding = 0
        self._failure: Optional[BaseException] = None
        self._respawns_left = 0
        # Admit and serve threads, and the connections still in admission:
        # shutdown() wakes and joins all of them.
        self._threads: List[threading.Thread] = []
        self._admitting: set = set()
        #: When the listener opened, and whether the first barrier's wait
        #: for workers (:meth:`RemoteExecutor._ensure_pool`) has run.
        self.opened_at = time.monotonic()
        self.fleet_awaited = False

        host, port = ex.bind_address
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(128)
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]

        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-remote-accept", daemon=True
        )
        self._accept_thread.start()
        for _ in range(ex.spawn_workers):
            self._spawn_one()

    # ------------------------------------------------------------------ #
    # worker arrival
    # ------------------------------------------------------------------ #
    def _spawn_one(self) -> None:
        host, port = self.address
        cmd = [sys.executable, "-m", "repro", "worker",
               "--connect", f"{host}:{port}"]
        env = os.environ.copy()
        # A remote worker *imports* task functions (pickle-by-reference),
        # it does not inherit them by fork — so locally-spawned workers
        # get the coordinator's full import path, letting them resolve
        # anything the coordinator could (test modules included).
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, env=env)
        self._spawned.append(proc)

    def _start_thread(self, target: Callable, args: tuple,
                      name: str) -> bool:
        """Start a daemon thread that shutdown() will join; refused (False)
        once the pool is stopping."""
        thread = threading.Thread(target=target, args=args, name=name,
                                  daemon=True)
        with self._cond:
            if self._stopping:
                return False
            self._threads = [t for t in self._threads if t.is_alive()]
            self._threads.append(thread)
        thread.start()
        return True

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return  # listener shut down: pool is shutting down
            with self._cond:
                self._admitting.add(conn)
            if not self._start_thread(self._admit, (conn,),
                                      "repro-remote-admit"):
                with self._cond:
                    self._admitting.discard(conn)
                conn.close()
                return

    def _admit(self, conn: socket.socket) -> None:
        """Read the hello frame and register the worker."""
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            reader = _FrameReader(conn)
            hello = reader.recv(timeout=10.0)
            if hello is None or hello[0] != "hello":
                conn.close()
                return
        except (ConnectionError, OSError, pickle.UnpicklingError):
            conn.close()
            return
        finally:
            with self._cond:
                self._admitting.discard(conn)
        info = hello[1]
        proc = None
        pid = info.get("pid")
        for candidate in self._spawned:
            if candidate.pid == pid:
                proc = candidate
                break
        worker = _WorkerConn(conn, info, proc, reader=reader)
        with self._cond:
            if self._stopping:
                conn.close()
                return
            self._workers.append(worker)
            self._cond.notify_all()
        if not self._start_thread(self._serve, (worker,),
                                  f"repro-remote-worker-{pid}"):
            worker.dead = True
            conn.close()

    def wait_for_workers(self, count: int, timeout: float) -> bool:
        """Block until ``count`` workers are connected (or timeout)."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while len(self._workers) < count:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(timeout=min(remaining, 0.1))
        return True

    @property
    def n_workers(self) -> int:
        with self._cond:
            return len(self._workers)

    # ------------------------------------------------------------------ #
    # the barrier
    # ------------------------------------------------------------------ #
    def run_barrier(self, payloads: List[bytes]) -> List[Any]:
        """Execute one pre-pickled task batch; results in input order."""
        n = len(payloads)
        with self._cond:
            self._barrier += 1
            self._payloads = payloads
            self._pending = deque(range(n))
            self._not_before = {}
            self._attempts = {i: 0 for i in range(n)}
            self._results = {}
            self._outstanding = n
            self._failure = None
            # Enough replacement workers that a barrier can always burn
            # through its full retry budget: a spawned pool ends in a
            # definitive RemoteTaskError, never a stalled fleet.  (A
            # connect-only pool has spawn_workers=0 and never respawns;
            # losing its whole fleet is the WorkerPoolBrokenError path.)
            self._respawns_left = max(
                2 * self._ex.spawn_workers,
                (1 + self._ex.retries) * n,
            )
            self._cond.notify_all()

            no_worker_since: Optional[float] = None
            while self._outstanding > 0 and self._failure is None:
                self._cond.wait(timeout=0.1)
                # Backstop against a silent stall: every worker gone and no
                # replacement ever arrived (e.g. respawns exhausted, or an
                # external fleet walked away).
                if self._workers:
                    no_worker_since = None
                elif no_worker_since is None:
                    no_worker_since = time.monotonic()
                elif (time.monotonic() - no_worker_since
                      > self._ex.connect_timeout):
                    self._failure = WorkerPoolBrokenError(
                        "every remote worker disconnected and no "
                        "replacement arrived; the pool was discarded and "
                        "the next map() call will start a fresh one"
                    )

            failure = self._failure
            results = None if failure else [self._results[i] for i in range(n)]
            # Clear barrier state so handler threads stop taking tasks and
            # stale deliveries (guarded by the generation counter) no-op.
            self._payloads = None
            self._pending.clear()
            self._not_before.clear()
            self._failure = None

        if failure is not None:
            raise failure
        out: List[Any] = []
        for kind, value in results:
            if kind == "error":
                raise value
            out.append(value)
        return out

    # ------------------------------------------------------------------ #
    # per-worker handler thread
    # ------------------------------------------------------------------ #
    def _serve(self, worker: _WorkerConn) -> None:
        current: Optional[Tuple[int, int]] = None  # (index, barrier gen)
        try:
            while True:
                current = None
                index, gen, payload = self._take_task(worker)
                current = (index, gen)
                # An idle worker's heartbeats queue unread while this
                # thread sits in _take_task (nothing reads the socket),
                # so silence is measured from dispatch, not from the last
                # frame read — otherwise any idle gap longer than the
                # heartbeat window falsely retires a live worker.
                worker.last_seen = time.monotonic()
                _send_frame(worker.sock, ("task", (gen, index), payload),
                            worker.send_lock)
                self._await_result(worker, index, gen)
                worker.tasks_done += 1
        except _PoolStopped:
            pass
        except Exception as exc:
            # Not just (_WorkerGone, ConnectionError, OSError): a corrupt
            # frame (pickle.UnpicklingError) or any other surprise must
            # still retire the worker and requeue its in-flight task, or
            # the barrier blocks forever with no task_timeout set.
            self._retire_worker(worker, current, exc)

    def _take_task(self, worker: _WorkerConn) -> Tuple[int, int, bytes]:
        with self._cond:
            while True:
                if self._stopping or worker.dead:
                    raise _PoolStopped
                if self._payloads is not None and self._pending:
                    now = time.monotonic()
                    for _ in range(len(self._pending)):
                        index = self._pending.popleft()
                        if self._not_before.get(index, 0.0) <= now:
                            return index, self._barrier, self._payloads[index]
                        self._pending.append(index)
                    self._cond.wait(timeout=0.02)  # all are backing off
                else:
                    self._cond.wait(timeout=0.2)

    def _await_result(self, worker: _WorkerConn, index: int,
                      gen: int) -> None:
        ex = self._ex
        deadline = (
            time.monotonic() + ex.task_timeout
            if ex.task_timeout is not None else None
        )
        window = ex.heartbeat_window
        while True:
            now = time.monotonic()
            if deadline is not None and now >= deadline:
                raise _WorkerGone(
                    f"task timed out after {ex.task_timeout:g}s (worker "
                    f"pid {worker.info.get('pid')} presumed hung)"
                )
            silent_for = now - worker.last_seen
            if silent_for > window:
                raise _WorkerGone(
                    f"worker pid {worker.info.get('pid')} missed heartbeats "
                    f"for {silent_for:.1f}s"
                )
            timeout = window - silent_for
            if deadline is not None:
                timeout = min(timeout, deadline - now)
            msg = worker.reader.recv(timeout=max(timeout, 0.05))
            if msg is None:
                continue
            worker.last_seen = time.monotonic()
            kind = msg[0]
            if kind == "heartbeat":
                continue
            if kind == "fetch":
                _send_frame(
                    worker.sock,
                    ("piece", msg[1], ex.piece_cache.payload(msg[1])),
                    worker.send_lock,
                )
                continue
            if kind in ("result", "error"):
                task_id, payload = msg[1], msg[2]
                outcome = self._decode_outcome(kind, payload, msg)
                with self._cond:
                    if (task_id == (gen, index)
                            and gen == self._barrier
                            and index not in self._results):
                        self._results[index] = outcome
                        self._outstanding -= 1
                        self._cond.notify_all()
                return
            raise _WorkerGone(f"unexpected frame kind {kind!r}")

    @staticmethod
    def _decode_outcome(kind: str, payload: Optional[bytes],
                        msg: tuple) -> Tuple[str, Any]:
        if kind == "result":
            return ("ok", pickle.loads(payload))
        if payload is not None:
            try:
                return ("error", pickle.loads(payload))
            except Exception:  # fall through to the repr carried alongside
                pass
        return ("error", RemoteTaskError(
            f"task raised an unpicklable exception on the worker: {msg[3]}"
        ))

    # ------------------------------------------------------------------ #
    # failure handling
    # ------------------------------------------------------------------ #
    def _retire_worker(self, worker: _WorkerConn,
                       current: Optional[Tuple[int, int]],
                       reason: BaseException) -> None:
        with self._cond:
            if worker.dead:
                return
            worker.dead = True
            if worker in self._workers:
                self._workers.remove(worker)
            self._cond.notify_all()
        try:
            worker.sock.close()
        except OSError:  # pragma: no cover - best effort
            pass
        if worker.proc is not None and worker.proc.poll() is None:
            worker.proc.kill()

        backoff = 0.0
        with self._cond:
            if (current is not None and current[1] == self._barrier
                    and self._payloads is not None
                    and current[0] not in self._results):
                index = current[0]
                self._attempts[index] += 1
                attempts = self._attempts[index]
                if attempts > 1 + self._ex.retries:
                    self._failure = RemoteTaskError(
                        f"task {index} failed on {attempts} workers "
                        f"(retries={self._ex.retries} exhausted); last "
                        f"failure: {reason}"
                    )
                else:
                    backoff = min(0.05 * (2 ** (attempts - 1)), 1.0)
                    self._not_before[index] = time.monotonic() + backoff
                    self._pending.append(index)
                self._cond.notify_all()
            barrier_active = self._outstanding > 0 and self._failure is None
            can_respawn = (
                barrier_active
                and not self._stopping
                and self._ex.spawn_workers > 0
                and len(self._workers) < self._ex.spawn_workers
                and self._respawns_left > 0
            )
            if can_respawn:
                self._respawns_left -= 1
        if can_respawn:
            self._spawn_one()

    # ------------------------------------------------------------------ #
    def shutdown(self) -> None:
        """Stop the listener, the workers and every thread of this pool.

        Closing a listening socket does not wake a thread blocked in its
        ``accept()`` on Linux, so every socket is shut down before it is
        closed, and the accept, admit and serve threads are joined within
        :data:`_JOIN_TIMEOUT`.
        """
        with self._cond:
            self._stopping = True
            workers = list(self._workers)
            self._workers.clear()
            admitting = list(self._admitting)
            self._cond.notify_all()
        for sock in [self._listener, *admitting]:
            _shut(sock)
        for worker in workers:
            worker.dead = True
            try:
                _send_frame(worker.sock, ("shutdown",), worker.send_lock)
            except OSError:
                pass
            _shut(worker.sock)
        deadline = time.monotonic() + _JOIN_TIMEOUT
        self._accept_thread.join(timeout=_JOIN_TIMEOUT)
        with self._cond:
            threads = list(self._threads)
        for thread in threads:
            if thread is not threading.current_thread():
                thread.join(timeout=max(deadline - time.monotonic(), 0.0))
        for proc in self._spawned:
            if proc.poll() is None:
                proc.terminate()
        for proc in self._spawned:
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:  # pragma: no cover
                proc.kill()
                proc.wait(timeout=5)


def _shut(sock: socket.socket) -> None:
    """Shut a socket down (waking any thread blocked on it), then close it."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # never connected, or already shut down
    try:
        sock.close()
    except OSError:  # pragma: no cover - best effort
        pass


# --------------------------------------------------------------------- #
# the executor
# --------------------------------------------------------------------- #
class RemoteExecutor(Executor):
    """The socket-coordinator backend (``executor="remote"``).

    Parameters
    ----------
    max_workers:
        Target worker count; defaults to ``$REPRO_WORKERS`` or the cpu
        count.  Also the default number of local ``repro worker``
        subprocesses launched (see ``spawn_workers``).
    bind:
        ``HOST:PORT`` the coordinator listens on (default
        ``$REPRO_REMOTE_BIND`` or ``127.0.0.1:0``).  Bind a routable host
        and fixed port to accept workers from other machines.
    spawn_workers:
        Local subprocesses to launch when the pool starts (default
        ``$REPRO_REMOTE_SPAWN`` or ``max_workers``); ``0`` means the
        executor only waits for externally-launched ``repro worker``
        processes.
    task_timeout:
        Seconds one task may run before its worker is presumed hung and
        the task reassigned (default ``$REPRO_REMOTE_TIMEOUT``; unset
        means no timeout).
    retries:
        How many times an infrastructure failure may requeue one task
        (default ``$REPRO_REMOTE_RETRIES`` or 2).  Task exceptions are
        never retried.
    connect_timeout:
        Seconds to wait for workers before the first barrier: for the
        first one, or with ``spawn_workers=0`` for all ``max_workers`` of
        the fleet (the barrier then starts with whoever came).  With none
        connected the executor degrades to the ``processes`` backend with
        a :class:`RemoteDegradedWarning` (default
        ``$REPRO_REMOTE_CONNECT_TIMEOUT`` or 20).
    heartbeat_interval:
        Worker heartbeat period (default ``$REPRO_REMOTE_HEARTBEAT`` or
        1.0); a worker silent for ``max(6×interval, 6s)`` is presumed
        dead.
    cache_min_bytes:
        Piece-cache threshold forwarded to :class:`RemotePieceCache`.
    """

    name = "remote"

    def __init__(
        self,
        max_workers: Optional[int] = None,
        *,
        bind: Optional[str] = None,
        spawn_workers: Optional[int] = None,
        task_timeout: Optional[float] = None,
        retries: Optional[int] = None,
        connect_timeout: Optional[float] = None,
        heartbeat_interval: Optional[float] = None,
        cache_min_bytes: Optional[int] = None,
    ) -> None:
        super().__init__()
        self.max_workers = _default_workers(max_workers)
        self.bind_address = _parse_address(
            bind or os.environ.get(REMOTE_BIND_ENV, "127.0.0.1:0")
        )
        if spawn_workers is None:
            env = os.environ.get(REMOTE_SPAWN_ENV)
            spawn_workers = int(env) if env is not None else self.max_workers
        if spawn_workers < 0:
            raise ValueError(
                f"spawn_workers must be >= 0, got {spawn_workers}"
            )
        self.spawn_workers = int(spawn_workers)
        if task_timeout is None:
            env = os.environ.get(REMOTE_TIMEOUT_ENV)
            task_timeout = float(env) if env else None
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError(f"task_timeout must be > 0, got {task_timeout}")
        self.task_timeout = task_timeout
        if retries is None:
            retries = int(os.environ.get(REMOTE_RETRIES_ENV, 2))
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.retries = int(retries)
        if connect_timeout is None:
            connect_timeout = float(
                os.environ.get(REMOTE_CONNECT_TIMEOUT_ENV,
                               _DEFAULT_CONNECT_TIMEOUT)
            )
        self.connect_timeout = float(connect_timeout)
        if heartbeat_interval is None:
            heartbeat_interval = float(
                os.environ.get(REMOTE_HEARTBEAT_ENV, 1.0)
            )
        self.heartbeat_interval = float(heartbeat_interval)
        self.heartbeat_window = max(6 * self.heartbeat_interval, 6.0)
        self.piece_cache = RemotePieceCache(min_bytes=cache_min_bytes)
        self.pools_created = 0
        self.fallback_events = 0
        self._pool: Optional[_RemotePool] = None
        self._fallback: Optional[ProcessExecutor] = None

    # ------------------------------------------------------------------ #
    @property
    def address(self) -> Optional[Tuple[str, int]]:
        """The coordinator's bound ``(host, port)``, once listening."""
        return self._pool.address if self._pool is not None else None

    @property
    def n_workers(self) -> int:
        """Currently connected workers (0 before the first barrier)."""
        return self._pool.n_workers if self._pool is not None else 0

    @property
    def degraded(self) -> bool:
        """Whether this executor fell back to the ``processes`` backend."""
        return self._fallback is not None

    # ------------------------------------------------------------------ #
    def start(self) -> Optional[Tuple[str, int]]:
        """Start listening without waiting for workers; return the address.

        The external-worker workflow needs the port *before* any worker
        can be launched, but :meth:`map` only opens the listener on demand.
        ``start()`` breaks the cycle::

            ex = RemoteExecutor(max_workers=2, spawn_workers=0)
            host, port = ex.start()
            # ... launch 2 `repro worker --connect host:port` anywhere ...
            ex.map(fn, tasks)

        The first barrier waits for the workers within ``connect_timeout``
        of this call, as it does for a listener that :meth:`map` opens.
        Idempotent; returns ``None`` if the executor already degraded.
        """
        self._ensure_open()
        if self._pool is None and self._fallback is None:
            self._pool = _RemotePool(self)
            self.pools_created += 1
        return self._pool.address if self._pool is not None else None

    def map(self, fn: Callable[[Any], Any], tasks: Iterable[Any], *,
            equal_cost: bool = False) -> List[Any]:
        self._ensure_open()
        tasks = list(tasks)
        if not tasks:
            return []
        if self._fallback is not None:
            return self._fallback.map(fn, tasks, equal_cost=equal_cost)
        if len(tasks) <= 1 and self._pool is None:
            # One task gains nothing from a worker fleet, but the pickle
            # contract still holds so behavior is task-count-independent.
            for i, task in enumerate(tasks):
                self._serialize(fn, task, i, cache=None)
            return [fn(t) for t in tasks]
        pool = self._ensure_pool()
        if pool is None:  # degraded while ensuring
            return self._fallback.map(fn, tasks, equal_cost=equal_cost)
        self.piece_cache.begin_barrier()
        payloads = [
            self._serialize(fn, task, i, cache=self.piece_cache)
            for i, task in enumerate(tasks)
        ]
        try:
            return pool.run_barrier(payloads)
        except WorkerPoolBrokenError:
            self._discard_pool()
            raise

    def _serialize(self, fn, task, index: int,
                   cache: Optional[RemotePieceCache]) -> bytes:
        from repro.dist.executor import UnpicklableTaskError

        try:
            return _dump_task(fn, task, cache)
        except Exception as exc:
            raise UnpicklableTaskError(
                _pickle_advice(f"task {index} ({task!r})", exc)
            ) from exc

    def resident(self, graph: Any) -> Any:
        """The graph itself: the content cache ships it once per worker.
        The pool is resolved first, so an executor that degrades here
        hands out its ``processes`` fallback's pinned segment instead."""
        self._ensure_open()
        if self._fallback is None:
            self._ensure_pool()
        if self._fallback is not None:
            return self._fallback.resident(graph)
        return graph

    # ------------------------------------------------------------------ #
    def _ensure_pool(self) -> Optional[_RemotePool]:
        if self._pool is None:
            self._pool = _RemotePool(self)
            self.pools_created += 1
        pool = self._pool
        if not pool.fleet_awaited:
            # The first barrier waits, within the connect window, for one
            # worker — or for a whole fleet launched by hand, so none of
            # it dials in only after the run ended and the listener closed
            # — then starts with whoever came.
            pool.fleet_awaited = True
            wanted = self.max_workers if self.spawn_workers == 0 else 1
            deadline = pool.opened_at + self.connect_timeout
            pool.wait_for_workers(wanted, deadline - time.monotonic())
            if pool.n_workers == 0:
                self._pool = None
                pool.shutdown()
                warnings.warn(
                    f"no remote worker connected to "
                    f"{pool.address[0]}:{pool.address[1]} within "
                    f"{self.connect_timeout:g}s; degrading to the "
                    f"'processes' backend for this executor's lifetime",
                    RemoteDegradedWarning,
                    stacklevel=3,
                )
                self._fallback = ProcessExecutor(max_workers=self.max_workers)
                self.fallback_events += 1
                return None
        return pool

    def _discard_pool(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown()

    def close(self) -> None:
        pool, self._pool = self._pool, None
        fallback, self._fallback = self._fallback, None
        if pool is not None:
            pool.shutdown()
        if fallback is not None:
            fallback.close()
        super().close()

    def stats(self) -> Dict[str, Any]:
        """Base executor stats plus the PR 6 degradation seam: whether
        (and how often) this executor fell back to ``processes``, and the
        fallback backend's own stats once it exists — the payload
        ``repro serve`` surfaces on ``GET /statz``."""
        doc = super().stats()
        doc.update({
            "degraded": self.degraded,
            "fallback_events": self.fallback_events,
            "n_workers": self.n_workers,
            "fallback": (self._fallback.stats()
                         if self._fallback is not None else None),
        })
        return doc

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self.closed else (
            "degraded" if self._fallback is not None
            else f"{self.n_workers} worker(s)" if self._pool is not None
            else "lazy"
        )
        return f"RemoteExecutor(max_workers={self.max_workers}, {state})"


def _parse_address(text: str) -> Tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"remote address must be HOST:PORT, got {text!r}"
        )
    try:
        return host, int(port)
    except ValueError:
        raise ValueError(
            f"remote address must be HOST:PORT with an integer port, "
            f"got {text!r}"
        ) from None


# --------------------------------------------------------------------- #
# fault injection (the chaos hooks tests/chaos.py drives)
# --------------------------------------------------------------------- #
# The hooks themselves moved to repro.dist.faults so the serving layer's
# pool workers can share them without importing the socket machinery;
# the aliases keep this module's historical surface intact.
from repro.dist.faults import claim_latch as _claim_latch  # noqa: E402,F401
from repro.dist.faults import maybe_chaos as _maybe_chaos  # noqa: E402


# --------------------------------------------------------------------- #
# the worker process
# --------------------------------------------------------------------- #
def worker_main(connect: str, tag: Optional[str] = None) -> int:
    """The ``repro worker`` loop: connect, heartbeat, execute, repeat.

    Exits 0 on a clean ``shutdown`` frame or when the coordinator goes
    away (EOF) — a worker must never outlive its coordinator.
    """
    host, port = _parse_address(connect)
    # Workers legitimately race their coordinator's bind (a fleet script
    # starts both concurrently), so a refused connection is retried for a
    # grace window rather than failing on the first attempt.  The window
    # mirrors the coordinator's wait-for-workers knob.
    grace = float(os.environ.get(REMOTE_CONNECT_TIMEOUT_ENV,
                                 _DEFAULT_CONNECT_TIMEOUT))
    deadline = time.monotonic() + grace
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=10.0)
            break
        except OSError as exc:
            if time.monotonic() >= deadline:
                print(f"repro worker: cannot connect to {host}:{port}: "
                      f"{exc}", file=sys.stderr)
                return 1
            time.sleep(0.2)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    send_lock = threading.Lock()
    _send_frame(sock, ("hello", {"pid": os.getpid(), "tag": tag}),
                send_lock)

    interval = float(os.environ.get(REMOTE_HEARTBEAT_ENV, 1.0))
    stop = threading.Event()

    def _beat() -> None:
        while not stop.wait(interval):
            try:
                _send_frame(sock, ("heartbeat", os.getpid()), send_lock)
            except OSError:
                # Coordinator is gone.  The main thread may be deep in a
                # long task (or a chaos hang); do not let this process
                # linger as an orphan.
                os._exit(0)

    threading.Thread(target=_beat, name="repro-worker-heartbeat",
                     daemon=True).start()

    reader = _FrameReader(sock)
    pins: "OrderedDict[str, Any]" = OrderedDict()

    def _fetch(digest: str) -> Any:
        if digest in pins:
            pins.move_to_end(digest)
            return pins[digest]
        _send_frame(sock, ("fetch", digest), send_lock)
        while True:
            msg = reader.recv(timeout=None)
            if msg is None:  # pragma: no cover - blocking recv
                continue
            if msg[0] == "piece" and msg[1] == digest:
                obj = pins[digest] = pickle.loads(msg[2])
                while len(pins) > _CACHED_PAYLOADS:
                    pins.popitem(last=False)
                return obj
            if msg[0] == "shutdown":
                raise ConnectionError("shutdown during fetch")

    tasks_seen = 0
    try:
        while True:
            msg = reader.recv(timeout=None)
            if msg is None:  # pragma: no cover - blocking recv
                continue
            kind = msg[0]
            if kind == "shutdown":
                break
            if kind != "task":
                continue
            task_id, payload = msg[1], msg[2]
            tasks_seen += 1
            _maybe_chaos(tasks_seen)
            try:
                fn, arg = _FetchingUnpickler(
                    io.BytesIO(payload), _fetch
                ).load()
                result = fn(arg)
                _send_frame(
                    sock,
                    ("result", task_id,
                     pickle.dumps(result, _PICKLE_PROTOCOL)),
                    send_lock,
                )
            except ConnectionError:
                raise
            except Exception as exc:
                try:
                    exc_payload = pickle.dumps(exc, _PICKLE_PROTOCOL)
                except Exception:
                    exc_payload = None
                _send_frame(
                    sock, ("error", task_id, exc_payload, repr(exc)),
                    send_lock,
                )
    except ConnectionError:
        pass  # coordinator went away: exit cleanly
    finally:
        stop.set()
        try:
            sock.close()
        except OSError:  # pragma: no cover - best effort
            pass
    return 0
