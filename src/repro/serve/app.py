"""``repro serve`` — matching-as-a-service over the solver registry.

A deliberately small asyncio HTTP/1.1 server (stdlib only, no framework)
that turns the library's one-shot ``repro solve`` pipeline into a
long-lived service:

* **graphs load once** — at startup (``--graph id=SPEC``) or at runtime
  (``POST /graphs``) — and stay pinned in a :class:`~repro.serve.store.
  GraphStore`; with a process pool each graph sits in one shared-memory
  segment, requests ship only a reference to it, and each worker
  attaches it once;
* **one executor for the server's lifetime** — ``serial`` unless
  ``--executor`` or ``$REPRO_EXECUTOR`` names a pooled backend, whose
  pool is warmed at boot so no request pays pool start-up;
* **requests resolve solvers by capability** — ``{"problem":
  "matching", "model": "coreset"}`` picks the best registered
  :class:`~repro.solve.registry.SolverSpec` for that graph via
  :func:`~repro.solve.capabilities.resolve_capability`, or name one
  explicitly with ``{"solver": ...}``;
* **concurrent requests micro-batch** — same graph, one executor barrier
  (:mod:`repro.serve.batcher`), byte-identical results to serial solves;
* **``POST /compare``** runs several solvers side by side on one graph in
  a single batch.

Routes
------
======  ==================  =============================================
GET     /healthz            liveness + graph count (answers even while
                            degraded or draining)
GET     /readyz             readiness: pool warm ∧ breaker closed ∧ queue
                            below watermark (503 + reasons otherwise)
GET     /stats              server / batcher / store / executor counters
GET     /statz              resilience counters: breaker state, backend,
                            admission/queue/deadline rejections
GET     /solvers            registry capabilities (+ resolution order
                            with ``?problem=``)
GET     /graphs             registered graph infos
POST    /graphs             register ``{"id", "source", "seed"}``
GET     /graphs/<id>        one graph's info
DELETE  /graphs/<id>        unregister (refcounted; never yanks in-flight)
POST    /solve              one solve (see ``parse_solve_request``)
POST    /compare            side-by-side solvers on one graph
======  ==================  =============================================

Errors are always JSON ``{"error": {"code", "message", ...}}`` with the
taxonomy of :mod:`repro.serve.protocol`; a crashed worker pool costs the
in-flight batch a 500 ``worker_pool_broken`` and nothing else — the next
request gets a fresh pool (``tests/test_serve_faults.py``).

Overload safety (PR 9, :mod:`repro.serve.resilience`): requests over the
in-flight caps or the queue bound are shed with 429 ``overloaded`` +
``Retry-After``; ``deadline_ms`` budgets turn into 504
``deadline_exceeded`` instead of unbounded waits; and a run of
consecutive pool breaks opens a circuit breaker that re-warms via
backed-off half-open probes and can step the backend down
remote → processes → serial (``tests/test_serve_overload.py``).
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import signal
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs

from repro.dist.executor import (
    Executor,
    ProcessExecutor,
    resolve_executor,
)
from repro.serve.batcher import MicroBatcher
from repro.serve.protocol import (
    BadRequest,
    CompareRequest,
    NotFound,
    Overloaded,
    ServeError,
    ShuttingDown,
    SolveRequest,
    UnresolvableCapability,
    parse_compare_request,
    parse_graph_request,
    parse_solve_request,
)
from repro.serve.resilience import (
    AdmissionController,
    ExecutorSupervisor,
    resolve_deadline_ms,
)
from repro.serve.store import GraphStore, PinnedGraph
from repro.serve.tasks import SolveTask
from repro.solve.capabilities import (
    CapabilityResolutionError,
    rank_candidates,
)
from repro.solve.registry import (
    SolverSpec,
    UnknownSolverError,
    all_solvers,
    check_fit,
    get_solver,
)

__all__ = ["ReproServer", "ServeConfig", "serve_main"]

#: Seconds :meth:`ReproServer.aclose` gives connections with a request in
#: flight to write their responses before it cuts them off.
DRAIN_GRACE_S = 5.0

_REASONS = {
    200: "OK", 201: "Created", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 413: "Payload Too Large",
    422: "Unprocessable Entity", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
    504: "Gateway Timeout",
}


class _MethodNotAllowed(ServeError):
    status = 405
    code = "method_not_allowed"


@dataclass(frozen=True)
class ServeConfig:
    """Everything ``repro serve`` needs to boot.

    ``executor=None`` resolves the way every other engine does:
    ``$REPRO_EXECUTOR``, else ``"serial"``.  Barriers already run off the
    event loop, one at a time, so serial needs no pool; ``"processes"``
    or ``"remote"`` keep solver code out of the server process.  Graphs
    are pinned in shared memory exactly when the pool is a process pool.

    The overload knobs (PR 9): ``max_inflight`` / ``max_inflight_per_graph``
    cap admitted requests (0 disables the per-graph cap), ``max_queue``
    bounds the batch queue, ``default_deadline_ms`` / ``max_deadline_ms``
    set and cap per-request budgets (``None`` / 0 = unbounded), and the
    ``breaker_*`` / ``step_down_after`` knobs drive the
    :class:`~repro.serve.resilience.ExecutorSupervisor`.
    ``ready_watermark=0`` means ``max_queue // 2``.
    """

    host: str = "127.0.0.1"
    port: int = 0
    executor: Optional[str] = None
    workers: Optional[int] = None
    max_batch: int = 32
    max_body_bytes: int = 8 * 1024 * 1024
    preload: Tuple[Tuple[str, str], ...] = ()
    seed: int = 0
    max_inflight: int = 64
    max_inflight_per_graph: int = 0
    max_queue: int = 256
    default_deadline_ms: Optional[float] = None
    max_deadline_ms: float = 0.0
    breaker_threshold: int = 3
    breaker_backoff_ms: float = 500.0
    breaker_max_backoff_ms: float = 30000.0
    step_down_after: int = 2
    ready_watermark: int = 0


class ReproServer:
    """The serving facade: graph store + warm pool + micro-batcher + HTTP."""

    def __init__(self, config: Optional[ServeConfig] = None,
                 **overrides: Any) -> None:
        self.config = config if config is not None else ServeConfig(**overrides)
        cfg = self.config
        if cfg.default_deadline_ms is not None and cfg.default_deadline_ms <= 0:
            raise ValueError(
                f"default_deadline_ms must be > 0 or None, "
                f"got {cfg.default_deadline_ms}"
            )
        if cfg.max_deadline_ms < 0:
            raise ValueError(
                f"max_deadline_ms must be >= 0 (0 = uncapped), "
                f"got {cfg.max_deadline_ms}"
            )
        if cfg.ready_watermark < 0:
            raise ValueError(
                f"ready_watermark must be >= 0 (0 = max_queue // 2), "
                f"got {cfg.ready_watermark}"
            )
        executor = resolve_executor(cfg.executor, workers=cfg.workers)
        self.executor_name = executor.name
        # Process pools get each graph pinned in a shared segment and
        # tasks carry a reference to it; every other executor shares the
        # graph object itself and additionally reuses cached partition
        # views across requests with the same (k, seed).
        self.ship_handles = isinstance(executor, ProcessExecutor)
        # The supervisor owns the live executor from here on: it re-warms
        # after pool breaks, opens the circuit breaker on a run of them,
        # and may step the backend down (remote → processes → serial).
        self.supervisor = ExecutorSupervisor(
            executor,
            threshold=cfg.breaker_threshold,
            backoff_s=cfg.breaker_backoff_ms / 1000.0,
            max_backoff_s=cfg.breaker_max_backoff_ms / 1000.0,
            step_down_after=cfg.step_down_after,
            workers=cfg.workers,
        )
        self.admission = AdmissionController(
            cfg.max_inflight, cfg.max_inflight_per_graph
        )
        # Warm the pool now: the lazy backends run single-task barriers
        # inline until a pool exists.  With processes or remote, that
        # keeps solver code (and chaos hooks) out of the server process;
        # serial runs every barrier inline by design.
        self.supervisor.rewarm()
        self.store = GraphStore(pin_shared=self.ship_handles)
        self.batcher = MicroBatcher(
            self.supervisor, max_batch=cfg.max_batch, max_queue=cfg.max_queue
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self.host = cfg.host
        self.port = cfg.port
        self._started = time.monotonic()
        self._draining = False
        self._closed = False
        self._conn_tasks: set = set()
        #: Connection handlers waiting for their next request line, with
        #: their writers: :meth:`aclose` closes these at once.
        self._idle: Dict[asyncio.Task, asyncio.StreamWriter] = {}
        self.requests_total = 0
        self.errors_total = 0
        self.route_counts: Dict[str, int] = {}

    @property
    def executor(self) -> Executor:
        """The live executor — owned by the supervisor, which may have
        swapped the backend since boot (step-down)."""
        return self.supervisor.executor

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def aclose(self) -> None:
        """Stop accepting, drain in-flight batches, release everything.

        Idempotent.  Idle keep-alive connections are closed at once: they
        have nothing to answer.  Queued requests either run to completion
        or get structured 503s (if the breaker is open), and each
        connection closes after its response; a connection still
        mid-request after a bounded grace period is cut off."""
        if self._closed:
            return
        self._closed = True
        self._draining = True
        if self._server is not None:
            self._server.close()
        # A handler checks ``_draining`` before it waits for a request
        # line, so no connection turns idle after this.
        for writer in list(self._idle.values()):
            writer.close()
        await self.batcher.drain()
        me = asyncio.current_task()
        pending = [t for t in self._conn_tasks
                   if t is not me and not t.done()]
        if pending:
            # The drain resolved every queued future; give the handler
            # coroutines a moment to write those responses out.
            await asyncio.wait(pending, timeout=DRAIN_GRACE_S)
            for task in pending:
                if not task.done():
                    task.cancel()
        if self._server is not None:
            # Only now: since Python 3.12 this waits for every connection
            # to close, and the queued ones close once the drain answers.
            await self._server.wait_closed()
            self._server = None
        self.supervisor.close()
        self.store.close()

    async def __aenter__(self) -> "ReproServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.aclose()

    def add_graph(self, graph_id: str, source: str = "<direct>",
                  seed: int = 0, graph: Any = None) -> PinnedGraph:
        """Synchronous registration for preload paths and tests."""
        return self.store.register(graph_id, source, seed=seed, graph=graph)

    # ------------------------------------------------------------------ #
    # HTTP plumbing
    # ------------------------------------------------------------------ #
    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            await self._converse(task, reader, writer)
        except asyncio.CancelledError:
            # aclose() cuts a connection off once its grace is over, and
            # it ends like one whose client went away.  Any other
            # cancellation propagates.
            if not self._closed:
                raise
        finally:
            if task is not None:
                self._conn_tasks.discard(task)

    async def _converse(self, task: Optional[asyncio.Task],
                        reader: asyncio.StreamReader,
                        writer: asyncio.StreamWriter) -> None:
        """Answer requests on one connection until it closes."""
        try:
            while not self._draining:
                self._idle[task] = writer
                try:
                    request_line = await reader.readline()
                finally:
                    del self._idle[task]
                if not request_line:
                    return
                parts = request_line.decode("latin-1").split()
                if len(parts) != 3 or not parts[2].startswith("HTTP/"):
                    self._write(writer, 400, BadRequest(
                        "malformed request line").to_doc(), False)
                    await writer.drain()
                    return
                method, raw_path, _version = parts
                headers: Dict[str, str] = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                try:
                    length = int(headers.get("content-length", "0"))
                except ValueError:
                    length = -1
                if length < 0 or length > self.config.max_body_bytes:
                    self._write(writer, 413, BadRequest(
                        "invalid or oversized content-length",
                        limit=self.config.max_body_bytes).to_doc(), False)
                    await writer.drain()
                    return
                body = await reader.readexactly(length) if length else b""
                keep = headers.get("connection", "").lower() != "close"
                status, doc, extra = await self._route(
                    method.upper(), raw_path, body
                )
                # A draining server closes each connection after its
                # response, and says so.
                keep = keep and not self._draining
                self._write(writer, status, doc, keep, extra)
                await writer.drain()
                if not keep:
                    return
        except (asyncio.IncompleteReadError, ConnectionResetError,
                BrokenPipeError):
            pass  # client went away mid-request; nothing to answer
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    @staticmethod
    def _write(writer: asyncio.StreamWriter, status: int,
               doc: Any, keep_alive: bool,
               extra_headers: Optional[Dict[str, str]] = None) -> None:
        body = json.dumps(doc).encode("utf-8")
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Error')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in (extra_headers or {}).items():
            lines.append(f"{name}: {value}")
        head = "\r\n".join(lines) + "\r\n\r\n"
        writer.write(head.encode("latin-1") + body)

    async def _route(self, method: str, raw_path: str,
                     body: bytes) -> Tuple[int, Any, Dict[str, str]]:
        self.requests_total += 1
        path, _, query_text = raw_path.partition("?")
        self.route_counts[f"{method} {path}"] = (
            self.route_counts.get(f"{method} {path}", 0) + 1
        )
        try:
            status, doc = await self._dispatch(method, path, query_text, body)
            return status, doc, {}
        except ServeError as exc:
            self.errors_total += 1
            headers: Dict[str, str] = {}
            if isinstance(exc, Overloaded):
                # Whole seconds, rounded up — the precise delay rides in
                # the error doc as retry_after_ms.
                headers["Retry-After"] = str(
                    max(1, math.ceil(exc.retry_after_s))
                )
            return exc.status, exc.to_doc(), headers
        except Exception as exc:  # noqa: BLE001 - the server must not die
            self.errors_total += 1
            return 500, ServeError(
                f"internal error: {type(exc).__name__}: {exc}"
            ).to_doc(), {}

    @staticmethod
    def _json_body(body: bytes) -> Any:
        if not body:
            raise BadRequest("request body is empty; expected JSON")
        try:
            return json.loads(body)
        except ValueError as exc:
            raise BadRequest(f"request body is not valid JSON: {exc}")

    async def _dispatch(self, method: str, path: str, query_text: str,
                        body: bytes) -> Tuple[int, Any]:
        query = {k: v[-1] for k, v in parse_qs(query_text).items()}
        if path == "/healthz":
            self._need(method, "GET", path)
            return 200, {"ok": True, "graphs": len(self.store.ids())}
        if path == "/readyz":
            self._need(method, "GET", path)
            ready, reasons = self._readiness()
            if ready:
                return 200, {"ready": True}
            return 503, {"ready": False, "reasons": reasons}
        if path == "/statz":
            self._need(method, "GET", path)
            return 200, self._statz_doc()
        if path == "/stats":
            self._need(method, "GET", path)
            return 200, self._stats_doc()
        if self._draining:
            # Health and introspection answer to the very end; everything
            # else is refused once the drain starts.
            raise ShuttingDown("server is draining; no new work accepted")
        if path == "/solvers":
            self._need(method, "GET", path)
            return 200, self._solvers_doc(query)
        if path == "/graphs":
            if method == "GET":
                return 200, {"graphs": self.store.infos()}
            self._need(method, "POST", path)
            req = parse_graph_request(self._json_body(body))
            loop = asyncio.get_running_loop()
            try:
                pg = await loop.run_in_executor(
                    None, lambda: self.store.register(
                        req.graph_id, req.source, seed=req.seed)
                )
            except (ValueError, OSError) as exc:
                # load_graph rejected the spec (unknown generator, bad
                # KEY=VALUE, unreadable file) — the caller's fault, not ours.
                raise BadRequest(str(exc), source=req.source)
            return 201, pg.info()
        if path.startswith("/graphs/"):
            graph_id = path[len("/graphs/"):]
            if method == "GET":
                return 200, self.store.get(graph_id).info()
            self._need(method, "DELETE", path)
            return 200, {"unregistered": self.store.unregister(graph_id)}
        if path == "/solve":
            self._need(method, "POST", path)
            req = parse_solve_request(self._json_body(body))
            return 200, await self._do_solve(req)
        if path == "/compare":
            self._need(method, "POST", path)
            req = parse_compare_request(self._json_body(body))
            return 200, await self._do_compare(req)
        raise NotFound(f"no route {path!r}")

    @staticmethod
    def _need(method: str, expected: str, path: str) -> None:
        if method != expected:
            raise _MethodNotAllowed(
                f"{method} is not allowed for {path} (use {expected})",
                allowed=expected,
            )

    # ------------------------------------------------------------------ #
    # documents
    # ------------------------------------------------------------------ #
    def _stats_doc(self) -> Dict[str, Any]:
        return {
            "server": {
                "uptime_s": round(time.monotonic() - self._started, 3),
                "requests_total": self.requests_total,
                "errors_total": self.errors_total,
                "routes": dict(self.route_counts),
            },
            "executor": {
                "backend": self.executor_name,
                "current_backend": self.supervisor.backend,
                "workers": self.config.workers,
                "ship_handles": self.ship_handles,
            },
            "batcher": self.batcher.stats(),
            "store": self.store.stats(),
        }

    def _effective_watermark(self) -> int:
        wm = self.config.ready_watermark
        return wm if wm > 0 else max(1, self.config.max_queue // 2)

    def _readiness(self) -> Tuple[bool, List[str]]:
        _, reasons = self.supervisor.ready()
        depth = self.batcher.queue_depth()
        watermark = self._effective_watermark()
        if depth >= watermark:
            reasons.append(
                f"batch queue depth {depth} is at/above the readiness "
                f"watermark {watermark}")
        if self._draining:
            reasons.append("server is draining")
        return not reasons, reasons

    def _statz_doc(self) -> Dict[str, Any]:
        ready, reasons = self._readiness()
        batch = self.batcher.stats()
        cfg = self.config
        return {
            "ready": ready,
            "reasons": reasons,
            "draining": self._draining,
            "breaker": self.supervisor.stats(),
            "admission": self.admission.stats(),
            "queue": {
                "depth": batch["queue_depth"],
                "max_queue": batch["max_queue"],
                "max_queue_seen": batch["max_queue_seen"],
                "ready_watermark": self._effective_watermark(),
                "rejected_queue_full": batch["rejected_queue_full"],
                "rejected_at_dispatch": batch["rejected_at_dispatch"],
                "wait_ms": batch["wait_ms"],
                "barrier_ms": batch["barrier_ms"],
            },
            "deadlines": {
                "default_deadline_ms": cfg.default_deadline_ms,
                "max_deadline_ms": cfg.max_deadline_ms,
                "expired_in_queue": batch["expired_in_queue"],
                "expired_in_flight": batch["expired_in_flight"],
            },
            "executor": self.executor.stats(),
        }

    def _solvers_doc(self, query: Dict[str, str]) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "solvers": [s.capabilities() for s in all_solvers()],
        }
        problem = query.get("problem")
        if problem:
            try:
                ranked = rank_candidates(
                    problem,
                    model=query.get("model") or None,
                    guarantee=query.get("guarantee") or None,
                )
                doc["resolution_order"] = [s.name for s in ranked]
            except CapabilityResolutionError as exc:
                raise UnresolvableCapability(str(exc),
                                             query=exc.query.to_dict())
        return doc

    # ------------------------------------------------------------------ #
    # solving
    # ------------------------------------------------------------------ #
    def _resolve_spec(self, req: SolveRequest, graph: Any) -> SolverSpec:
        if req.solver is not None:
            try:
                return get_solver(req.solver)
            except UnknownSolverError as exc:
                raise NotFound(str(exc), solver=req.solver)
        try:
            return rank_candidates(
                req.problem,
                model=req.model,
                guarantee=req.guarantee,
                weighted=req.weighted,
                graph=graph,
                has_k=req.k is not None,
            )[0]
        except CapabilityResolutionError as exc:
            raise UnresolvableCapability(
                str(exc), query=exc.query.to_dict(),
                candidates=list(exc.candidates),
            )

    @staticmethod
    def _precheck(spec: SolverSpec, graph: Any, k: Optional[int],
                  params: Dict[str, Any]) -> None:
        """Reject with a 4xx everything the facade would reject with a
        raise — capability mismatches must never cost a pool round-trip."""
        try:
            check_fit(spec, graph, params)
        except ValueError as exc:  # SolverCapabilityError included
            raise BadRequest(str(exc), solver=spec.name)
        if spec.model == "coreset" and k is None:
            raise BadRequest(
                f"solver {spec.name!r} runs in the k-machine coreset "
                f"model; the request must set 'k'",
                solver=spec.name,
            )

    def _make_task(self, pg: PinnedGraph, spec: SolverSpec, seed: int,
                   k: Optional[int], params: Dict[str, Any], verify: bool,
                   include_certificate: bool,
                   deadline_ts: Optional[float] = None) -> SolveTask:
        graph, partition = pg.graph, None
        if pg.pin is not None:
            graph = pg.pin.ref
        elif (spec.model == "coreset" and "partition" in spec.params
              and k is not None):
            # Partition views ride with the graph object only: workers
            # that attach a pinned graph draw the partition from the seed
            # (bit-identical by contract).
            partition = self.store.lease_view(pg, k, seed)
        return SolveTask(
            graph_id=pg.graph_id, solver=spec.name, seed=seed, k=k,
            params=params, verify=verify,
            include_certificate=include_certificate, graph=graph,
            partition=partition, deadline_ts=deadline_ts,
        )

    def _deadline(self, requested_ms: Optional[float]
                  ) -> Tuple[Optional[float], Optional[float],
                             Optional[float]]:
        """Resolve one request's budget into ``(budget_ms, monotonic
        deadline for the batcher, wall-clock deadline for workers)``."""
        cfg = self.config
        budget_ms = resolve_deadline_ms(
            requested_ms, cfg.default_deadline_ms, cfg.max_deadline_ms
        )
        if budget_ms is None:
            return None, None, None
        budget_s = budget_ms / 1000.0
        return budget_ms, time.monotonic() + budget_s, time.time() + budget_s

    async def _submit(self, pg: PinnedGraph, task: SolveTask,
                      deadline: Optional[float] = None,
                      deadline_ms: Optional[float] = None) -> Dict[str, Any]:
        payload = await self.batcher.submit(
            pg.graph_id, task, deadline=deadline, deadline_ms=deadline_ms
        )
        pg.solves += 1
        return payload

    async def _do_solve(self, req: SolveRequest) -> Dict[str, Any]:
        self.admission.acquire(req.graph_id)
        try:
            pg = self.store.acquire(req.graph_id)
            try:
                spec = self._resolve_spec(req, pg.graph)
                self._precheck(spec, pg.graph, req.k, req.params)
                budget_ms, deadline, deadline_ts = self._deadline(
                    req.deadline_ms
                )
                task = self._make_task(
                    pg, spec, req.seed, req.k, req.params, req.verify,
                    req.include_certificate, deadline_ts=deadline_ts)
                payload = await self._submit(pg, task, deadline=deadline,
                                             deadline_ms=budget_ms)
            finally:
                self.store.release(pg)
        finally:
            self.admission.release(req.graph_id)
        doc = {
            "graph": req.graph_id,
            "solver": spec.name,
            "seed": req.seed,
            "k": req.k,
            "batch_size": payload.get("batch_size", 1),
        }
        if not payload["ok"]:
            from repro.serve.protocol import DeadlineExceeded, SolveFailed

            err = payload["error"]
            if err.get("code") == "deadline_exceeded":
                # Belt-and-braces: a worker that short-circuited on its
                # wall-clock deadline, in the rare case the batcher's
                # monotonic check didn't already 504 this entry.
                raise DeadlineExceeded(err.get("message", "deadline expired"),
                                       solver=err.get("solver"),
                                       graph=err.get("graph"))
            raise SolveFailed(err.get("message", "solver failed"),
                              solver=err.get("solver"),
                              graph=err.get("graph"))
        doc["result"] = payload["result"]
        return doc

    async def _do_compare(self, req: CompareRequest) -> Dict[str, Any]:
        self.admission.acquire(req.graph_id)
        try:
            pg = self.store.acquire(req.graph_id)
            try:
                budget_ms, deadline, deadline_ts = self._deadline(
                    req.deadline_ms
                )
                specs = []
                for entry in req.entries:
                    try:
                        spec = get_solver(entry.solver)
                    except UnknownSolverError as exc:
                        raise NotFound(str(exc), solver=entry.solver)
                    self._precheck(spec, pg.graph, req.k, entry.params)
                    specs.append(spec)
                # Build every task before submitting any: then all entries
                # join the graph's queue in one tick and share one barrier.
                tasks = [self._make_task(pg, spec, req.seed, req.k,
                                         entry.params, req.verify, False,
                                         deadline_ts=deadline_ts)
                         for entry, spec in zip(req.entries, specs)]
                payloads = await asyncio.gather(
                    *(self._submit(pg, task, deadline=deadline,
                                   deadline_ms=budget_ms) for task in tasks),
                    return_exceptions=True,
                )
            finally:
                self.store.release(pg)
        finally:
            self.admission.release(req.graph_id)
        columns = []
        for entry, spec, payload in zip(req.entries, specs, payloads):
            column: Dict[str, Any] = {
                "label": entry.label or spec.name,
                "solver": spec.name,
                "params": dict(entry.params),
            }
            if isinstance(payload, BaseException):
                if not isinstance(payload, ServeError):
                    raise payload
                column["ok"] = False
                column["error"] = payload.to_doc()["error"]
            elif payload["ok"]:
                column["ok"] = True
                column["result"] = payload["result"]
            else:
                column["ok"] = False
                column["error"] = payload["error"]
            columns.append(column)
        values = [c["result"]["value"] for c in columns if c["ok"]]
        return {
            "graph": req.graph_id,
            "seed": req.seed,
            "k": req.k,
            "solvers": columns,
            "summary": {
                "completed": len(values),
                "failed": len(columns) - len(values),
                "best_value": max(values) if values else None,
            },
        }


# --------------------------------------------------------------------- #
# process entry point
# --------------------------------------------------------------------- #
def serve_main(config: ServeConfig) -> int:
    """Run the server until SIGTERM/SIGINT; the ``repro serve`` body."""

    async def _run() -> int:
        server = ReproServer(config)
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, stop.set)
        await server.start()
        for graph_id, source in config.preload:
            pg = server.add_graph(graph_id, source, seed=config.seed)
            print(f"pinned graph {graph_id!r}: {pg.info()['kind']} "
                  f"n={pg.graph.n_vertices} m={pg.graph.n_edges}",
                  flush=True)
        print(f"repro serve listening on http://{server.host}:{server.port} "
              f"(executor={server.executor_name})", flush=True)
        await stop.wait()
        print("repro serve: draining and shutting down", flush=True)
        await server.aclose()
        return 0

    return asyncio.run(_run())
