"""The serve-mixed workload: ``repro serve`` in a subprocess under an
open-loop request mix.

The server runs with every tuning flag at its default (threads executor,
one worker per CPU, 5 ms batch window); ``--seed`` carries the graph seed
derived from the workload seed.  Requests are due open-loop at a fixed
rate, evenly spaced, over at most ``nproc`` keep-alive connections; each
is timed from its due time to the end of its response, so a stall also
charges the requests queued behind it.  The latencies come from these
requests.  Poisson arrival times would put the p99 of a run at its few
largest arrival clusters, which differ from seed to seed more than the
server does.

The open loop runs in ``BURSTS`` equal segments, each followed by a
short closed-loop burst on as many connections, each sending its next
request as soon as the last is answered: the server's capacity, which the
traced run reports as ``serve.capacity_per_s``.  ``throughput_per_s`` is
the open loop's completed rate, which the client fixes as long as the
server keeps up.  Capacity is not an end-to-end metric because on a
shared 2-CPU host it follows the host's speed: across seeds it spread
0.11-0.22, at the edge of the largest bound a metric may have.

Set-up (boot, graph pin, warm pool, every request kind on every worker)
is timed from spawn and repeated before and after the timed phase; the
last server booted before it is the one measured.
"""

from __future__ import annotations

import http.client
import json
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from queue import Empty, Queue
from typing import Any, Dict, List, Optional, Tuple

from gates import check_result
from host import nproc, tree_cpu_s, tree_peak_rss_mb
from measure import tail_percentile

GRAPH_SPEC = "planted:n=1000"
N_VERTICES = 1000
PLANTED_OPT = N_VERTICES / 2  # also a lower bound on the minimum cover
RATE_PER_S = 20.0
K = 4
#: The mix, repeated in order: two named solvers, one resolved by
#: capability, and a /compare that batches four solvers (one of them the
#: MapReduce simulator) into a single barrier.
KINDS: List[Tuple[str, Dict[str, Any]]] = [
    ("/solve", {"solver": "matching.coreset"}),
    ("/solve", {"solver": "vertex_cover.coreset"}),
    ("/solve", {"problem": "matching", "model": "coreset"}),
    ("/compare", {"solvers": ["matching.coreset", "vertex_cover.coreset",
                              "matching.mapreduce",
                              "matching.streaming_greedy"]}),
]
#: Closed-loop capacity time per run: this long, or a tenth of a shorter
#: run, cut into ``BURSTS`` bursts that follow equal open-loop segments.
#: One burst at the end would sample a single spell of the host, whose
#: speed swings by half over tens of seconds.
SATURATION_S = 5.0
BURSTS = 5
WARM_ROUNDS = 3
SPOT_CHECKS = 24
BOOT_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 10.0

Served = Tuple[int, int, Dict[str, Any]]  # (op index, seed, result doc)


@dataclass
class Op:
    """One timed request and what came back."""

    kind: int
    seed: int
    latency_ms: float = 0.0
    lag_ms: Optional[float] = None
    status: int = 0
    body: bytes = b""
    error: Optional[str] = None
    done: float = 0.0


def _body(kind: int, seed: int) -> bytes:
    return json.dumps({"graph": "g", "k": K, "seed": seed,
                       **KINDS[kind][1]}).encode()


def _call(conn: http.client.HTTPConnection, method: str, path: str,
          body: Optional[bytes] = None) -> Tuple[int, bytes]:
    headers = {"Content-Type": "application/json"} if body else {}
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    return response.status, response.read()


class Server:
    """One ``repro serve`` subprocess; :meth:`close` stops and reaps it."""

    def __init__(self, root: Path, env: Dict[str, str], graph_seed: int):
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--graph", f"g={GRAPH_SPEC}", "--seed", str(graph_seed)],
            cwd=root, env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        self._lines: Queue = Queue()
        self.stderr_tail: deque = deque(maxlen=40)
        self._readers = [
            threading.Thread(target=self._pump,
                             args=(self.proc.stdout, self._lines.put)),
            threading.Thread(target=self._pump,
                             args=(self.proc.stderr, self.stderr_tail.append)),
        ]
        for reader in self._readers:
            reader.start()
        self.port = self._await_port()

    @staticmethod
    def _pump(stream, sink) -> None:
        for line in stream:
            sink(line.rstrip("\n"))

    def _await_port(self) -> int:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            try:
                line = self._lines.get(timeout=0.2)
            except Empty:
                if self.proc.poll() is not None:
                    break
                continue
            if "listening on http://" in line:
                address = line.split("http://", 1)[1].split()[0]
                return int(address.rsplit(":", 1)[1])
        self.close()
        raise RuntimeError("repro serve did not start: "
                           + " | ".join(self.stderr_tail))

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=REQUEST_TIMEOUT_S)

    def get(self, path: str) -> Dict[str, Any]:
        conn = self.connect()
        try:
            status, data = _call(conn, "GET", path)
        finally:
            conn.close()
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}")
        return json.loads(data)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for reader in self._readers:
            reader.join(timeout=5)


def warm_up(server: Server, seeds: random.Random, connections: int) -> None:
    """Send every request kind on ``connections`` connections at once,
    a few rounds, so each kind runs on every worker before timing."""
    conns = [server.connect() for _ in range(connections)]
    try:
        with ThreadPoolExecutor(max_workers=connections) as pool:
            for _ in range(WARM_ROUNDS):
                for kind, (path, _) in enumerate(KINDS):
                    bodies = [_body(kind, seeds.randrange(2**31))
                              for _ in conns]
                    statuses = list(pool.map(
                        lambda cb: _call(cb[0], "POST", path, cb[1])[0],
                        zip(conns, bodies)))
                    if any(s != 200 for s in statuses):
                        raise RuntimeError(f"warm-up {path} answered "
                                           f"{statuses}")
    finally:
        for conn in conns:
            conn.close()


def plan(seeds: random.Random, seconds: float) -> List[Tuple[float, int, int]]:
    """``(due offset s, kind, seed)`` per request: ``RATE_PER_S *
    seconds`` arrivals, evenly spaced, kinds cycling through the mix."""
    count = round(RATE_PER_S * seconds)
    return [(i / RATE_PER_S, i % len(KINDS), seeds.randrange(2**31))
            for i in range(count)]


def _send(server: Server, conn: Optional[http.client.HTTPConnection],
          op: Op, body: bytes, since: float
          ) -> Optional[http.client.HTTPConnection]:
    """Send ``op`` on ``conn`` (opened when ``None``) and time it from
    ``since``; returns the connection to reuse, ``None`` after an error."""
    try:
        if conn is None:
            conn = server.connect()
        op.status, op.body = _call(conn, "POST", KINDS[op.kind][0], body)
    except TimeoutError:
        op.error = "timeout"
    except (OSError, http.client.HTTPException):
        op.error = "connection_error"
    op.done = time.perf_counter()
    op.latency_ms = (op.done - since) * 1e3
    if op.error and conn is not None:
        conn.close()
        conn = None
    return conn


def _on_threads(client, connections: int) -> None:
    threads = [threading.Thread(target=client) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def drive(server: Server, schedule: List[Tuple[float, int, int]],
          connections: int) -> Tuple[List[Op], float]:
    """Send ``schedule`` open-loop over ``connections`` connections;
    returns the ops and the time from the first due time to the last
    response."""
    ops = [Op(kind=kind, seed=seed) for _, kind, seed in schedule]
    bodies = [_body(kind, seed) for _, kind, seed in schedule]
    cursor = iter(range(len(schedule)))
    lock = threading.Lock()
    t0 = time.perf_counter() + 0.05

    def client() -> None:
        conn: Optional[http.client.HTTPConnection] = None
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                break
            op, due = ops[i], t0 + schedule[i][0]
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
                op.lag_ms = (time.perf_counter() - due) * 1e3
            conn = _send(server, conn, op, bodies[i], due)
        if conn is not None:
            conn.close()

    _on_threads(client, connections)
    return ops, max(op.done for op in ops) - t0


def saturate(server: Server, seeds: random.Random, seconds: float,
             connections: int) -> Tuple[List[Op], float]:
    """Closed loop for ``seconds``: each connection sends the mix's next
    request, with a fresh seed, as soon as its last one is answered (at
    least one each).  Returns the ops and the time from the start to the
    last response."""
    ops: List[Op] = []
    lock = threading.Lock()
    start = time.perf_counter()
    end = start + seconds

    def client() -> None:
        conn: Optional[http.client.HTTPConnection] = None
        while True:
            with lock:
                op = Op(kind=len(ops) % len(KINDS),
                        seed=seeds.randrange(2**31))
                ops.append(op)
            body = _body(op.kind, op.seed)
            conn = _send(server, conn, op, body, time.perf_counter())
            if op.done >= end:
                break
        if conn is not None:
            conn.close()

    _on_threads(client, connections)
    return ops, max(op.done for op in ops) - start


def _results(op: Op, failures: Counter) -> Optional[List[Dict[str, Any]]]:
    """The result documents of one op, or ``None`` (failure counted)."""
    if op.error:
        failures[op.error] += 1
        return None
    if op.status != 200:
        failures[f"http_{op.status}"] += 1
        return None
    doc = json.loads(op.body)
    if KINDS[op.kind][0] == "/solve":
        return [doc["result"]]
    if not all(column["ok"] for column in doc["solvers"]):
        failures["compare_column"] += 1
        return None
    return [column["result"] for column in doc["solvers"]]


def _strip(result: Dict[str, Any]) -> str:
    return json.dumps({k: v for k, v in result.items()
                       if k != "wall_time_s"}, sort_keys=True)


def spot_check(graph_seed: int, sample: List[Served], trace: bool
               ) -> Tuple[List[int], List[Dict[str, float]], int]:
    """Re-solve served triples in-process, the way the server's workers
    do (serial executor).  Returns the ops whose result differs beyond
    ``wall_time_s`` and, when tracing, one replay row per coreset solve
    and the Hopcroft-Karp calls of one matching solve."""
    from replay import SOLVERS, count_kernel_calls, traced_solve
    from repro.solve import RunContext, load_graph, solve

    graph = load_graph(GRAPH_SPEC, rng=graph_seed)
    bad, rows = [], []
    for index, seed, served in sample:
        if trace and served["solver"] == SOLVERS.get(served["problem"]):
            local, row = traced_solve(graph, served["problem"], seed, K,
                                      "serial")
            rows.append(row)
        else:
            local = solve(graph, served["solver"],
                          RunContext(seed=seed, k=K, executor="serial"))
        if _strip(json.loads(json.dumps(local.to_dict()))) != _strip(served):
            bad.append(index)
    kernel_calls = count_kernel_calls(
        lambda: solve(graph, SOLVERS["matching"],
                      RunContext(seed=sample[0][1], k=K, executor="serial"))
    ) if trace else 0
    return bad, rows, kernel_calls


def _rejected(statz: Dict[str, Any]) -> int:
    return (statz["admission"]["rejected_total"]
            + statz["queue"]["rejected_queue_full"]
            + statz["queue"]["rejected_at_dispatch"]
            + statz["deadlines"]["expired_in_queue"]
            + statz["deadlines"]["expired_in_flight"]
            + statz["breaker"]["rejected"])


def boot(root: Path, env: Dict[str, str], graph_seed: int,
         seeds: random.Random, connections: int) -> Tuple[Server, float]:
    """A warmed server and its set-up time, from spawn."""
    start = time.perf_counter()
    server = Server(root, env, graph_seed)
    try:
        warm_up(server, seeds, connections)
    except BaseException:
        server.close()
        raise
    return server, time.perf_counter() - start


def load(server: Server, seeds: random.Random, seconds: float,
         connections: int) -> Tuple[List[Op], float, List[Op], float]:
    """The timed phase: open-loop segments, each followed by a closed-loop
    burst, so that both sample the whole run.  Returns the open-loop ops
    and their total length, and the burst ops and theirs."""
    burst_s = min(SATURATION_S, seconds / 10) / BURSTS
    segment_s = seconds / BURSTS - burst_s
    # Every open-loop request is planned before the first burst, whose
    # request count depends on the server's speed.
    schedules = [plan(seeds, segment_s) for _ in range(BURSTS)]
    ops: List[Op] = []
    bursts: List[Op] = []
    open_s = bursts_s = 0.0
    for schedule in schedules:
        more, took = drive(server, schedule, connections)
        ops += more
        open_s += took
        more, took = saturate(server, seeds, burst_s, connections)
        bursts += more
        bursts_s += took
    return ops, open_s, bursts, bursts_s


def run(root: Path, env: Dict[str, str], seed: int, seconds: float,
        setups: int, trace: bool) -> Dict[str, Any]:
    """Boot and time ``setups`` servers, half before the timed phase (the
    last of them is loaded) and half after, so that a slow spell of the
    host weighs on the median set-up only if it lasts the run; then
    summarize as the solve workloads do: end-to-end metrics, and with
    ``trace`` the per-layer ones."""
    seeds = random.Random(seed)
    graph_seed = seeds.randrange(2**31)
    connections = nproc()
    setup_s = []
    head = (setups - 1) // 2
    for _ in range(head):
        server, took = boot(root, env, graph_seed, seeds, connections)
        server.close()
        setup_s.append(took)
    server, took = boot(root, env, graph_seed, seeds, connections)
    setup_s.append(took)
    try:
        stats0, statz0 = server.get("/stats"), server.get("/statz")
        cpu0 = tree_cpu_s(server.proc.pid)
        ops, open_s, burst, burst_s = load(server, seeds, seconds,
                                           connections)
        cpu1 = tree_cpu_s(server.proc.pid)
        rss = tree_peak_rss_mb(server.proc.pid)
        stats1, statz1 = server.get("/stats"), server.get("/statz")
    finally:
        server.close()
    for _ in range(setups - 1 - head):
        extra, took = boot(root, env, graph_seed, seeds, connections)
        extra.close()
        setup_s.append(took)

    # Every op is checked; the open loop's alone feed the latencies and
    # the quality means (so those stay a function of the seed).
    failures: Counter = Counter()
    failed_ops = set()
    served: List[Served] = []
    ratios: Dict[str, List[float]] = {"matching": [], "vertex_cover": []}
    bits: List[int] = []
    solver_ms: List[float] = []
    overhead_ms: List[float] = []
    for index, op in enumerate(ops + burst):
        results = _results(op, failures)
        if results is None:
            failed_ops.add(index)
            continue
        checked = [(result, *check_result(result, N_VERTICES,
                                          matching_opt=PLANTED_OPT,
                                          cover_lower_bound=PLANTED_OPT))
                   for result in results]
        names = [name for _, failed, _ in checked for name in failed]
        if names:
            failures.update(names)
            failed_ops.add(index)
            continue
        served.extend((index, op.seed, result) for result, _, _ in checked)
        if index >= len(ops):
            continue
        for result, _, ratio in checked:
            solver_ms.append(result["wall_time_s"] * 1e3)
            if "total_bits" in result["stats"]:  # a coreset solve
                ratios[result["problem"]].append(ratio)
                bits.append(result["stats"]["total_bits"])
        if KINDS[op.kind][0] == "/solve":
            overhead_ms.append(op.latency_ms
                               - results[0]["wall_time_s"] * 1e3)
    sample = served[::max(1, len(served) // SPOT_CHECKS)]
    mismatched, rows, kernel_calls = spot_check(graph_seed, sample, trace)
    for index in mismatched:
        failures["determinism"] += 1
        failed_ops.add(index)

    done = [op for i, op in enumerate(ops) if i not in failed_ops]
    burst_done = sum(1 for i in range(len(ops), len(ops) + len(burst))
                     if i not in failed_ops)
    latencies = [op.latency_ms for op in done]
    lags = [op.lag_ms for op in ops if op.lag_ms is not None]
    # The planned request count is the reference: failures thin the
    # samples, never move the percentile.
    p90, q90 = tail_percentile(latencies, 0.90, len(ops))
    p99, q99 = tail_percentile(latencies, 0.99, len(ops))
    lag99, _ = tail_percentile(lags, 0.99)
    summary = {
        "attempted": len(ops) + len(burst),
        "failed": len(failed_ops),
        "failures": dict(failures),
        "lag_ms_p99": lag99,
        "notes": {"latency": {"n": len(latencies), "reference_n": len(ops),
                              "q90": q90, "q99": q99, "p99_ms": p99},
                  "saturation": {"requests": len(burst), "seconds": burst_s},
                  "setup_samples_s": setup_s, "spot_checked": len(sample)},
    }
    if not trace:
        summary["metrics"] = {
            "setup_s": statistics.median(setup_s),
            "latency_p50_ms": statistics.median(latencies),
            "latency_p90_ms": p90,
            "throughput_per_s": len(done) / open_s,
            "matching_ratio": statistics.fmean(ratios["matching"]),
            "cover_ratio": statistics.fmean(ratios["vertex_cover"]),
            "coreset_bits": statistics.fmean(bits),
            "peak_rss_mb": rss,
        }
        return summary
    from replay import layer_medians

    batcher0, batcher1 = stats0["batcher"], stats1["batcher"]
    hits = stats1["store"]["view_hits"] - stats0["store"]["view_hits"]
    created = (stats1["store"]["views_created"]
               - stats0["store"]["views_created"])
    summary["metrics"] = {
        **layer_medians(rows),
        "matching.kernel_calls": kernel_calls,
        "serve.solver_ms_p50": statistics.median(solver_ms),
        "serve.overhead_ms_p50": statistics.median(overhead_ms),
        "serve.capacity_per_s": burst_done / burst_s,
        "serve.batch_size_mean": (
            (batcher1["requests"] - batcher0["requests"])
            / (batcher1["batches"] - batcher0["batches"])),
        "serve.view_hit_ratio": hits / (hits + created) if hits + created
        else 0.0,
        "serve.cpu_ms_per_request": ((cpu1 - cpu0) * 1e3
                                     / (len(done) + burst_done)),
        "serve.pools_created": statz1["breaker"]["pools_created_total"],
        "serve.rejected": _rejected(statz1) - _rejected(statz0),
        "client.lag_ms_p99": lag99,
    }
    summary["notes"]["replayed_solves"] = len(rows)
    return summary
