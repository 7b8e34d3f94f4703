"""Tests for the remote executor: wire protocol, piece cache, and wiring.

Fault injection lives in test_remote_faults.py and the cross-backend
determinism torture suite in test_determinism.py; this file covers the
sunny-day contract — input-order results, lazy pool start, the
fetch-and-pin piece cache, external ``repro worker`` processes, and the
resolution plumbing (``resolve_executor`` / CLI / env).
"""

import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from chaos import boom, square, worker_pid
from repro.dist.executor import (
    UnpicklableTaskError,
    available_backends,
    resolve_executor,
)
from repro.dist.remote import (
    RemoteExecutor,
    RemotePieceCache,
    _FrameReader,
    _dump_task,
    _parse_address,
)

@pytest.fixture(autouse=True)
def no_chaos():
    """Chaos env must never leak into the sunny-day tests."""
    assert not any(k.startswith("REPRO_CHAOS") for k in os.environ), \
        "chaos environment leaked from another test"
    yield


def _executor(**kw):
    kw.setdefault("max_workers", 2)
    kw.setdefault("connect_timeout", 60)
    return RemoteExecutor(**kw)


# --------------------------------------------------------------------- #
# map semantics
# --------------------------------------------------------------------- #
class TestMap:
    def test_results_in_input_order(self, remote_executor):
        assert remote_executor.map(square, list(range(16))) == [
            x * x for x in range(16)
        ]

    def test_empty_task_list(self, remote_executor):
        assert remote_executor.map(square, []) == []

    def test_tasks_run_in_worker_processes(self, remote_executor):
        pids = set(remote_executor.map(worker_pid, range(8)))
        assert os.getpid() not in pids

    def test_singleton_map_runs_inline(self):
        with _executor() as ex:
            assert ex.map(square, [7]) == [49]
            assert ex._pool is None  # no fleet for one task
            assert ex.pools_created == 0

    def test_singleton_map_still_checks_pickling(self):
        with _executor() as ex:
            with pytest.raises(UnpicklableTaskError, match="not picklable"):
                ex.map(square, [lambda: None])

    def test_unpicklable_task_raises_before_shipping(self, remote_executor):
        with pytest.raises(UnpicklableTaskError, match="not picklable"):
            remote_executor.map(square, [1, lambda: None, 3])

    def test_task_exception_propagates(self, remote_executor):
        with pytest.raises(ValueError, match="exploded on purpose"):
            remote_executor.map(boom, [1, 2, 3])
        # A task error must not poison the pool.
        assert remote_executor.map(square, [4]) == [16]

    def test_pool_is_reused_across_barriers(self):
        with _executor() as ex:
            ex.map(square, range(8))
            pool = ex._pool
            assert pool is not None
            ex.map(square, range(8))
            assert ex._pool is pool
            assert ex.pools_created == 1

    def test_idle_gap_does_not_retire_workers(self):
        # Regression: an idle worker's heartbeats queue unread while its
        # handler thread waits for work, so silence must be measured from
        # task dispatch — an idle gap longer than the heartbeat window
        # between barriers must not falsely retire live workers.
        import time

        with _executor() as ex:
            assert ex.map(square, range(4)) == [x * x for x in range(4)]
            pool = ex._pool
            # The first barrier can finish on the first worker alone; wait
            # for the whole spawned fleet so a late join during the idle
            # gap is not mistaken for a respawn.
            assert pool.wait_for_workers(ex.spawn_workers, timeout=60)
            before = list(pool._workers)
            ex.heartbeat_window = 1.0  # shrink so the test stays fast
            time.sleep(2.0)  # idle strictly longer than the window
            assert ex.map(square, range(4)) == [x * x for x in range(4)]
            # A false retirement would drop (and kill) the original
            # _WorkerConn objects and respawn replacements.
            assert list(pool._workers) == before
            assert ex.pools_created == 1


# --------------------------------------------------------------------- #
# the piece cache
# --------------------------------------------------------------------- #
class TestPieceCache:
    def test_register_dedupes_by_content(self, tiny_graph):
        cache = RemotePieceCache(min_bytes=0)
        d1 = cache.register(tiny_graph)
        d2 = cache.register(tiny_graph)
        assert d1 == d2
        assert len(cache) == 1
        assert cache.stats()["store_hits"] == 1

    def test_small_graphs_ship_inline(self, tiny_graph):
        cache = RemotePieceCache(min_bytes=1 << 20)
        payload = _dump_task(square, tiny_graph, cache)
        assert len(cache) == 0  # below the threshold: plain pickle
        assert len(payload) > 100

    def test_repeated_barriers_ship_bytes_once(self):
        from repro.core.protocols import matching_coreset_protocol
        from repro.dist.coordinator import run_simultaneous
        from repro.graph.generators import bipartite_gnp
        from repro.graph.partition import random_k_partition

        g = bipartite_gnp(300, 300, 0.05, 1)
        part = random_k_partition(g, 4, 2)
        proto = matching_coreset_protocol()
        with _executor(cache_min_bytes=0) as ex:
            run_simultaneous(proto, part, rng=3, executor=ex)
            first = ex.piece_cache.stats()
            for rng in (4, 5, 6):
                run_simultaneous(proto, part, rng=rng, executor=ex)
            last = ex.piece_cache.stats()
        # Every task names the one graph and machines cut their own
        # pieces: later barriers re-register it (hits, no new stores or
        # bytes), and shipping is bounded by fetch-and-pin: the graph
        # crosses the wire at most once per worker, no matter how many
        # barriers run.
        assert last["pieces_stored"] == first["pieces_stored"] == 1
        assert last["store_hits"] > first["store_hits"]
        assert last["bytes_stored"] == first["bytes_stored"]
        assert last["fetches_served"] <= 1 * 2  # graphs × workers
        assert last["bytes_shipped"] <= 2 * last["bytes_stored"]

    @pytest.mark.parametrize("kind", ["explicit", "vertex"])
    def test_explicit_partitions_store_their_rows_once(self, kind):
        from repro.core.protocols import matching_coreset_protocol
        from repro.dist.coordinator import run_simultaneous
        from repro.graph.generators import bipartite_gnp
        from repro.graph.partition import (
            adversarial_degree_partition,
            random_vertex_partition,
        )

        g = bipartite_gnp(300, 300, 0.05, 1)
        part = (adversarial_degree_partition(g, 4) if kind == "explicit"
                else random_vertex_partition(g, 4, 2))
        proto = matching_coreset_protocol()
        stats = []
        with _executor(cache_min_bytes=0) as ex:
            for rng in (3, 4, 5):
                got = run_simultaneous(proto, part, rng=rng, executor=ex)
                want = run_simultaneous(proto, part, rng=rng,
                                        executor="serial")
                np.testing.assert_array_equal(got.output, want.output)
                stats.append(ex.piece_cache.stats())
        # Five payloads, the graph and each machine's rows, stored once:
        # later barriers hand out the same row recipes.
        first, last = stats[0], stats[-1]
        assert last["pieces_stored"] == first["pieces_stored"] == 1 + 4
        assert last["store_hits"] > first["store_hits"]
        assert last["bytes_stored"] == first["bytes_stored"]
        # The graph crosses once per worker and each machine's rows once.
        # A task names the graph before its rows, so a worker's pins
        # never evict the graph; rows a worker evicted may cross again,
        # never more than all of them per barrier.
        graph_bytes = len(pickle.dumps(g, pickle.HIGHEST_PROTOCOL))
        rows_bytes = first["bytes_stored"] - graph_bytes
        assert first["bytes_shipped"] <= 2 * graph_bytes + rows_bytes
        for before, after in zip(stats, stats[1:]):
            assert after["bytes_shipped"] - before["bytes_shipped"] \
                <= rows_bytes

    def test_repeated_solves_keep_one_graph(self):
        from repro.graph.edgelist import Graph
        from repro.solve import RunContext, solve
        from repro.solve.graphs import load_graph

        skewed = load_graph("skewed:n=4000", rng=1)
        graph = Graph(skewed.n_vertices, skewed.edges)
        stored = []
        with _executor() as ex:
            for seed in range(6):
                solve(graph, "vertex_cover.coreset",
                      RunContext(seed=seed, k=8, executor=ex))
                assert len(ex.piece_cache) == 1
                stored.append(ex.piece_cache.stats()["bytes_stored"])
            assert ex.piece_cache.stats()["store_hits"] > 0
        assert stored == [stored[0]] * 6

    def test_cache_keeps_a_few_graphs_and_the_barriers_own(self):
        from repro.dist import remote
        from repro.graph.edgelist import Graph

        cache = RemotePieceCache(min_bytes=0)
        graphs = [Graph(8, [(0, i)]) for i in range(1, 8)]
        cache.begin_barrier()
        digests = [cache.register(g) for g in graphs]
        # One barrier naming more graphs than the cache keeps: none go.
        assert len(cache) == len(graphs)
        cache.begin_barrier()
        assert cache.register(graphs[-1]) == digests[-1]
        cache.register(Graph(8, [(1, 2)]))
        assert len(cache) == remote._CACHED_PAYLOADS
        assert digests[-1] in cache._payloads  # named by this barrier

    def test_cached_run_matches_serial(self):
        from repro.core.protocols import matching_coreset_protocol
        from repro.dist.coordinator import run_simultaneous
        from repro.graph.generators import bipartite_gnp
        from repro.graph.partition import random_k_partition

        g = bipartite_gnp(300, 300, 0.05, 5)
        part = random_k_partition(g, 4, 6)
        proto = matching_coreset_protocol()
        serial = run_simultaneous(proto, part, rng=7)
        with _executor(cache_min_bytes=0) as ex:
            remote = run_simultaneous(proto, part, rng=7, executor=ex)
            assert ex.piece_cache.stats()["pieces_stored"] > 0
        np.testing.assert_array_equal(serial.output, remote.output)
        assert serial.total_bits == remote.total_bits


class TestShutdown:
    def test_close_joins_every_pool_thread(self):
        import threading
        import time

        # Other tests' executors (the shared remote_executor fixture) may
        # still be running.
        earlier = set(threading.enumerate())

        def pool_threads():
            return [t.name for t in threading.enumerate()
                    if t.name.startswith("repro-remote-")
                    and t not in earlier]

        for _ in range(2):
            with _executor() as ex:
                assert ex.map(square, range(6)) == [x * x for x in range(6)]
                assert pool_threads()
        deadline = time.monotonic() + 10
        while pool_threads() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert pool_threads() == []


# --------------------------------------------------------------------- #
# external workers (the `repro worker` CLI)
# --------------------------------------------------------------------- #
class TestExternalWorkers:
    def test_start_returns_address_before_any_worker(self):
        with _executor(spawn_workers=0) as ex:
            host, port = ex.start()
            assert host == "127.0.0.1" and port > 0
            assert ex.start() == (host, port)  # idempotent
            assert ex.n_workers == 0

    def test_externally_launched_workers_serve_barriers(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        with _executor(spawn_workers=0) as ex:
            host, port = ex.start()
            procs = [
                subprocess.Popen(
                    [sys.executable, "-m", "repro", "worker",
                     "--connect", f"{host}:{port}", "--tag", f"t{i}"],
                    env=env, stdout=subprocess.DEVNULL,
                )
                for i in range(2)
            ]
            try:
                assert ex.map(square, range(10)) == [
                    x * x for x in range(10)
                ]
            finally:
                pass  # close() below shuts the workers down
        for proc in procs:
            assert proc.wait(timeout=10) == 0  # clean shutdown frame

    def test_worker_launched_before_coordinator_retries_connect(
            self, unused_port):
        # Fleet scripts start workers and coordinator concurrently, so a
        # worker that dials in before the bind must retry, not die.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "worker",
             "--connect", f"127.0.0.1:{unused_port}"],
            env=env, stdout=subprocess.DEVNULL,
        )
        try:
            with _executor(max_workers=1, spawn_workers=0,
                           bind=f"127.0.0.1:{unused_port}") as ex:
                ex.start()
                assert ex.map(square, range(6)) == [
                    x * x for x in range(6)
                ]
        finally:
            assert proc.wait(timeout=10) == 0

    def test_first_barrier_starts_with_a_partial_fleet(self):
        # The first barrier waits for all max_workers of a fleet launched
        # by hand only within the connect window, then runs on whoever
        # came.
        import time

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        with _executor(spawn_workers=0, connect_timeout=3) as ex:
            host, port = ex.start()
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "worker",
                 "--connect", f"{host}:{port}"],
                env=env, stdout=subprocess.DEVNULL,
            )
            deadline = time.monotonic() + 60
            while ex.n_workers < 1 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert ex.map(square, range(6)) == [x * x for x in range(6)]
            assert ex.n_workers == 1 and not ex.degraded
        assert proc.wait(timeout=10) == 0

    def test_worker_cli_rejects_bad_address(self):
        from repro.cli import main

        assert main(["worker", "--connect", "nonsense"]) == 2

    def test_worker_cli_fails_fast_when_no_coordinator(self, unused_port,
                                                       monkeypatch):
        from repro.cli import main

        # The connect-retry grace window (workers may race the
        # coordinator's bind) is cut short so the failure is fast.
        monkeypatch.setenv("REPRO_REMOTE_CONNECT_TIMEOUT", "0.2")
        assert main(["worker", "--connect",
                     f"127.0.0.1:{unused_port}"]) == 1


@pytest.fixture
def unused_port():
    import socket

    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


# --------------------------------------------------------------------- #
# resolution plumbing
# --------------------------------------------------------------------- #
class TestResolution:
    def test_remote_is_a_registered_backend(self):
        assert "remote" in available_backends()

    def test_resolve_by_name(self):
        ex = resolve_executor("remote", workers=2)
        try:
            assert isinstance(ex, RemoteExecutor)
            assert ex.max_workers == 2
        finally:
            ex.close()

    def test_resolve_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "remote")
        monkeypatch.setenv("REPRO_WORKERS", "2")
        ex = resolve_executor()
        try:
            assert isinstance(ex, RemoteExecutor)
            assert ex.max_workers == 2
        finally:
            ex.close()

    def test_unknown_backend_error_lists_remote(self):
        with pytest.raises(ValueError, match="remote"):
            resolve_executor("gpu")

    def test_cli_accepts_executor_remote(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["solve", "planted:n=100", "--solver", "coreset",
             "--problem", "matching", "--executor", "remote"])
        assert args.executor == "remote"

    def test_env_knobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_REMOTE_BIND", "127.0.0.1:7341")
        monkeypatch.setenv("REPRO_REMOTE_SPAWN", "0")
        monkeypatch.setenv("REPRO_REMOTE_TIMEOUT", "7.5")
        monkeypatch.setenv("REPRO_REMOTE_RETRIES", "5")
        monkeypatch.setenv("REPRO_REMOTE_CONNECT_TIMEOUT", "3")
        ex = RemoteExecutor(max_workers=2)
        try:
            assert ex.bind_address == ("127.0.0.1", 7341)
            assert ex.spawn_workers == 0
            assert ex.task_timeout == 7.5
            assert ex.retries == 5
            assert ex.connect_timeout == 3.0
        finally:
            ex.close()

    @pytest.mark.parametrize("kw", [
        dict(spawn_workers=-1),
        dict(task_timeout=0),
        dict(retries=-1),
        dict(bind="no-port-here"),
    ])
    def test_bad_configuration_rejected(self, kw):
        with pytest.raises(ValueError):
            RemoteExecutor(max_workers=2, **kw)


# --------------------------------------------------------------------- #
# protocol plumbing details
# --------------------------------------------------------------------- #
class TestWireProtocol:
    def test_parse_address(self):
        assert _parse_address("127.0.0.1:80") == ("127.0.0.1", 80)
        assert _parse_address("[::1]:80") == ("[::1]", 80)
        with pytest.raises(ValueError, match="HOST:PORT"):
            _parse_address("8080")
        with pytest.raises(ValueError, match="HOST:PORT"):
            _parse_address("host:eighty")

    def test_frame_reader_reassembles_split_frames(self):
        import pickle
        import socket
        import struct

        a, b = socket.socketpair()
        try:
            payload = pickle.dumps(("hello", {"pid": 1}))
            data = struct.pack("!I", len(payload)) + payload
            reader = _FrameReader(b)
            a.sendall(data[:3])  # split inside the length prefix
            assert reader.recv(timeout=0.05) is None
            a.sendall(data[3:])
            assert reader.recv(timeout=1.0) == ("hello", {"pid": 1})
        finally:
            a.close()
            b.close()

    def test_frame_reader_raises_on_eof(self):
        import socket

        a, b = socket.socketpair()
        reader = _FrameReader(b)
        a.close()
        try:
            with pytest.raises(ConnectionError):
                reader.recv(timeout=1.0)
        finally:
            b.close()
