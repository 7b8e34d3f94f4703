"""Fault injection against the remote executor (driven by tests/chaos.py).

The claims under test are the tentpole's robustness story: a worker killed
mid-round is retried on a replacement and the run still matches serial
bit-for-bit; a hung worker trips the per-task timeout and the task moves
on; exhausting the retry budget surfaces a clean ExecutorError; zero
connected workers degrades to the ``processes`` backend with a warning
instead of hanging; and none of it leaks into later barriers.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from chaos import boom, chaos, square
from repro.core.protocols import matching_coreset_protocol
from repro.dist.coordinator import run_simultaneous
from repro.dist.executor import (
    ExecutorError,
    WorkerPoolBrokenError,
)
from repro.dist.remote import (
    RemoteDegradedWarning,
    RemoteExecutor,
    RemoteTaskError,
)
from repro.graph.generators import planted_matching_gnp
from repro.graph.partition import random_k_partition


def _worker_env():
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_CHAOS")}
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    return env


def _launch_worker(host, port, env):
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "worker",
         "--connect", f"{host}:{port}"],
        env=env, stdout=subprocess.DEVNULL,
    )


@pytest.fixture(scope="module")
def workload():
    graph, _ = planted_matching_gnp(800, 800, p=3.0 / 1600, rng=0)
    part = random_k_partition(graph, k=6, rng=1)
    serial = run_simultaneous(matching_coreset_protocol(), part, rng=2)
    return part, serial


class TestKilledWorker:
    def test_kill_mid_round_is_retried_and_bit_identical(self, tmp_path,
                                                         workload):
        part, serial = workload
        with chaos(tmp_path, kill=True):
            with RemoteExecutor(max_workers=2, connect_timeout=60,
                                retries=3) as ex:
                remote = run_simultaneous(matching_coreset_protocol(),
                                          part, rng=2, executor=ex)
        np.testing.assert_array_equal(serial.output, remote.output)
        assert serial.total_bits == remote.total_bits
        for a, b in zip(serial.messages, remote.messages):
            np.testing.assert_array_equal(a.edges, b.edges)

    def test_kill_on_later_task_is_retried(self, tmp_path):
        with chaos(tmp_path, kill=True, after=3):
            with RemoteExecutor(max_workers=2, connect_timeout=60,
                                retries=3) as ex:
                assert ex.map(square, range(12)) == [
                    x * x for x in range(12)
                ]

    def test_retries_exhausted_raises_remote_task_error(self, tmp_path):
        # No latch: every worker (and every respawn) kills itself, so the
        # single task burns through its whole attempt budget.
        with chaos(tmp_path, kill=True, latch=False):
            with RemoteExecutor(max_workers=1, connect_timeout=60,
                                retries=1) as ex:
                with pytest.raises(RemoteTaskError, match="retries"):
                    ex.map(square, [1, 2])

    def test_broken_pool_is_discarded_and_replaced(self):
        # A connect-only fleet (spawn_workers=0) cannot respawn: when its
        # only worker dies, the pool is definitively broken — the path a
        # spawned pool never takes (it replaces its own casualties).
        ex = RemoteExecutor(max_workers=1, spawn_workers=0,
                            connect_timeout=2, retries=8)
        try:
            host, port = ex.start()
            env = _worker_env()
            env["REPRO_CHAOS_KILL"] = "1"  # no latch: dies on first task
            doomed = _launch_worker(host, port, env)
            with pytest.raises(WorkerPoolBrokenError, match="discarded"):
                ex.map(square, [1, 2, 3])
            doomed.wait(timeout=10)
            assert ex._pool is None
            # The next barrier transparently gets a fresh pool; give it a
            # healthy worker and it succeeds.
            host, port = ex.start()
            clean = _launch_worker(host, port, _worker_env())
            assert ex.map(square, [1, 2, 3]) == [1, 4, 9]
            assert ex.pools_created == 2
        finally:
            ex.close()
        assert clean.wait(timeout=10) == 0


class TestHungWorker:
    def test_hang_trips_timeout_and_run_completes(self, tmp_path, workload):
        part, serial = workload
        with chaos(tmp_path, hang=True):
            with RemoteExecutor(max_workers=2, connect_timeout=60,
                                retries=3, task_timeout=2.0) as ex:
                remote = run_simultaneous(matching_coreset_protocol(),
                                          part, rng=2, executor=ex)
        np.testing.assert_array_equal(serial.output, remote.output)

    def test_all_hang_exhausts_retries(self, tmp_path):
        with chaos(tmp_path, hang=True, latch=False):
            with RemoteExecutor(max_workers=1, connect_timeout=60,
                                retries=1, task_timeout=0.5) as ex:
                with pytest.raises(ExecutorError):
                    ex.map(square, [1, 2])

    def test_slow_worker_without_timeout_just_finishes(self, tmp_path):
        # Slowness alone is not a fault: heartbeats keep the worker alive
        # and with no task_timeout nothing is reassigned.
        with chaos(tmp_path, slow_ms=300):
            with RemoteExecutor(max_workers=2, connect_timeout=60) as ex:
                assert ex.map(square, range(6)) == [x * x for x in range(6)]


class TestDegradation:
    def test_zero_workers_degrades_with_warning(self, workload):
        part, serial = workload
        with pytest.warns(RemoteDegradedWarning, match="degrading"):
            with RemoteExecutor(max_workers=2, spawn_workers=0,
                                connect_timeout=0.5) as ex:
                remote = run_simultaneous(matching_coreset_protocol(),
                                          part, rng=2, executor=ex)
                assert ex.degraded
        np.testing.assert_array_equal(serial.output, remote.output)

    def test_degrading_first_barrier_pins_the_graph(self, workload):
        # The graph reference is resolved after the pool: a first barrier
        # that degrades hands its tasks the fallback's pinned segment,
        # not one pickled copy of the graph per task.
        from repro.dist.shm import ResidentGraph

        part, serial = workload
        with pytest.warns(RemoteDegradedWarning, match="degrading"):
            with RemoteExecutor(max_workers=2, spawn_workers=0,
                                connect_timeout=0.5) as ex:
                assert isinstance(ex.resident(part.graph), ResidentGraph)
                assert ex.degraded
                remote = run_simultaneous(matching_coreset_protocol(),
                                          part, rng=2, executor=ex)
        np.testing.assert_array_equal(serial.output, remote.output)

    def test_degraded_executor_stays_degraded(self):
        with pytest.warns(RemoteDegradedWarning):
            with RemoteExecutor(max_workers=2, spawn_workers=0,
                                connect_timeout=0.5) as ex:
                assert ex.map(square, range(4)) == [0, 1, 4, 9]
                # Later barriers reuse the fallback, no second wait.
                assert ex.map(square, range(4)) == [0, 1, 4, 9]
                assert ex.degraded
                # The fallback is observable, not silent: stats() carries
                # the event count and the substitute backend's own stats,
                # which is what `repro serve` surfaces on GET /statz.
                stats = ex.stats()
                assert stats["backend"] == "remote"
                assert stats["degraded"] is True
                assert stats["fallback_events"] == 1  # reused, not re-degraded
                assert stats["fallback"]["backend"] == "processes"

    def test_healthy_executor_reports_no_fallback(self, tmp_path):
        with RemoteExecutor(max_workers=2, connect_timeout=60) as ex:
            assert ex.map(square, range(4)) == [0, 1, 4, 9]
            stats = ex.stats()
            assert stats["degraded"] is False
            assert stats["fallback_events"] == 0
            assert stats["fallback"] is None


class TestTaskErrors:
    def test_task_exception_is_not_retried(self, tmp_path):
        with RemoteExecutor(max_workers=2, connect_timeout=60,
                            retries=3) as ex:
            with pytest.raises(ValueError, match="exploded"):
                ex.map(boom, [1, 2])
            # The workers survived the exception: same pool serves on.
            pool = ex._pool
            assert ex.map(square, range(4)) == [0, 1, 4, 9]
            assert ex._pool is pool
