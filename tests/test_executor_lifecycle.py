"""Tests for the executor lifecycle: persistent pools, close semantics,
broken-pool recovery, and pool-reuse determinism.

The load-bearing additions of the pool-lifecycle work (docs/PARALLELISM.md
§6): an executor's pool is created lazily, *reused* across map() calls,
released by an idempotent close(), and a closed executor refuses work the
same way on every backend.  Reuse must be invisible to outputs: two
consecutive runs on one persistent executor are bit-identical to two fresh
serial runs.
"""

import os

import numpy as np
import pytest

from repro.dist.coordinator import run_simultaneous
from repro.dist.executor import (
    Executor,
    ExecutorClosedError,
    ProcessExecutor,
    SerialExecutor,
    WorkerPoolBrokenError,
    resolve_executor,
)
from repro.dist.remote import RemoteExecutor
from repro.graph.generators import bipartite_gnp, gnp
from repro.graph.partition import random_k_partition

ALL_EXECUTORS = [SerialExecutor, ProcessExecutor]


def _remote():
    return RemoteExecutor(max_workers=2, connect_timeout=60)


#: One factory per backend, remote included: the shared lifecycle contract
#: is asserted against all three through the same parametrized tests.
LIFECYCLE_FACTORIES = [
    pytest.param(SerialExecutor, id="serial"),
    pytest.param(lambda: ProcessExecutor(max_workers=2), id="processes"),
    pytest.param(_remote, id="remote"),
]


def _square(x):
    return x * x


def _pid(_):
    return os.getpid()


def _crash(flag):
    if flag:
        os._exit(13)
    return flag


# --------------------------------------------------------------------- #
# close / context-manager semantics
# --------------------------------------------------------------------- #
class TestCloseSemantics:
    @pytest.mark.parametrize("cls", ALL_EXECUTORS)
    def test_close_is_idempotent(self, cls):
        ex = cls()
        ex.map(_square, [1, 2, 3])
        ex.close()
        ex.close()  # second close must be a no-op, not an error
        assert ex.closed

    @pytest.mark.parametrize("cls", ALL_EXECUTORS)
    def test_map_after_close_raises(self, cls):
        ex = cls()
        ex.close()
        with pytest.raises(ExecutorClosedError, match="closed"):
            ex.map(_square, [1])

    @pytest.mark.parametrize("cls", ALL_EXECUTORS)
    def test_context_manager_closes(self, cls):
        with cls() as ex:
            assert ex.map(_square, [2, 3]) == [4, 9]
            assert not ex.closed
        assert ex.closed
        with pytest.raises(ExecutorClosedError):
            ex.map(_square, [1])

    def test_entering_a_closed_executor_raises(self):
        ex = ProcessExecutor(max_workers=2)
        ex.close()
        with pytest.raises(ExecutorClosedError):
            with ex:
                pass  # pragma: no cover - must not be reached


# --------------------------------------------------------------------- #
# the shared lifecycle contract, all three backends (remote included)
# --------------------------------------------------------------------- #
class TestLifecycleContract:
    """PR 4's contract, asserted uniformly: double close is a no-op,
    submit-after-close raises, the context manager closes, and a fresh
    executor has created zero pools."""

    @pytest.mark.parametrize("factory", LIFECYCLE_FACTORIES)
    def test_double_close_is_a_noop(self, factory):
        ex = factory()
        ex.map(_square, [1, 2, 3])
        ex.close()
        ex.close()
        ex.close()  # any number of closes: still just closed
        assert ex.closed

    @pytest.mark.parametrize("factory", LIFECYCLE_FACTORIES)
    def test_submit_after_close_raises(self, factory):
        ex = factory()
        ex.close()
        with pytest.raises(ExecutorClosedError, match="closed"):
            ex.map(_square, [1])
        with pytest.raises(ExecutorClosedError):
            ex.map(_square, [])  # even an empty barrier is refused

    @pytest.mark.parametrize("factory", LIFECYCLE_FACTORIES)
    def test_close_without_any_map_is_fine(self, factory):
        ex = factory()
        ex.close()
        assert ex.closed

    @pytest.mark.parametrize("factory", LIFECYCLE_FACTORIES)
    def test_context_manager_closes(self, factory):
        with factory() as ex:
            assert ex.map(_square, [2, 3]) == [4, 9]
        assert ex.closed

    @pytest.mark.parametrize("factory", LIFECYCLE_FACTORIES[1:])
    def test_pool_counter_starts_at_zero_and_sticks_at_one(self, factory):
        ex = factory()
        try:
            assert ex.pools_created == 0  # lazy: no pool before first map
            ex.map(_square, range(4))
            assert ex.pools_created == 1
            ex.map(_square, range(4))
            ex.map(_square, range(4))
            assert ex.pools_created == 1  # persistent, not per-barrier
        finally:
            ex.close()


# --------------------------------------------------------------------- #
# pool-replacement counters (the observable half of discard/replace)
# --------------------------------------------------------------------- #
class TestPoolReplacementCounter:
    def test_process_counter_increments_on_replacement(self):
        with ProcessExecutor(max_workers=2) as ex:
            ex.map(_square, range(4))
            assert ex.pools_created == 1
            with pytest.raises(WorkerPoolBrokenError):
                ex.map(_crash, [True, False, True, False])
            assert ex.pools_created == 1  # discard alone creates nothing
            assert ex.map(_square, [1, 2, 3]) == [1, 4, 9]
            assert ex.pools_created == 2  # the replacement pool

    def test_singleton_maps_never_bump_the_counter(self):
        with ProcessExecutor(max_workers=2) as ex:
            ex.map(_square, [5])
            assert ex.pools_created == 0


# --------------------------------------------------------------------- #
# pool persistence
# --------------------------------------------------------------------- #
class TestPoolPersistence:
    def test_process_pool_is_reused_across_maps(self):
        with ProcessExecutor(max_workers=2) as ex:
            first = set(ex.map(_pid, range(8)))
            pool = ex._pool
            second = set(ex.map(_pid, range(8)))
            assert ex._pool is pool  # same pool object served both calls
        # At least one worker process served both maps (the pool may spawn
        # workers on demand, so full PID-set equality is not guaranteed).
        assert first & second
        assert os.getpid() not in first | second

    def test_singleton_map_does_not_spin_up_pool(self):
        with ProcessExecutor(max_workers=2) as ex:
            assert ex.map(_square, [3]) == [9]
            assert ex._pool is None

    def test_broken_pool_is_discarded_and_replaced(self):
        with ProcessExecutor(max_workers=2) as ex:
            with pytest.raises(WorkerPoolBrokenError, match="died"):
                ex.map(_crash, [True, False, True, False])
            # The next barrier transparently gets a fresh pool.
            assert ex.map(_square, [1, 2, 3]) == [1, 4, 9]


# --------------------------------------------------------------------- #
# pool-reuse determinism
# --------------------------------------------------------------------- #
class TestPoolReuseDeterminism:
    def test_two_runs_on_one_pool_match_two_fresh_serial_runs(self):
        from repro.core.protocols import matching_coreset_protocol

        g = bipartite_gnp(60, 60, 0.08, 7)
        part = random_k_partition(g, 4, 8)
        proto = matching_coreset_protocol()

        serial_a = run_simultaneous(proto, part, 9, executor="serial")
        serial_b = run_simultaneous(proto, part, 10, executor="serial")
        with ProcessExecutor(max_workers=2) as ex:
            pooled_a = run_simultaneous(proto, part, 9, executor=ex)
            pooled_b = run_simultaneous(proto, part, 10, executor=ex)
        np.testing.assert_array_equal(serial_a.output, pooled_a.output)
        np.testing.assert_array_equal(serial_b.output, pooled_b.output)
        assert serial_a.ledger.summary() == pooled_a.ledger.summary()
        assert serial_b.ledger.summary() == pooled_b.ledger.summary()

    def test_consecutive_barriers_share_one_pool(self):
        """Consecutive barriers on one executor run on the same persistent
        pool, and each stays bit-identical to serial."""
        from repro.core.mapreduce_algos import mapreduce_vertex_cover
        from repro.core.protocols import vertex_cover_coreset_protocol

        g = gnp(70, 0.1, 5)
        part = random_k_partition(g, 3, 6)
        proto = vertex_cover_coreset_protocol(k=3)
        serial_run = run_simultaneous(proto, part, 7, executor="serial")
        serial_job = mapreduce_vertex_cover(g, k=3, rng=8, executor="serial")

        with ProcessExecutor(max_workers=2) as ex:
            pooled_run = run_simultaneous(proto, part, 7, executor=ex)
            pool = ex._pool
            assert pool is not None
            pooled_job = mapreduce_vertex_cover(g, k=3, rng=8, executor=ex)
            assert ex._pool is pool  # the second barrier reused the first's
        np.testing.assert_array_equal(serial_run.output, pooled_run.output)
        np.testing.assert_array_equal(serial_job.cover, pooled_job.cover)


# --------------------------------------------------------------------- #
# engine ownership: resolved executors are closed, instances are not
# --------------------------------------------------------------------- #
class TestOwnership:
    def test_run_simultaneous_leaves_instances_open(self):
        from repro.core.protocols import matching_coreset_protocol

        g = bipartite_gnp(40, 40, 0.1, 2)
        part = random_k_partition(g, 3, 4)
        with ProcessExecutor(max_workers=2) as ex:
            run_simultaneous(matching_coreset_protocol(), part, 5,
                             executor=ex)
            assert not ex.closed  # engine must not close a caller's pool
            run_simultaneous(matching_coreset_protocol(), part, 5,
                             executor=ex)

    def test_mapreduce_spares_caller_instances(self):
        from repro.core.mapreduce_algos import mapreduce_matching

        g = bipartite_gnp(20, 20, 0.2, 1)
        with ProcessExecutor(max_workers=2) as ex:
            mapreduce_matching(g, k=2, rng=0, executor=ex)
            assert not ex.closed
            mapreduce_matching(g, k=2, rng=0, executor=ex)

    def test_run_simultaneous_closes_resolved_executor(self, monkeypatch):
        from repro.core.protocols import matching_coreset_protocol

        created = []
        original = resolve_executor

        def tracking_resolve(spec=None, workers=None):
            ex = original(spec, workers)
            created.append(ex)
            return ex

        monkeypatch.setattr("repro.dist.coordinator.resolve_executor",
                            tracking_resolve)
        part = random_k_partition(bipartite_gnp(20, 20, 0.2, 1), 2, 0)
        run_simultaneous(matching_coreset_protocol(), part, 1,
                         executor="processes")
        assert len(created) == 1 and created[0].closed

    def test_run_trials_closes_resolved_executor(self, monkeypatch):
        from repro.experiments.harness import run_trials

        created = []
        original = resolve_executor

        def tracking_resolve(spec=None, workers=None):
            ex = original(spec, workers)
            created.append(ex)
            return ex

        monkeypatch.setattr("repro.experiments.harness.resolve_executor",
                            tracking_resolve)
        run_trials(_uniform_trial, 4, seed=5, executor="processes")
        assert created and all(ex.closed for ex in created)


def _uniform_trial(s):
    gen = np.random.default_rng(s)
    return {"x": float(gen.uniform())}
