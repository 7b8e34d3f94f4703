"""Tests for the shared-memory edge store behind ``repro serve``'s graph
pinning: SharedEdgeStore, its handles, and the partition reuse contract
the server's view cache relies on.

The load-bearing properties: a round-tripped array is bit-identical to
what was stored, segments are gone after close() (no leaks, even when a
worker crashes mid-barrier), and a partition built once can be handed to
several solvers without changing any result.
"""

import os

import numpy as np
import pytest

from repro.dist.executor import ProcessExecutor, WorkerPoolBrokenError
from repro.dist.shm import (
    SharedEdgeStore,
    SharedStoreClosedError,
    open_edges,
    open_graph,
)
from repro.graph.bipartite import BipartiteGraph
from repro.graph.edgelist import Graph
from repro.graph.generators import bipartite_gnp, gnp
from repro.graph.partition import random_k_partition

BACKENDS = ["shm", "mmap"]


def _segment_exists(backend: str, name: str) -> bool:
    if backend == "mmap":
        return os.path.exists(name)
    from multiprocessing import shared_memory

    try:
        seg = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    seg.close()
    return True


def _crash_worker(task):
    os._exit(17)


# --------------------------------------------------------------------- #
# round trip
# --------------------------------------------------------------------- #
class TestRoundTrip:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_put_get_bit_identical(self, backend):
        rng = np.random.default_rng(0)
        arrays = [
            rng.integers(0, 50, size=(m, 2)).astype(np.int64)
            for m in (0, 1, 7, 500)
        ]
        with SharedEdgeStore(backend=backend) as store:
            handles = store.put_arrays(arrays, n_vertices=50)
            for arr, handle in zip(arrays, handles):
                att = open_edges(handle)
                assert att.array.dtype == np.int64
                np.testing.assert_array_equal(att.array, arr)
                assert not att.array.flags.writeable
                att.release()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_graph_view_reconstruction(self, backend):
        g = gnp(40, 0.2, 3)
        with SharedEdgeStore(backend=backend) as store:
            handle = store.put_graph(g)
            rebuilt, att = open_graph(handle)
            assert rebuilt == g
            assert type(rebuilt) is Graph
            att.release()

    def test_bipartite_metadata_survives(self):
        g = bipartite_gnp(20, 30, 0.2, 5)
        with SharedEdgeStore() as store:
            handle = store.put_graph(g)
            rebuilt, att = open_graph(handle)
            assert isinstance(rebuilt, BipartiteGraph)
            assert (rebuilt.n_left, rebuilt.n_right) == (20, 30)
            assert rebuilt == g
            att.release()

    def test_from_canonical_edges_round_trip(self):
        g = gnp(30, 0.2, 2)
        clone = Graph.from_canonical_edges(g.n_vertices, g.edges)
        assert clone == g
        assert clone.edges is g.edges  # genuinely zero-copy

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("kind", ["weighted", "weighted_bipartite",
                                      "capacitated"])
    def test_weighted_types_round_trip(self, backend, kind):
        from repro.graph.capacity import (
            CapacitatedBipartiteGraph,
            WeightedBipartiteGraph,
        )
        from repro.graph.weights import WeightedGraph

        rng = np.random.default_rng(2)
        bip = bipartite_gnp(30, 40, 0.2, 1)
        w = rng.uniform(1.0, 5.0, size=bip.n_edges)
        g = {
            "weighted": lambda: WeightedGraph(70, bip.edges, w),
            "weighted_bipartite": lambda: WeightedBipartiteGraph(
                30, 40, bip.edges, w),
            "capacitated": lambda: CapacitatedBipartiteGraph(
                30, 40, bip.edges, w, rng.integers(1, 5, size=30)),
        }[kind]()
        with SharedEdgeStore(backend=backend) as store:
            view, att = open_graph(store.put_graph(g))
            assert type(view) is type(g)
            assert view == g
            np.testing.assert_array_equal(view.weights, g.weights)
            if kind == "capacitated":
                np.testing.assert_array_equal(view.capacities, g.capacities)
            att.release()
            del view

    def test_resident_graph_opens_once_per_process(self):
        from repro.dist.shm import ResidentPin

        g = bipartite_gnp(20, 20, 0.3, 4)
        pin = ResidentPin(g)
        try:
            first = pin.ref.open()
            assert first == g and pin.ref.open() is first
            other = ResidentPin(g)
            try:
                assert other.ref.open() is not first  # a new token
            finally:
                other.close()
        finally:
            pin.close()

    def test_rejects_bad_shapes(self):
        with SharedEdgeStore() as store:
            with pytest.raises(ValueError, match="shape"):
                store.put_arrays([np.zeros((3, 3), dtype=np.int64)])


# --------------------------------------------------------------------- #
# lifecycle and cleanup
# --------------------------------------------------------------------- #
class TestStoreLifecycle:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_close_removes_segments(self, backend):
        store = SharedEdgeStore(backend=backend)
        handle = store.put_edges(np.arange(20, dtype=np.int64).reshape(10, 2))
        assert _segment_exists(backend, handle.name)
        store.close()
        assert not _segment_exists(backend, handle.name)

    def test_close_is_idempotent(self):
        store = SharedEdgeStore()
        store.put_edges(np.zeros((2, 2), dtype=np.int64))
        store.close()
        store.close()
        assert store.closed

    def test_put_after_close_raises(self):
        store = SharedEdgeStore()
        store.close()
        with pytest.raises(SharedStoreClosedError, match="closed"):
            store.put_edges(np.zeros((2, 2), dtype=np.int64))

    def test_context_manager(self):
        with SharedEdgeStore() as store:
            handle = store.put_edges(
                np.arange(8, dtype=np.int64).reshape(4, 2))
            assert _segment_exists(store.backend, handle.name)
        assert store.closed
        assert not _segment_exists(store.backend, handle.name)

    def test_empty_arrays_need_no_segment(self):
        with SharedEdgeStore() as store:
            handle = store.put_edges(np.zeros((0, 2), dtype=np.int64))
            assert handle.n_rows == 0 and handle.name == ""
            att = open_edges(handle)
            assert att.array.shape == (0, 2)
            att.release()

    def test_worker_crash_does_not_leak_segments(self):
        """A worker dying mid-barrier must not stop close() from
        reclaiming the segment."""
        store = SharedEdgeStore()
        handle = store.put_edges(
            np.arange(40, dtype=np.int64).reshape(20, 2))
        with ProcessExecutor(max_workers=2) as ex:
            with pytest.raises(WorkerPoolBrokenError):
                ex.map(_crash_worker, [handle, handle])
        store.close()
        assert not _segment_exists(store.backend, handle.name)


# --------------------------------------------------------------------- #
# partition reuse
# --------------------------------------------------------------------- #
class TestEngineDeterminism:
    def test_pinned_view_reused_across_solvers(self):
        """The serving pattern: build one partition, feed it to *different*
        solvers sequentially via ``solve(..., partition=part)``.  Each run
        is bit-identical to its counterpart that partitions for itself —
        the contract ``repro serve``'s partition-view cache depends on."""
        from repro.solve import RunContext, solve

        g = bipartite_gnp(50, 50, 0.1, 3)
        seed, k = 6, 4
        ctx = RunContext(seed=seed, k=k)
        part = random_k_partition(g, k, ctx.generators(2)[0])
        for name in ("matching.coreset", "vertex_cover.coreset"):
            want = solve(g, name, ctx)
            got = solve(g, name, ctx, partition=part)
            assert got.value == want.value
            np.testing.assert_array_equal(got.certificate, want.certificate)
            assert got.stats == want.stats
