"""Tests for the shared-memory graph segments behind both graph pins — a
``ProcessExecutor``'s resident graph and ``repro serve``'s registered
graphs: :class:`ResidentPin`, its :class:`ResidentGraph` reference, and
the partition reuse contract the server's view cache relies on.

The load-bearing properties: a graph rebuilt from its segment is
bit-identical to the pinned one, of the same type, on both segment
backends; the segment is gone after close() or collection (no leaks, even
when a worker crashes mid-barrier); and a partition built once can be
handed to several solvers without changing any result.
"""

import gc
import os

import numpy as np
import pytest

from repro.dist.executor import ProcessExecutor, WorkerPoolBrokenError
from repro.dist.shm import SHM_BACKEND_ENV, ResidentPin
from repro.graph.bipartite import BipartiteGraph
from repro.graph.capacity import (
    CapacitatedBipartiteGraph,
    WeightedBipartiteGraph,
)
from repro.graph.edgelist import Graph
from repro.graph.generators import bipartite_gnp, gnp
from repro.graph.partition import random_k_partition
from repro.graph.weights import WeightedGraph

BACKENDS = ["shm", "mmap"]
KINDS = ["plain", "bipartite", "weighted", "weighted_bipartite",
         "capacitated"]


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


def _graph_of(kind):
    rng = np.random.default_rng(2)
    if kind == "plain":
        return gnp(40, 0.2, 3)
    bip = bipartite_gnp(30, 40, 0.2, 1)
    if kind == "bipartite":
        return bip
    w = rng.uniform(1.0, 5.0, size=bip.n_edges)
    if kind == "weighted":
        return WeightedGraph(70, bip.edges, w)
    if kind == "weighted_bipartite":
        return WeightedBipartiteGraph(30, 40, bip.edges, w)
    return CapacitatedBipartiteGraph(30, 40, bip.edges, w,
                                     rng.integers(1, 5, size=30))


def _open_then_crash(ref):
    ref.open()
    os._exit(17)


@pytest.fixture(params=BACKENDS)
def backend(request, monkeypatch):
    """Each segment backend, selected the way a deployment selects it."""
    monkeypatch.setenv(SHM_BACKEND_ENV, request.param)
    return request.param


# --------------------------------------------------------------------- #
# round trip
# --------------------------------------------------------------------- #
class TestRoundTrip:
    @pytest.mark.parametrize("kind", KINDS)
    def test_every_graph_type_round_trips(self, backend, kind):
        g = _graph_of(kind)
        pin = ResidentPin(g)
        try:
            assert pin.ref.backend == backend
            view = pin.ref.open()
            assert type(view) is type(g)
            assert view == g
            assert view.n_vertices == g.n_vertices
            assert view.edges.dtype == np.int64
            assert not view.edges.flags.writeable
            if isinstance(g, BipartiteGraph):
                assert (view.n_left, view.n_right) == (g.n_left, g.n_right)
            if kind in ("weighted", "weighted_bipartite", "capacitated"):
                np.testing.assert_array_equal(view.weights, g.weights)
            if kind == "capacitated":
                np.testing.assert_array_equal(view.capacities, g.capacities)
            del view
        finally:
            pin.close()

    def test_from_canonical_edges_round_trip(self):
        g = gnp(30, 0.2, 2)
        clone = Graph.from_canonical_edges(g.n_vertices, g.edges)
        assert clone == g
        assert clone.edges is g.edges  # genuinely zero-copy

    def test_resident_graph_opens_once_per_process(self):
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


# --------------------------------------------------------------------- #
# lifecycle and cleanup
# --------------------------------------------------------------------- #
class TestPinLifecycle:
    def test_close_removes_segments(self, backend):
        pin = ResidentPin(_graph_of("capacitated"))
        ref = pin.ref
        assert _segment_exists(backend, ref.name)
        pin.close()
        assert not _segment_exists(backend, ref.name)

    def test_close_is_idempotent(self):
        pin = ResidentPin(_graph_of("plain"))
        pin.close()
        pin.close()
        assert not _segment_exists(pin.ref.backend, pin.ref.name)

    def test_collected_pin_unlinks(self, backend):
        pin = ResidentPin(_graph_of("weighted"))
        ref = pin.ref
        del pin
        gc.collect()
        assert not _segment_exists(backend, ref.name)

    @pytest.mark.parametrize("kind", ["plain", "weighted"])
    def test_empty_graphs_need_no_segment(self, kind):
        g = (Graph(6) if kind == "plain"
             else WeightedGraph(6, np.zeros((0, 2), np.int64), []))
        pin = ResidentPin(g)
        assert pin.ref.n_edges == 0 and pin.ref.name == ""
        view = pin.ref.open()
        assert type(view) is type(g) and view == g
        assert view.edges.shape == (0, 2)
        pin.close()

    def test_worker_crash_does_not_leak_segments(self):
        """A worker dying mid-barrier, with the graph attached, must not
        stop the executor's close() from reclaiming the segment."""
        with ProcessExecutor(max_workers=2) as ex:
            ref = ex.resident(_graph_of("weighted_bipartite"))
            assert _segment_exists(ref.backend, ref.name)
            with pytest.raises(WorkerPoolBrokenError):
                ex.map(_open_then_crash, [ref, ref])
        assert not _segment_exists(ref.backend, ref.name)


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
