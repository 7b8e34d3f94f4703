"""Tests for the 2-round MapReduce algorithms."""

import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from oracles import _explicit_shuffle

from repro.core.mapreduce_algos import (
    _round_two_partition,
    default_machine_count,
    mapreduce_matching,
    mapreduce_vertex_cover,
)
from repro.cover import is_vertex_cover, konig_cover
from repro.dist.executor import ProcessExecutor
from repro.graph.edgelist import Graph
from repro.graph.generators import bipartite_gnp, gnp, skewed_bipartite
from repro.matching.api import matching_number
from repro.matching.verify import is_matching
from repro.solve import RunContext, solve


class TestDefaults:
    def test_sqrt_n_machines(self):
        assert default_machine_count(10000) == 100
        assert default_machine_count(1) == 1
        assert default_machine_count(0) == 1


class TestMapReduceMatching:
    def test_two_rounds(self, rng):
        g = bipartite_gnp(150, 150, 0.02, rng)
        res = mapreduce_matching(g, rng=rng)
        assert res.job.n_rounds == 2

    def test_one_round_when_prerandomized(self, rng):
        g = bipartite_gnp(150, 150, 0.02, rng)
        res = mapreduce_matching(g, rng=rng, assume_random_input=True)
        assert res.job.n_rounds == 1

    def test_valid_matching_and_ratio(self, rng):
        g = bipartite_gnp(200, 200, 0.015, rng)
        res = mapreduce_matching(g, rng=rng)
        assert is_matching(g, res.matching)
        assert res.matching.shape[0] >= matching_number(g) / 9

    def test_general_graph(self, rng):
        g = gnp(120, 0.04, rng)
        res = mapreduce_matching(g, k=6, rng=rng)
        assert is_matching(g, res.matching)

    def test_memory_cap_enforced(self, rng):
        from repro.dist.mapreduce import MemoryCapExceeded

        g = bipartite_gnp(100, 100, 0.2, rng)
        with pytest.raises(MemoryCapExceeded):
            mapreduce_matching(g, k=2, rng=rng, memory_cap_edges=10)

    def test_explicit_k(self, rng):
        g = bipartite_gnp(100, 100, 0.02, rng)
        res = mapreduce_matching(g, k=7, rng=rng)
        assert res.k == 7

    def test_bad_placement_name(self, rng):
        g = bipartite_gnp(20, 20, 0.1, rng)
        for fn in (mapreduce_matching, mapreduce_vertex_cover):
            for assume_random_input in (False, True):
                with pytest.raises(ValueError, match="placement 'weird'"):
                    fn(g, rng=rng, initial_placement="weird",
                       assume_random_input=assume_random_input)


class TestMapReduceVertexCover:
    def test_two_rounds_and_feasible(self, rng):
        g = skewed_bipartite(200, 200, 10, 80, 0.01, rng)
        res = mapreduce_vertex_cover(g, rng=rng)
        assert res.job.n_rounds == 2
        assert is_vertex_cover(g, res.cover)

    def test_one_round_when_prerandomized(self, rng):
        g = skewed_bipartite(150, 150, 8, 60, 0.01, rng)
        res = mapreduce_vertex_cover(g, rng=rng, assume_random_input=True)
        assert res.job.n_rounds == 1
        assert is_vertex_cover(g, res.cover)

    def test_ratio_within_log(self, rng):
        import math

        g = skewed_bipartite(250, 250, 12, 100, 0.008, rng)
        res = mapreduce_vertex_cover(g, k=10, rng=rng)
        opt = konig_cover(g).shape[0]
        assert res.cover.shape[0] <= 4 * math.log2(g.n_vertices) * max(1, opt)

    def test_reproducible(self, rng):
        import numpy as np

        g = skewed_bipartite(100, 100, 5, 40, 0.02, rng)
        a = mapreduce_vertex_cover(g, k=5, rng=33)
        b = mapreduce_vertex_cover(g, k=5, rng=33)
        np.testing.assert_array_equal(a.cover, b.cover)


# --------------------------------------------------------------------- #
# round 1 as a seeded draw, against the explicit shuffle
# --------------------------------------------------------------------- #
PLACEMENTS = ["contiguous", "random", "prerandomized"]


@st.composite
def shuffle_cases(draw):
    """A graph with 0-60 edges, k from 1 to past m, a seed, a placement."""
    n = draw(st.integers(2, 30))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=60))
    graph = Graph(n, np.asarray(pairs, dtype=np.int64).reshape(-1, 2))
    k = draw(st.integers(1, graph.n_edges + 3))
    return graph, k, draw(st.integers(0, 2**32 - 1)), \
        draw(st.sampled_from(PLACEMENTS))


class TestShuffleDraw:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(shuffle_cases())
    @example((Graph(5), 3, 1, "contiguous"))
    @example((Graph(5), 1, 2, "random"))
    @example((Graph(5), 2, 3, "prerandomized"))
    @example((gnp(20, 0.3, 1), 4, 5, "contiguous"))
    @example((gnp(20, 0.3, 1), 3, 6, "random"))
    @example((gnp(20, 0.3, 1), 2, 7, "prerandomized"))
    def test_round_two_pieces_equal_the_explicit_shuffle(self, case):
        graph, k, seed, placement = case
        pre = placement == "prerandomized"
        how = "random" if pre else placement
        part, sources = _round_two_partition(
            graph, k, np.random.default_rng(seed), how, pre)
        placed = _explicit_shuffle(graph.edges, k,
                                   np.random.default_rng(seed), how, False)
        shuffled = _explicit_shuffle(graph.edges, k,
                                     np.random.default_rng(seed), how, not pre)
        # A pool worker's copy carries the draw alone and redraws the keys.
        shipped = pickle.loads(pickle.dumps(part))
        assert "assignment" not in shipped.__dict__
        for j in range(k):
            want = Graph(graph.n_vertices, shuffled[j]).edges
            np.testing.assert_array_equal(part.piece(j).edges, want)
            np.testing.assert_array_equal(shipped.piece(j).edges, want)
            if sources is not None:
                np.testing.assert_array_equal(graph.edges[sources == j],
                                              placed[j])


# --------------------------------------------------------------------- #
# outputs pinned per seed
# --------------------------------------------------------------------- #
PINNED_GRAPHS = {"bipartite": bipartite_gnp(60, 60, 0.08, 7),
                 "general": gnp(90, 0.06, 3)}
PINNED_PARAMS = {"contiguous": {"initial_placement": "contiguous"},
                 "random": {"initial_placement": "random"},
                 "prerandomized": {"assume_random_input": True}}
#: (graph, solver, placement, seed) at k = 5 -> (the first 16 hex digits of
#: the certificate's int64 SHA-256, n_rounds, total_shuffled_edges,
#: peak_machine_edges), as the explicit-shuffle engine computed them.
PINNED = {
    ("bipartite", "matching.mapreduce", "contiguous", 0): ("3d4613dc4ba79fce", 2, 357, 164),
    ("bipartite", "matching.mapreduce", "contiguous", 1): ("2cd807759d1b78a4", 2, 362, 159),
    ("bipartite", "matching.mapreduce", "random", 0): ("8bd0f9c92ee4ea11", 2, 355, 161),
    ("bipartite", "matching.mapreduce", "random", 1): ("ee87a37078db9e11", 2, 367, 157),
    ("bipartite", "matching.mapreduce", "prerandomized", 0): ("6875a01842157308", 1, 137, 164),
    ("bipartite", "matching.mapreduce", "prerandomized", 1): ("bcdaa411441d657a", 1, 126, 161),
    ("bipartite", "vertex_cover.mapreduce", "contiguous", 0): ("9745816e9da7610e", 2, 464, 289),
    ("bipartite", "vertex_cover.mapreduce", "contiguous", 1): ("9745816e9da7610e", 2, 468, 289),
    ("bipartite", "vertex_cover.mapreduce", "random", 0): ("9745816e9da7610e", 2, 463, 289),
    ("bipartite", "vertex_cover.mapreduce", "random", 1): ("9745816e9da7610e", 2, 470, 289),
    ("bipartite", "vertex_cover.mapreduce", "prerandomized", 0): ("9745816e9da7610e", 1, 219, 289),
    ("bipartite", "vertex_cover.mapreduce", "prerandomized", 1): ("9745816e9da7610e", 1, 240, 289),
    ("general", "matching.mapreduce", "contiguous", 0): ("98b2940798bca9d3", 2, 288, 130),
    ("general", "matching.mapreduce", "contiguous", 1): ("7c85a2df3ca42a68", 2, 300, 128),
    ("general", "matching.mapreduce", "random", 0): ("5287919a8fd4ede3", 2, 284, 129),
    ("general", "matching.mapreduce", "random", 1): ("48cf1daa45a5fbc6", 2, 295, 125),
    ("general", "matching.mapreduce", "prerandomized", 0): ("7e2674d8f9300506", 1, 109, 133),
    ("general", "matching.mapreduce", "prerandomized", 1): ("414532ff84c29a94", 1, 96, 124),
    ("general", "vertex_cover.mapreduce", "contiguous", 0): ("7b78bb9d47bc98bc", 2, 382, 237),
    ("general", "vertex_cover.mapreduce", "contiguous", 1): ("7eeaef8adab7192b", 2, 383, 237),
    ("general", "vertex_cover.mapreduce", "random", 0): ("7b78bb9d47bc98bc", 2, 379, 237),
    ("general", "vertex_cover.mapreduce", "random", 1): ("7eeaef8adab7192b", 2, 378, 237),
    ("general", "vertex_cover.mapreduce", "prerandomized", 0): ("7b78bb9d47bc98bc", 1, 179, 237),
    ("general", "vertex_cover.mapreduce", "prerandomized", 1): ("7eeaef8adab7192b", 1, 195, 237),
}


@pytest.fixture(scope="module")
def process_executor():
    with ProcessExecutor(max_workers=2) as ex:
        yield ex


@pytest.mark.parametrize("backend", ["serial", "processes"])
def test_outputs_pinned_per_seed(backend, request):
    executor = request.getfixturevalue("process_executor") \
        if backend == "processes" else "serial"
    for (graph, solver, placement, seed), pin in PINNED.items():
        res = solve(PINNED_GRAPHS[graph], solver,
                    RunContext(seed=seed, k=5, executor=executor),
                    **PINNED_PARAMS[placement])
        cert = np.ascontiguousarray(res.certificate, dtype=np.int64)
        got = (hashlib.sha256(cert.tobytes()).hexdigest()[:16],
               res.stats["n_rounds"], res.stats["total_shuffled_edges"],
               res.stats["peak_machine_edges"])
        assert got == pin, (graph, solver, placement, seed)
