"""Tests for repro.graph.partition."""

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.graph.bipartite import BipartiteGraph
from repro.graph.capacity import (
    CapacitatedBipartiteGraph,
    WeightedBipartiteGraph,
)
from repro.graph.edgelist import Graph
from repro.graph.generators import bipartite_gnp, gnp
from repro.graph.partition import (
    _DRAW_CHUNK,
    PartitionedGraph,
    _Draw,
    _fill_live,
    adversarial_degree_partition,
    partition_by_assignment,
    random_k_partition,
    shuffled_k_partition,
)
from repro.graph.validation import check_partition
from repro.graph.weights import WeightedGraph, has_edge_weights


class TestPartitionedGraph:
    def test_validates_assignment_shape(self):
        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="shape"):
            PartitionedGraph(g, 2, np.array([0]))

    def test_validates_machine_ids(self):
        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="machine ids"):
            PartitionedGraph(g, 2, np.array([0, 5]))

    def test_validates_k(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(ValueError):
            PartitionedGraph(g, 0, np.array([0]))

    def test_piece_index_range(self):
        g = Graph(2, [(0, 1)])
        p = PartitionedGraph(g, 2, np.array([1]))
        with pytest.raises(IndexError):
            p.piece(2)

    def test_pieces_partition_edges(self, rng):
        g = gnp(50, 0.2, rng)
        p = random_k_partition(g, 7, rng)
        sizes = p.piece_sizes()
        assert sizes.sum() == g.n_edges
        ok, msg = check_partition(p)
        assert ok, msg

    def test_pieces_keep_full_vertex_set(self, rng):
        g = gnp(30, 0.1, rng)
        p = random_k_partition(g, 4, rng)
        for piece in p.pieces():
            assert piece.n_vertices == g.n_vertices


class TestRandomKPartition:
    def test_k1_gives_whole_graph(self, rng):
        g = gnp(20, 0.3, rng)
        p = random_k_partition(g, 1, rng)
        assert p.piece(0) == g

    def test_balanced_in_expectation(self, rng):
        g = gnp(120, 0.5, rng)  # ~3570 edges
        k = 6
        p = random_k_partition(g, k, rng)
        sizes = p.piece_sizes()
        expected = g.n_edges / k
        assert (np.abs(sizes - expected) < 0.3 * expected).all()

    def test_generator_stream_advances_as_before(self):
        g = gnp(80, 0.2, 3)
        given = np.random.default_rng(17)
        reference = np.random.default_rng(17)
        part = random_k_partition(g, 5, given)
        expected = reference.integers(0, 5, size=g.n_edges, dtype=np.int64)
        np.testing.assert_array_equal(part.assignment, expected)
        # The caller's next draws are the ones they would have been, a
        # 32-bit draw (which reads a carried half) among them.
        assert g.n_edges % 2
        assert _same_state(given.bit_generator, reference.bit_generator)
        assert given.random(dtype=np.float32) == reference.random(
            dtype=np.float32)
        assert given.random() == reference.random()

    def test_random_placement_advances_the_stream_as_before(self):
        """A random round-0 placement is drawn from the caller's
        generator after its route streams, as by ``integers``."""
        from repro.utils.rng import root_seed

        g = gnp(80, 0.2, 3)
        given = np.random.default_rng(17)
        reference = np.random.default_rng(17)
        _, sources = shuffled_k_partition(g, 5, given, placement="random")
        root_seed(reference)
        np.testing.assert_array_equal(
            sources, reference.integers(0, 5, size=g.n_edges))
        assert _same_state(given.bit_generator, reference.bit_generator)

    @pytest.mark.parametrize("seed", [
        7, np.random.SeedSequence(123).spawn(2)[0],
        np.random.default_rng(4),
    ])
    def test_pickles_as_a_recipe(self, seed):
        g = gnp(400, 0.05, 3)
        part = random_k_partition(g, 8, seed)
        sizes = part.piece_sizes()  # forces the draw
        copy = pickle.loads(pickle.dumps(part))
        np.testing.assert_array_equal(copy.assignment, part.assignment)
        np.testing.assert_array_equal(copy.piece_sizes(), sizes)
        graph_only = len(pickle.dumps(g))
        assert len(pickle.dumps(part)) < graph_only + 1024
        for i in range(8):
            recipe = pickle.loads(pickle.dumps(part.recipe(i)))
            assert len(pickle.dumps(part.recipe(i))) < 1024
            assert recipe.piece(g, i) == part.piece(i)

    def test_seeded_partition_draws_lazily(self):
        g = gnp(60, 0.2, 3)
        part = random_k_partition(g, 4, 11)
        assert "assignment" not in part.__dict__
        np.testing.assert_array_equal(
            part.assignment,
            np.random.default_rng(11).integers(0, 4, size=g.n_edges))

    def test_facade_stream_is_the_seed_sequence(self):
        """The facade passes the ``SeedSequence`` under its partition
        generator; both draw the same assignment."""
        from repro.solve.context import RunContext

        g = gnp(200, 0.1, 3)
        gen = RunContext(seed=123, k=8).generators(2)[0]
        seq = RunContext(seed=123, k=8).seed_sequences(2)[0]
        np.testing.assert_array_equal(
            random_k_partition(g, 8, seq).assignment,
            random_k_partition(g, 8, gen).assignment)

    def test_explicit_recipes_are_the_piece_rows(self):
        from repro.graph.partition import random_vertex_partition

        g = gnp(50, 0.2, 3)
        for part in (adversarial_degree_partition(g, 3),
                     random_vertex_partition(g, 3, 5)):
            for i in range(3):
                recipe = part.recipe(i)
                assert part.recipe(i) is recipe  # built once per machine
                assert not recipe.rows.flags.writeable
                copy = pickle.loads(pickle.dumps(recipe))
                assert copy.piece(g, i) == part.piece(i)
            with pytest.raises(IndexError):
                part.recipe(3)
        explicit = adversarial_degree_partition(g, 3)
        for i in range(3):
            np.testing.assert_array_equal(
                explicit.recipe(i).rows,
                np.flatnonzero(explicit.assignment == i))

    def test_reproducible(self, rng):
        g = gnp(30, 0.2, 3)
        a = random_k_partition(g, 4, 9).assignment
        b = random_k_partition(g, 4, 9).assignment
        np.testing.assert_array_equal(a, b)

    def test_bad_k_raises(self, rng):
        with pytest.raises(ValueError):
            random_k_partition(gnp(5, 0.5, rng), 0, rng)

    def test_each_edge_exactly_once(self, rng):
        """The defining property of a random k-partitioning."""
        g = gnp(40, 0.3, rng)
        p = random_k_partition(g, 5, rng)
        seen = np.zeros(g.n_edges, dtype=int)
        for i in range(p.k):
            seen[p.assignment == i] += 1
        assert (seen == 1).all()


# --------------------------------------------------------------------- #
# the machine-id draw reproduces Generator.integers from the raw stream
# --------------------------------------------------------------------- #
BIT_GENERATORS = ("PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937")
# 2**31 + 1 rejects about half its 32-bit draws, 3 * 2**30 a quarter;
# 2**32 is the largest k, whose ids are the draws themselves.
DRAW_KS = (1, 2, 3, 7, 8, 63, 2**31 + 1, 3 * 2**30, 2**32)
DRAW_MS = (0, 1, 7, _DRAW_CHUNK - 1, _DRAW_CHUNK + 1, 2 * _DRAW_CHUNK + 1)


def _state(name: str, seed: int, carried: bool, half: int) -> dict:
    """A state of bit generator ``name``: for the 64-bit generators, one
    carrying the 32-bit ``half`` when ``carried``; for MT19937, which
    carries none, one part-way through its block when ``carried``."""
    bit_generator = getattr(np.random, name)(seed)
    if name == "MT19937":
        bit_generator.random_raw(3 if carried else 0)
    else:
        state = bit_generator.state
        state["has_uint32"], state["uinteger"] = int(carried), half
        bit_generator.state = state
    return bit_generator.state


def _bit_generator(state: dict) -> np.random.BitGenerator:
    bit_generator = getattr(np.random, state["bit_generator"])()
    bit_generator.state = state
    return bit_generator


def _integers(state: dict, m: int, k: int) -> np.ndarray:
    return np.random.Generator(_bit_generator(state)).integers(
        0, k, size=m, dtype=np.int64)


def _same_state(a: np.random.BitGenerator, b: np.random.BitGenerator) -> bool:
    """Equal states, the carried half and the arrays some states hold
    included."""
    return pickle.dumps(a.state) == pickle.dumps(b.state)


def _assert_keys(draw: _Draw, m: int, k: int, want: np.ndarray) -> None:
    got = draw.keys(m, k)
    assert got.dtype == np.min_scalar_type(k - 1)
    np.testing.assert_array_equal(got, want)


def _assert_live(state: dict, m: int, k: int) -> None:
    """Drawn on a live bit generator, the ids are those of ``integers``,
    and the bit generator is left where ``integers`` leaves it."""
    reference = np.random.Generator(_bit_generator(state))
    want = reference.integers(0, k, size=m, dtype=np.int64)
    live = np.random.Generator(_bit_generator(state))
    got = np.empty(m, dtype=np.int64)
    _fill_live(live, got, k)
    np.testing.assert_array_equal(got, want)
    assert _same_state(live.bit_generator, reference.bit_generator)


class TestRawStreamDraw:
    @pytest.mark.parametrize("k", DRAW_KS)
    def test_every_generator_and_length(self, k):
        seq = np.random.SeedSequence(2024)
        for m in DRAW_MS:
            _assert_keys(_Draw(seq), m, k, np.random.default_rng(seq).integers(
                0, k, size=m, dtype=np.int64))
        for name in BIT_GENERATORS:
            for carried in (False, True):
                state = _state(name, 2024, carried, 0xDEADBEEF)
                for m in DRAW_MS:
                    _assert_keys(_Draw(state), m, k, _integers(state, m, k))
                    _assert_live(state, m, k)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.sampled_from(BIT_GENERATORS), st.integers(0, 2**63),
           st.booleans(), st.integers(0, 2**32 - 1),
           st.one_of(st.sampled_from(DRAW_KS), st.integers(1, 2**32)),
           st.one_of(st.sampled_from(DRAW_MS), st.integers(0, 300)))
    def test_state_form_equals_integers(self, name, seed, carried, half,
                                        k, m):
        state = _state(name, seed, carried, half)
        _assert_keys(_Draw(state), m, k, _integers(state, m, k))
        _assert_live(state, m, k)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 2**128),
           st.one_of(st.sampled_from(DRAW_KS), st.integers(1, 2**32)),
           st.one_of(st.sampled_from(DRAW_MS), st.integers(0, 300)))
    @example(0, 2**31 + 1, 2 * _DRAW_CHUNK + 1)
    def test_seed_form_equals_integers(self, entropy, k, m):
        seq = np.random.SeedSequence(entropy)
        want = np.random.default_rng(seq).integers(0, k, size=m,
                                                   dtype=np.int64)
        _assert_keys(_Draw(seq), m, k, want)

    def test_k_past_2_to_the_32_is_refused(self):
        g = gnp(20, 0.3, 1)
        k = 2**32 + 1
        live = np.random.default_rng(3)
        for make in (lambda: random_k_partition(g, k, 3),
                     lambda: random_k_partition(g, k, live),
                     lambda: shuffled_k_partition(g, k, 3),
                     lambda: _Draw(np.random.SeedSequence(3)).keys(5, k)):
            with pytest.raises(ValueError, match=r"2\*\*32"):
                make()


class TestExplicitPartitions:
    def test_partition_by_assignment_infers_k(self):
        g = Graph(4, [(0, 1), (2, 3), (0, 2)])
        p = partition_by_assignment(g, [0, 2, 1])
        assert p.k == 3

    def test_degree_partition_valid(self, rng):
        g = gnp(40, 0.2, rng)
        p = adversarial_degree_partition(g, 4)
        ok, msg = check_partition(p)
        assert ok, msg

    def test_degree_partition_empty_graph(self):
        p = adversarial_degree_partition(Graph(5), 3)
        assert p.piece_sizes().sum() == 0

    def test_degree_partition_is_deterministic(self, rng):
        g = gnp(30, 0.2, 5)
        a = adversarial_degree_partition(g, 4).assignment
        b = adversarial_degree_partition(g, 4).assignment
        np.testing.assert_array_equal(a, b)


# --------------------------------------------------------------------- #
# subgraphs and pieces keep the graph's type and per-edge data
# --------------------------------------------------------------------- #
def _weighted_graph() -> WeightedGraph:
    g = gnp(60, 0.2, 1)
    weights = np.random.default_rng(1).uniform(0.5, 9.0, g.n_edges)
    return WeightedGraph(g.n_vertices, g.edges, weights)


def _weighted_bipartite() -> WeightedBipartiteGraph:
    g = bipartite_gnp(25, 35, 0.3, 2)
    weights = np.random.default_rng(2).uniform(0.5, 9.0, g.n_edges)
    return WeightedBipartiteGraph(g.n_left, g.n_right, g.edges, weights)


def _capacitated_bipartite() -> CapacitatedBipartiteGraph:
    g = _weighted_bipartite()
    capacities = np.random.default_rng(3).integers(1, 4, g.n_left)
    return CapacitatedBipartiteGraph(g.n_left, g.n_right, g.edges, g.weights,
                                     capacities)


GRAPH_TYPES = {
    "Graph": lambda: gnp(60, 0.2, 1),
    "BipartiteGraph": lambda: bipartite_gnp(25, 35, 0.3, 2),
    "WeightedGraph": _weighted_graph,
    "WeightedBipartiteGraph": _weighted_bipartite,
    "CapacitatedBipartiteGraph": _capacitated_bipartite,
}


def _contents(g: Graph, rows=slice(None)) -> list:
    """Type, vertex count, edges, sides, weights and capacities of ``g``,
    the per-edge arrays cut to ``rows``."""
    out = [type(g), g.n_vertices, g.edges[rows]]
    if isinstance(g, BipartiteGraph):
        out.append((g.n_left, g.n_right))
    if has_edge_weights(g):
        out.append(g.weights[rows])
    if isinstance(g, CapacitatedBipartiteGraph):
        out.append(g.capacities)
    return out


def _assert_same(a: list, b: list) -> None:
    assert len(a) == len(b) and a[:2] == b[:2]
    for x, y in zip(a[2:], b[2:]):
        assert np.asarray(x).dtype == np.asarray(y).dtype
        np.testing.assert_array_equal(x, y)


@pytest.mark.parametrize("kind", list(GRAPH_TYPES))
def test_subgraphs_and_pieces_keep_type_and_edge_data(kind):
    g = GRAPH_TYPES[kind]()
    assert type(g).__name__ == kind
    rng = np.random.default_rng(4)

    mask = rng.random(g.n_edges) < 0.4
    _assert_same(_contents(g.subgraph_from_mask(mask)),
                 _contents(g, np.flatnonzero(mask)))
    none = np.zeros(0, np.int64)
    _assert_same(_contents(g.subgraph_from_mask(np.zeros(g.n_edges, bool))),
                 _contents(g, none))

    rows = rng.permutation(g.n_edges)[: g.n_edges // 3]
    assert (np.diff(rows) < 0).any()
    for indices in (rows, np.sort(rows), none):
        _assert_same(_contents(g.subgraph_from_indices(indices)),
                     _contents(g, np.sort(indices)))

    # k = 300 takes the 16-bit sort key and leaves some machines empty.
    for k in (1, 5, 300):
        part = random_k_partition(g, k, 11)
        for i in range(k):
            _assert_same(_contents(part.piece(i)),
                         _contents(g.subgraph_from_mask(part.assignment == i)))
        if k == 1:
            _assert_same(_contents(part.piece(0)), _contents(g))
        if k == 300:
            assert (part.piece_sizes() == 0).any()

    empty_middle = partition_by_assignment(g, rng.choice([0, 2], g.n_edges), 3)
    assert empty_middle.piece(1).n_edges == 0
    for i in range(3):
        _assert_same(_contents(empty_middle.piece(i)), _contents(
            g.subgraph_from_mask(empty_middle.assignment == i)))


def test_pickled_partition_leaves_bucket_order_behind():
    """``repro serve`` pickles its cached partitions into remote tasks: the
    grouping built by ``piece()`` must not ride along."""
    part = random_k_partition(gnp(200, 0.2, 3), 4, 5)
    before = len(pickle.dumps(part))
    pieces = list(part.pieces())
    assert len(pickle.dumps(part)) == before
    clone = pickle.loads(pickle.dumps(part))
    for i, piece in enumerate(pieces):
        _assert_same(_contents(clone.piece(i)), _contents(piece))
