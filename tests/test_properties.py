"""Hypothesis property-based tests on the core data structures and the
paper's structural invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.graph.bipartite import BipartiteGraph
from repro.graph.edgelist import Graph
from repro.graph.partition import random_k_partition
from repro.graph.validation import check_graph, check_partition
from repro.utils.arrays import edge_keys, isin_mask, sorted_unique_edges

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# --------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------- #
@st.composite
def graphs(draw, max_n=30, max_m=80):
    n = draw(st.integers(min_value=2, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=max_m))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1)
            ),
            min_size=m,
            max_size=m,
        )
    )
    return Graph(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2))


@st.composite
def bipartite_graphs(draw, max_side=20, max_m=60, min_side=1):
    nl = draw(st.integers(min_side, max_side))
    nr = draw(st.integers(min_side, max_side))
    if not (nl and nr):
        return BipartiteGraph(nl, nr)
    m = draw(st.integers(0, max_m))
    left = draw(st.lists(st.integers(0, nl - 1), min_size=m, max_size=m))
    right = draw(st.lists(st.integers(0, nr - 1), min_size=m, max_size=m))
    return BipartiteGraph.from_pairs(nl, nr, left, right)


@st.composite
def raw_edge_lists(draw, max_n=30, max_m=120):
    """``(n, eu, ev)`` with self-loops and repeated edges allowed: the scan
    runs on permuted, possibly non-canonical endpoint arrays."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=max_m))
    e = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return n, np.ascontiguousarray(e[:, 0]), np.ascontiguousarray(e[:, 1])


@st.composite
def rounds_graphs(draw):
    """Canonical graphs at 2 to 3 edges per vertex: ``greedy_maximal_
    matching`` runs the greedy rounds on them, and the rounds do most of
    the work."""
    n = draw(st.integers(min_value=7, max_value=40))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    m = draw(st.integers(2 * n, 3 * n))
    chosen = draw(st.permutations(pairs))[:m]
    return Graph(n, np.asarray(chosen, dtype=np.int64))


def _columns(g):
    """``(n, eu, ev)`` of a graph's canonical edge array."""
    e = g.edges
    return (g.n_vertices, np.ascontiguousarray(e[:, 0]),
            np.ascontiguousarray(e[:, 1]))


# --------------------------------------------------------------------- #
# graph substrate invariants
# --------------------------------------------------------------------- #
@SETTINGS
@given(graphs())
def test_graph_construction_invariants(g):
    ok, msg = check_graph(g)
    assert ok, msg
    assert int(g.degrees.sum()) == 2 * g.n_edges


@SETTINGS
@given(graphs())
def test_dedupe_idempotent(g):
    once = sorted_unique_edges(g.edges, g.n_vertices)
    twice = sorted_unique_edges(once, g.n_vertices)
    np.testing.assert_array_equal(once, twice)


@SETTINGS
@given(graphs())
def test_adjacency_roundtrip(g):
    """Edges reconstructed from CSR equal the original edge set."""
    rebuilt = []
    for v in range(g.n_vertices):
        for u in g.neighbors(v).tolist():
            if v < u:
                rebuilt.append((v, u))
    rebuilt_arr = np.asarray(sorted(rebuilt), dtype=np.int64).reshape(-1, 2)
    keys_a = set(edge_keys(g.edges, g.n_vertices).tolist()) if g.n_edges else set()
    keys_b = set(
        edge_keys(rebuilt_arr, g.n_vertices).tolist()
    ) if rebuilt_arr.size else set()
    assert keys_a == keys_b


@SETTINGS
@given(graphs(), st.integers(1, 6), st.integers(0, 2**31 - 1))
def test_partition_reassembly(g, k, seed):
    part = random_k_partition(g, k, seed)
    ok, msg = check_partition(part)
    assert ok, msg


@SETTINGS
@given(graphs())
def test_union_is_idempotent(g):
    assert g.union(g) == g


@SETTINGS
@given(graphs())
def test_without_all_vertices_empties(g):
    h = g.without_vertices(np.arange(g.n_vertices))
    assert h.n_edges == 0


# --------------------------------------------------------------------- #
# matching invariants
# --------------------------------------------------------------------- #
@SETTINGS
@given(bipartite_graphs())
def test_hk_equals_augmenting(g):
    from oracles import augmenting_path_matching
    from repro.matching.hopcroft_karp import hopcroft_karp
    from repro.matching.verify import is_matching

    a = hopcroft_karp(g)
    b = augmenting_path_matching(g)
    assert is_matching(g, a)
    assert a.shape[0] == b.shape[0]


@SETTINGS
@given(raw_edge_lists(), st.integers(min_value=1, max_value=16))
def test_sequential_scan_equals_baseline_scan(case, block):
    """The blocked greedy scan is edge for edge the one-edge-at-a-time
    scan.  Small blocks put many boundaries, where the vectorized
    prefilter reads a stale ``taken``, inside one input."""
    from unittest import mock

    from oracles import _baseline_scan
    from repro.matching import maximal

    n, eu, ev = case
    with mock.patch.object(maximal, "_SCAN_BLOCK", block):
        got = maximal._sequential_scan(n, eu, ev)
    np.testing.assert_array_equal(got, _baseline_scan(n, eu, ev))


@SETTINGS
@given(st.one_of(graphs(), rounds_graphs()),
       st.integers(min_value=1, max_value=16))
def test_greedy_input_order_equals_baseline_scan(g, block):
    from unittest import mock

    from oracles import _baseline_scan
    from repro.matching import maximal

    with mock.patch.object(maximal, "_SCAN_BLOCK", block):
        got = maximal.greedy_maximal_matching(g, order="input")
    e = g.edges
    np.testing.assert_array_equal(
        got, _baseline_scan(g.n_vertices, e[:, 0], e[:, 1]))


@SETTINGS
@given(st.one_of(raw_edge_lists(), rounds_graphs().map(_columns)))
def test_rounds_then_scan_equals_baseline_scan(case):
    """The greedy rounds hand the scan's matching back row for row, in
    the scan's order, whether they finish it or hand off to the scan."""
    from oracles import _baseline_scan
    from repro.matching import maximal

    n, eu, ev = case
    np.testing.assert_array_equal(maximal._rounds_then_scan(n, eu, ev),
                                  _baseline_scan(n, eu, ev))


@SETTINGS
@given(raw_edge_lists(max_n=40, max_m=200))
def test_canonical_edges_equal_baseline(case):
    """Graph's one-sort canonicalization builds the array the earlier
    ``np.unique`` version built."""
    from oracles import _baseline_graph_edges

    n, eu, ev = case
    raw = np.stack([eu, ev], axis=1)
    want = _baseline_graph_edges(raw, n)
    np.testing.assert_array_equal(sorted_unique_edges(raw, n), want)
    np.testing.assert_array_equal(Graph(n, raw).edges, want)


@st.composite
def matching_candidates(draw):
    """A graph and a candidate edge set: rows of the graph, non-edges,
    repeated vertices, self-loops and out-of-range ids all occur."""
    g = draw(graphs(max_n=20, max_m=40))
    n = g.n_vertices
    rows = draw(st.lists(st.one_of(
        st.sampled_from(g.edges.tolist()) if g.n_edges
        else st.nothing(),
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        st.tuples(st.integers(-1, n), st.integers(-1, n)),
    ), max_size=6))
    return g, np.asarray(rows, dtype=np.int64).reshape(-1, 2)


@SETTINGS
@given(matching_candidates())
def test_is_matching_equals_baseline(case):
    from oracles import _baseline_is_matching
    from repro.matching.verify import is_matching

    g, candidate = case
    assert is_matching(g, candidate) == _baseline_is_matching(g, candidate)


# --------------------------------------------------------------------- #
# the vertex-cover certificate
# --------------------------------------------------------------------- #
def _assert_cover_verdict(g, cover):
    from oracles import _baseline_uncovered_edges
    from repro.cover.verify import is_vertex_cover, uncovered_edges

    want = _baseline_uncovered_edges(g, cover)
    got = uncovered_edges(g, cover)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want)
    assert is_vertex_cover(g, cover) is (want.shape[0] == 0)


def _minimal_cover(g):
    """A cover from which no vertex can be dropped: every vertex, then
    each vertex removed in turn while the rest still cover every edge."""
    cover = set(range(g.n_vertices))
    edges = g.edges.tolist()
    for x in range(g.n_vertices):
        rest = cover - {x}
        if all(u in rest or v in rest for u, v in edges):
            cover = rest
    return np.asarray(sorted(cover), dtype=np.int64)


@st.composite
def cover_candidates(draw):
    """A graph, possibly edgeless, and a candidate cover: random ids with
    repeats, the empty cover included."""
    g = draw(graphs())
    cover = draw(st.lists(st.integers(0, g.n_vertices - 1),
                          max_size=2 * g.n_vertices))
    return g, np.asarray(cover, dtype=np.int64)


@SETTINGS
@given(cover_candidates())
@example((Graph(4), np.zeros(0, dtype=np.int64)))
@example((Graph(4), np.array([2, 2, 0])))
@example((Graph(3, [(0, 1), (1, 2)]), np.array([1, 1])))
def test_cover_verifier_equals_per_edge_oracle(case):
    _assert_cover_verdict(*case)


@SETTINGS
@given(graphs(), st.data())
def test_cover_verifier_rejects_a_minimal_cover_less_one_vertex(g, data):
    """A minimal cover passes; without any one of its vertices some edge
    is left uncovered, and the verifier must say so."""
    from repro.cover.verify import is_vertex_cover

    cover = _minimal_cover(g)
    _assert_cover_verdict(g, cover)
    assert is_vertex_cover(g, cover)
    if cover.size:
        short = np.delete(cover, data.draw(st.integers(0, cover.size - 1)))
        _assert_cover_verdict(g, short)
        assert not is_vertex_cover(g, short)


@st.composite
def out_of_range_covers(draw):
    """A graph, possibly edgeless, and a cover holding one id outside
    ``[0, n)`` among valid ones."""
    g, cover = draw(cover_candidates())
    n = g.n_vertices
    bad = draw(st.sampled_from([-1, n, n + 7, -(2**40)]))
    at = draw(st.integers(0, cover.size))
    return g, np.insert(cover, at, bad)


@SETTINGS
@given(out_of_range_covers())
@example((Graph(3), np.array([3])))
def test_cover_verifier_rejects_out_of_range_ids(case):
    from repro.cover.verify import is_vertex_cover, uncovered_edges

    for check in (is_vertex_cover, uncovered_edges):
        with pytest.raises(ValueError, match="out of range"):
            check(*case)


@SETTINGS
@given(graphs(), st.integers(0, 2**31 - 1))
def test_cover_mask_equals_unique(g, seed):
    """Vertex sets read off a mask over n are ``np.unique``'s arrays."""
    from repro.cover.two_approx import matching_based_cover
    from repro.matching.maximal import greedy_maximal_matching

    matching = greedy_maximal_matching(g, order="random", rng=seed)
    cover = matching_based_cover(g, matching=matching)
    want = (np.unique(matching.ravel()) if matching.size
            else np.zeros(0, dtype=np.int64))
    np.testing.assert_array_equal(cover, want)
    assert cover.dtype == want.dtype


@SETTINGS
@given(bipartite_graphs(min_side=0))
@example(BipartiteGraph(0, 3))
@example(BipartiteGraph(4, 0))
def test_hk_mates_match_networkx(g):
    """Differential test of the matching kernel against networkx, empty
    sides included: same size, int64 mutually inverse mates, real edges."""
    from conftest import nx_matching_number
    from repro.matching.hopcroft_karp import hopcroft_karp_mates

    ml, mr = hopcroft_karp_mates(g)
    assert ml.dtype == mr.dtype == np.int64
    assert ml.shape == (g.n_left,) and mr.shape == (g.n_right,)
    left = np.flatnonzero(ml != -1)
    right = np.flatnonzero(mr != -1)
    assert left.size == right.size == nx_matching_number(g)
    np.testing.assert_array_equal(mr[ml[left]], left)
    np.testing.assert_array_equal(ml[mr[right]], right)
    pairs = np.stack([left, ml[left] + g.n_left], axis=1)
    assert isin_mask(pairs, g.edges, g.n_vertices).all()


@SETTINGS
@given(bipartite_graphs())
def test_blossom_equals_hk_on_bipartite(g):
    from repro.matching.blossom import blossom_maximum_matching
    from repro.matching.hopcroft_karp import hopcroft_karp

    assert blossom_maximum_matching(g).shape[0] == hopcroft_karp(g).shape[0]


@SETTINGS
@given(graphs(), st.integers(0, 2**31 - 1))
def test_maximal_is_half_of_maximum(g, seed):
    from repro.matching.blossom import blossom_maximum_matching
    from repro.matching.maximal import greedy_maximal_matching

    maximal = greedy_maximal_matching(g, order="random", rng=seed)
    maximum = blossom_maximum_matching(g)
    assert maximal.shape[0] <= maximum.shape[0]
    assert 2 * maximal.shape[0] >= maximum.shape[0]


@SETTINGS
@given(bipartite_graphs())
def test_konig_duality(g):
    """König: min-VC size == max-matching size, and the cover is feasible."""
    from repro.cover.konig import konig_cover
    from repro.cover.verify import is_vertex_cover
    from repro.matching.hopcroft_karp import hopcroft_karp

    cover = konig_cover(g)
    assert is_vertex_cover(g, cover)
    assert cover.shape[0] == hopcroft_karp(g).shape[0]


@SETTINGS
@given(graphs())
def test_cover_at_least_matching(g):
    """Weak LP duality: any vertex cover ≥ any matching."""
    from repro.cover.two_approx import matching_based_cover
    from repro.cover.verify import is_vertex_cover
    from repro.matching.blossom import blossom_maximum_matching

    cover = matching_based_cover(g, rng=0)
    assert is_vertex_cover(g, cover)
    assert cover.shape[0] >= blossom_maximum_matching(g).shape[0]


# --------------------------------------------------------------------- #
# coreset pipeline invariants
# --------------------------------------------------------------------- #
@SETTINGS
@given(bipartite_graphs(max_side=15, max_m=40), st.integers(1, 5),
       st.integers(0, 2**31 - 1))
def test_matching_protocol_always_valid(g, k, seed):
    from repro.core.protocols import matching_coreset_protocol
    from repro.dist.coordinator import run_simultaneous
    from repro.matching.verify import is_matching

    part = random_k_partition(g, k, seed)
    res = run_simultaneous(matching_coreset_protocol(), part, seed)
    assert is_matching(g, res.output)


@SETTINGS
@given(bipartite_graphs(max_side=15, max_m=40), st.integers(1, 5),
       st.integers(0, 2**31 - 1))
def test_vc_protocol_always_feasible(g, k, seed):
    from repro.core.protocols import vertex_cover_coreset_protocol
    from repro.cover.verify import is_vertex_cover
    from repro.dist.coordinator import run_simultaneous

    part = random_k_partition(g, k, seed)
    res = run_simultaneous(vertex_cover_coreset_protocol(k=k), part, seed)
    assert is_vertex_cover(g, res.output)


@SETTINGS
@given(bipartite_graphs(max_side=15, max_m=40), st.integers(2, 5),
       st.integers(0, 2**31 - 1))
def test_grouped_vc_always_feasible(g, k, seed):
    from repro.core.protocols import grouped_vertex_cover_protocol
    from repro.cover.verify import is_vertex_cover
    from repro.dist.coordinator import run_simultaneous

    part = random_k_partition(g, k, seed)
    res = run_simultaneous(
        grouped_vertex_cover_protocol(k=k, alpha=8.0), part, seed
    )
    assert is_vertex_cover(g, res.output)


@SETTINGS
@given(graphs(max_n=20, max_m=40), st.integers(1, 4), st.integers(0, 2**31 - 1))
def test_vc_coreset_piece_cover_property(g, k, seed):
    """Per-piece invariant: fixed ∪ cover(residual) covers the piece."""
    from repro.core.vc_coreset import vc_coreset
    from repro.cover.two_approx import matching_based_cover
    from repro.cover.verify import is_vertex_cover

    part = random_k_partition(g, k, seed)
    for i in range(k):
        piece = part.piece(i)
        result = vc_coreset(piece, k=k)
        cover = np.unique(np.concatenate([
            result.fixed_vertices,
            matching_based_cover(result.residual, rng=seed),
        ])) if result.fixed_vertices.size or result.residual.n_edges else \
            np.zeros(0, dtype=np.int64)
        assert is_vertex_cover(piece, cover)


def reference_vc_coreset(piece, k, log_slack):
    """The peeling loop of Theorem 2 as first written: recount degrees at
    every level, peel, filter.  ``(fixed, residual edges, thresholds,
    peeled counts, residual counts)``; the oracle for ``vc_coreset``."""
    from repro.core.vc_coreset import peeling_levels

    n = piece.n_vertices
    delta = peeling_levels(n, k, log_slack)
    thresholds, peeled_counts, residual_edges = [], [], []
    alive_edges = piece.edges
    peeled_mask = np.zeros(n, dtype=bool)
    for j in range(1, delta):
        threshold = n / (k * 2.0 ** (j + 1))
        if alive_edges.shape[0] == 0:
            thresholds.append(threshold)
            peeled_counts.append(0)
            residual_edges.append(0)
            continue
        degrees = np.bincount(alive_edges.ravel(), minlength=n)
        peel = degrees >= threshold
        newly = peel & ~peeled_mask
        peeled_mask |= peel
        keep = ~peel[alive_edges[:, 0]] & ~peel[alive_edges[:, 1]]
        alive_edges = alive_edges[keep]
        thresholds.append(threshold)
        peeled_counts.append(int(newly.sum()))
        residual_edges.append(int(alive_edges.shape[0]))
    fixed = np.flatnonzero(peeled_mask).astype(np.int64)
    return fixed, alive_edges, thresholds, peeled_counts, residual_edges


def _nested_stars() -> Graph:
    """Stars of 20, 10 and 5 leaves on 64 vertices: with k = 1 and
    log_slack = 0.5 the thresholds run 16, 8, 4, 2, so the first three
    levels each peel one centre."""
    edges = [(0, v) for v in range(1, 21)]
    edges += [(21, v) for v in range(22, 32)]
    edges += [(32, v) for v in range(33, 38)]
    return Graph(64, edges)


@st.composite
def small_graphs(draw, max_n=30, max_m=90):
    """Graphs on 0..max_n vertices, n < 2 and edgeless ones included."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    if n == 0:
        return Graph(0)
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(pairs, max_size=max_m))
    return Graph(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2))


@SETTINGS
@given(small_graphs(), st.integers(1, 6),
       st.floats(0.05, 8.0, allow_nan=False), st.integers(0, 2**31 - 1))
@example(Graph(0), 1, 4.0, 0)
@example(Graph(1), 2, 4.0, 0)
@example(Graph(40), 3, 0.1, 0)
@example(_nested_stars(), 1, 0.5, 0)
@example(_nested_stars(), 6, 0.1, 7)
def test_vc_coreset_equals_reference_loop(g, k, log_slack, seed):
    """``vc_coreset`` recounts degrees only after a level that peels; it
    must match the every-level loop exactly on the whole graph and on
    every piece of a random k-partition, empty pieces included."""
    from repro.core.vc_coreset import vc_coreset

    part = random_k_partition(g, k, seed)
    for piece in [g, *part.pieces()]:
        got = vc_coreset(piece, k=k, log_slack=log_slack)
        fixed, residual, thresholds, peeled, remaining = reference_vc_coreset(
            piece, k, log_slack)
        assert got.fixed_vertices.dtype == np.int64
        np.testing.assert_array_equal(got.fixed_vertices, fixed)
        assert got.residual.n_vertices == piece.n_vertices
        np.testing.assert_array_equal(got.residual.edges, residual)
        assert got.trace.thresholds == thresholds
        assert got.trace.peeled_counts == peeled
        assert got.trace.residual_edges == remaining


def test_nested_stars_peel_on_consecutive_levels():
    """The explicit example above really has consecutive peeling levels."""
    from repro.core.vc_coreset import vc_coreset

    result = vc_coreset(_nested_stars(), k=1, log_slack=0.5)
    assert result.trace.peeled_counts == [1, 1, 1, 0]
    assert result.fixed_vertices.tolist() == [0, 21, 32]
    assert result.trace.residual_edges == [15, 5, 0, 0]


@SETTINGS
@given(st.integers(2, 40), st.integers(1, 39), st.integers(0, 2**31 - 1))
def test_hvp_protocol_never_lies(universe, t_size, seed):
    """If the subsample protocol reports success, u* really is in X."""
    from repro.lowerbounds.hvp import play_subsample_protocol, sample_hvp

    if t_size >= universe:
        t_size = universe - 1
    inst = sample_hvp(universe, t_size, seed)
    ok, size = play_subsample_protocol(inst, 3, seed)
    assert size <= 3 + 1
