"""Tests for repro.matching.maximal."""

import numpy as np
import pytest

from repro.graph.edgelist import Graph
from repro.graph.generators import gnp, path_graph
from repro.matching.maximal import complete_to_maximal, greedy_maximal_matching
from repro.matching.verify import is_matching, is_maximal_matching


class TestGreedyMaximal:
    @pytest.mark.parametrize("order", ["input", "random", "adversarial_key"])
    def test_output_is_maximal(self, order, rng):
        g = gnp(60, 0.1, rng)
        m = greedy_maximal_matching(g, order=order, rng=rng)
        assert is_maximal_matching(g, m)

    def test_empty_graph(self):
        m = greedy_maximal_matching(Graph(5))
        assert m.shape == (0, 2)

    def test_input_order_deterministic(self, rng):
        g = gnp(40, 0.2, 3)
        a = greedy_maximal_matching(g, order="input")
        b = greedy_maximal_matching(g, order="input")
        np.testing.assert_array_equal(a, b)

    def test_random_order_reproducible_with_seed(self):
        g = gnp(40, 0.2, 3)
        a = greedy_maximal_matching(g, order="random", rng=11)
        b = greedy_maximal_matching(g, order="random", rng=11)
        np.testing.assert_array_equal(a, b)

    def test_priority_overrides(self):
        # Path 0-1-2: priority makes greedy take (1,2) first.
        g = path_graph(3)
        pri = np.array([1.0, 0.0])  # edges are (0,1), (1,2) in canonical order
        m = greedy_maximal_matching(g, priority=pri)
        assert m.tolist() == [[1, 2]]

    def test_priority_shape_checked(self):
        with pytest.raises(ValueError):
            greedy_maximal_matching(path_graph(3), priority=np.array([1.0]))

    def test_two_approximation(self, rng):
        """Maximal matching is ≥ MM/2 — check on random graphs."""
        from repro.matching.api import matching_number

        for _ in range(5):
            g = gnp(50, 0.08, rng)
            m = greedy_maximal_matching(g, order="random", rng=rng)
            assert m.shape[0] >= matching_number(g) / 2

    def test_scan_equals_baseline_across_default_blocks(self):
        """At the default block size, on about ten blocks of edges
        (n = 20 000, about 80 000 edges)."""
        from oracles import _baseline_scan
        from repro.matching.maximal import _sequential_scan

        g = gnp(20_000, 8.0 / 20_000, 5)
        eu = np.ascontiguousarray(g.edges[:, 0])
        ev = np.ascontiguousarray(g.edges[:, 1])
        np.testing.assert_array_equal(
            _sequential_scan(g.n_vertices, eu, ev),
            _baseline_scan(g.n_vertices, eu, ev))

    @pytest.mark.parametrize("order, density", [
        ("random", 1.0),   # each round halves the live edges: rounds end it
        ("input", 2.0),    # canonical order stalls the rounds: scan finishes
    ])
    def test_rounds_equal_baseline_scan(self, order, density):
        """Greedy rounds return the scan's rows in the scan's order, both
        where they finish the matching and where they hand off."""
        from unittest import mock

        from oracles import _baseline_scan
        from repro.matching import maximal

        n = 20_000
        g = Graph(n, np.random.default_rng(8).integers(
            0, n, size=(int(density * n), 2)))
        e = g.edges
        if order == "random":
            e = e[np.random.default_rng(9).permutation(g.n_edges)]
        eu, ev = np.ascontiguousarray(e[:, 0]), np.ascontiguousarray(e[:, 1])
        handed_off = []
        scan = maximal._scan

        def recording_scan(taken, u, v):
            handed_off.append(u.shape[0])
            return scan(taken, u, v)

        with mock.patch.object(maximal, "_scan", recording_scan):
            got = maximal._rounds_then_scan(n, eu, ev)
        np.testing.assert_array_equal(got, _baseline_scan(n, eu, ev))
        if order == "random":
            assert handed_off == [0]
        else:
            assert handed_off[0] > g.n_edges // 4

    def test_greedy_picks_rounds_only_on_sparse_inputs(self):
        from unittest import mock

        from repro.matching import maximal

        sparse = gnp(400, 2.0 / 400, 1)
        dense = gnp(100, 0.5, 1)
        for g, rounds in ((sparse, True), (dense, False)):
            with mock.patch.object(maximal, "_rounds_then_scan",
                                   wraps=maximal._rounds_then_scan) as spy:
                maximal.greedy_maximal_matching(g, order="input")
            assert spy.called == rounds

    def test_unknown_order_raises(self, rng):
        with pytest.raises(ValueError):
            greedy_maximal_matching(gnp(5, 0.5, rng), order="bogus")  # type: ignore


class TestCompleteToMaximal:
    def test_extends_to_maximal(self, rng):
        g = gnp(50, 0.1, rng)
        partial = greedy_maximal_matching(g, order="random", rng=rng)[:2]
        full = complete_to_maximal(g, partial, order="input")
        assert is_maximal_matching(g, full)
        # Original edges preserved.
        from repro.utils.arrays import isin_mask

        assert isin_mask(partial, full, g.n_vertices).all()

    def test_empty_partial(self, rng):
        g = gnp(30, 0.2, rng)
        full = complete_to_maximal(g, np.zeros((0, 2), dtype=np.int64))
        assert is_maximal_matching(g, full)

    def test_already_maximal_unchanged_size(self, rng):
        g = gnp(30, 0.2, rng)
        m = greedy_maximal_matching(g, order="input")
        full = complete_to_maximal(g, m)
        assert full.shape[0] == m.shape[0]

    def test_rejects_invalid_partial(self, rng):
        g = gnp(10, 0.5, rng)
        with pytest.raises(ValueError, match="not a matching"):
            complete_to_maximal(g, np.array([[0, 1], [1, 2]]))

    def test_partial_valid_matching_property(self, rng):
        g = gnp(40, 0.15, rng)
        partial = greedy_maximal_matching(g, order="random", rng=rng)[:3]
        full = complete_to_maximal(g, partial)
        assert is_matching(g, full)
