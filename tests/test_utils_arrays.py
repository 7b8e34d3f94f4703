"""Tests for repro.utils.arrays."""

import numpy as np
import pytest

from repro.utils.arrays import (
    canonical_edges,
    edge_keys,
    isin_mask,
    sorted_unique_edges,
    unique_vertices,
)


class TestCanonicalEdges:
    def test_orients(self):
        out = canonical_edges(np.array([[5, 2], [1, 3]]))
        np.testing.assert_array_equal(out, [[2, 5], [1, 3]])

    def test_does_not_mutate_input(self):
        e = np.array([[5, 2]])
        canonical_edges(e)
        np.testing.assert_array_equal(e, [[5, 2]])

    def test_bad_shape_raises(self):
        with pytest.raises(ValueError):
            canonical_edges(np.array([1, 2, 3]))


class TestEdgeKeys:
    def test_orientation_invariant(self):
        a = edge_keys(np.array([[1, 4]]), 10)
        b = edge_keys(np.array([[4, 1]]), 10)
        assert a[0] == b[0] == 14

    def test_distinct_edges_distinct_keys(self):
        edges = np.array([[0, 1], [0, 2], [1, 2]])
        assert len(set(edge_keys(edges, 3).tolist())) == 3


class TestDedupeEdges:
    def test_removes_duplicates_and_reversals(self):
        edges = np.array([[0, 1], [1, 0], [0, 1], [2, 3]])
        out = sorted_unique_edges(edges, 4)
        assert out.shape == (2, 2)

    def test_removes_self_loops(self):
        out = sorted_unique_edges(np.array([[2, 2], [0, 1]]), 3)
        np.testing.assert_array_equal(out, [[0, 1]])

    def test_empty(self):
        out = sorted_unique_edges(np.zeros((0, 2), dtype=np.int64), 5)
        assert out.shape == (0, 2)


class TestIsinMask:
    def test_membership_orientation_invariant(self):
        edges = np.array([[0, 1], [2, 3]])
        other = np.array([[1, 0]])
        mask = isin_mask(edges, other, 4)
        np.testing.assert_array_equal(mask, [True, False])

    def test_empty_cases(self):
        e = np.array([[0, 1]])
        assert isin_mask(np.zeros((0, 2)), e, 2).shape == (0,)
        np.testing.assert_array_equal(
            isin_mask(e, np.zeros((0, 2)), 2), [False]
        )


class TestUniqueVertices:
    def test_sorted_unique(self):
        out = unique_vertices(np.array([[3, 1], [1, 2]]))
        np.testing.assert_array_equal(out, [1, 2, 3])

    def test_empty(self):
        assert unique_vertices(np.zeros((0, 2))).shape == (0,)
