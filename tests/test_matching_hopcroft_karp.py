"""Tests for Hopcroft–Karp against independent oracles."""

import numpy as np
import pytest

from conftest import nx_matching_number
from oracles import augmenting_path_matching
from repro.graph.bipartite import BipartiteGraph
from repro.graph.generators import (
    bipartite_gnp,
    complete_bipartite,
    random_perfect_matching,
)
from repro.matching.hopcroft_karp import hopcroft_karp, hopcroft_karp_mates
from repro.matching.verify import is_matching, is_maximal_matching


class TestSmallCases:
    def test_empty(self):
        assert hopcroft_karp(BipartiteGraph(3, 3)).shape == (0, 2)

    def test_single_edge(self):
        g = BipartiteGraph(1, 1, [(0, 1)])
        m = hopcroft_karp(g)
        assert m.tolist() == [[0, 1]]

    def test_tiny_bipartite(self, tiny_bipartite):
        m = hopcroft_karp(tiny_bipartite)
        assert m.shape[0] == 3
        assert is_matching(tiny_bipartite, m)

    def test_complete_bipartite(self):
        g = complete_bipartite(4, 7)
        assert hopcroft_karp(g).shape[0] == 4

    def test_needs_augmentation(self):
        """A case where pure greedy init is suboptimal: the crown."""
        # l0-{r0,r1}, l1-{r0}: greedy may match l0-r0 and strand l1.
        g = BipartiteGraph(2, 2, [(0, 2), (0, 3), (1, 2)])
        assert hopcroft_karp(g).shape[0] == 2

    def test_path_alternation(self):
        # l0-r0, l1-r0, l1-r1, l2-r1 => MM=2
        g = BipartiteGraph(3, 2, [(0, 3), (1, 3), (1, 4), (2, 4)])
        assert hopcroft_karp(g).shape[0] == 2


class TestAgainstOracles:
    @pytest.mark.parametrize("p", [0.02, 0.08, 0.3])
    def test_size_matches_networkx(self, p, rng):
        for _ in range(5):
            g = bipartite_gnp(35, 45, p, rng)
            m = hopcroft_karp(g)
            assert is_matching(g, m)
            assert m.shape[0] == nx_matching_number(g)

    def test_size_matches_augmenting_path(self, rng):
        for _ in range(10):
            g = bipartite_gnp(30, 30, 0.1, rng)
            a = hopcroft_karp(g).shape[0]
            b = augmenting_path_matching(g).shape[0]
            assert a == b

    def test_perfect_matching_found(self, rng):
        g = random_perfect_matching(50, 50, rng=rng)
        assert hopcroft_karp(g).shape[0] == 50

    def test_output_is_maximal(self, rng):
        g = bipartite_gnp(40, 40, 0.1, rng)
        m = hopcroft_karp(g)
        assert is_maximal_matching(g, m)  # maximum => maximal


class TestMates:
    def test_mate_consistency(self, rng):
        g = bipartite_gnp(25, 30, 0.15, rng)
        ml, mr = hopcroft_karp_mates(g)
        for u in range(25):
            if ml[u] != -1:
                assert mr[ml[u]] == u
        for r in range(30):
            if mr[r] != -1:
                assert ml[mr[r]] == r

    def test_unmatched_marked(self):
        g = BipartiteGraph(2, 2, [(0, 2)])
        ml, mr = hopcroft_karp_mates(g)
        assert ml[1] == -1
        assert mr[1] == -1


class TestAugmentingOracle:
    """The slow matcher is itself tested against networkx."""

    def test_against_networkx(self, rng):
        for _ in range(5):
            g = bipartite_gnp(25, 25, 0.12, rng)
            m = augmenting_path_matching(g)
            assert is_matching(g, m)
            assert m.shape[0] == nx_matching_number(g)

    def test_empty(self):
        assert augmenting_path_matching(BipartiteGraph(2, 2)).shape == (0, 2)
