"""Tests for the maximum_matching dispatcher."""

import pytest

from oracles import augmenting_path_matching
from repro.graph.edgelist import Graph
from repro.graph.generators import bipartite_gnp, gnp
from repro.matching.api import matching_number, maximal_matching, maximum_matching


class TestDispatch:
    def test_auto_bipartite_uses_hk(self, rng):
        g = bipartite_gnp(20, 20, 0.1, rng)
        a = maximum_matching(g, "auto").shape[0]
        b = maximum_matching(g, "hopcroft_karp").shape[0]
        assert a == b

    def test_auto_general_uses_blossom(self, rng):
        g = gnp(20, 0.2, rng)
        a = maximum_matching(g, "auto").shape[0]
        b = maximum_matching(g, "blossom").shape[0]
        assert a == b

    def test_all_algorithms_agree_on_bipartite(self, rng):
        for _ in range(5):
            g = bipartite_gnp(25, 25, 0.1, rng)
            sizes = {
                maximum_matching(g, alg).shape[0]
                for alg in ("hopcroft_karp", "blossom")
            }
            sizes.add(augmenting_path_matching(g).shape[0])
            assert len(sizes) == 1

    def test_hk_requires_bipartite(self, rng):
        with pytest.raises(TypeError):
            maximum_matching(gnp(5, 0.5, rng), "hopcroft_karp")

    def test_unknown_algorithm(self, rng):
        with pytest.raises(ValueError):
            maximum_matching(gnp(5, 0.5, rng), "magic")  # type: ignore

    def test_matching_number(self, rng):
        g = bipartite_gnp(15, 15, 0.2, rng)
        assert matching_number(g) == maximum_matching(g).shape[0]

    def test_maximal_matching_wrapper(self, rng):
        from repro.matching.verify import is_maximal_matching

        g = gnp(30, 0.15, rng)
        m = maximal_matching(g, rng=rng)
        assert is_maximal_matching(g, m)
