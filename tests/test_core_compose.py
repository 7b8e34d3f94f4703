"""Tests for coreset composition."""

import numpy as np
import pytest

from repro.core.compose import (
    compose_matching,
    compose_vertex_cover,
    union_of_coresets,
)
from repro.core.vc_coreset import vc_coreset
from repro.cover.verify import is_vertex_cover
from repro.graph.bipartite import BipartiteGraph
from repro.graph.generators import (
    bipartite_gnp,
    planted_matching_gnp,
    skewed_bipartite,
)
from repro.graph.partition import random_k_partition
from repro.matching.api import maximum_matching
from repro.matching.maximal import greedy_maximal_matching
from repro.matching.verify import is_matching


class TestUnionOfCoresets:
    def test_bipartite_template_preserved(self, rng):
        g = bipartite_gnp(10, 10, 0.3, rng)
        u = union_of_coresets(20, [g.edges[:3], g.edges[3:6]], template=g)
        assert isinstance(u, BipartiteGraph)

    def test_empty(self):
        u = union_of_coresets(5, [])
        assert u.n_edges == 0

    def test_dedup(self, rng):
        g = bipartite_gnp(10, 10, 0.3, rng)
        u = union_of_coresets(20, [g.edges, g.edges], template=g)
        assert u.n_edges == g.n_edges


class TestComposeMatching:
    def test_exact_combiner(self, rng):
        g = bipartite_gnp(40, 40, 0.08, rng)
        part = random_k_partition(g, 4, rng)
        coresets = [maximum_matching(part.piece(i)) for i in range(4)]
        m = compose_matching(g.n_vertices, coresets, combiner="exact",
                             template=g)
        assert is_matching(g, m)

    def test_greedy_combiner(self, rng):
        g = bipartite_gnp(40, 40, 0.08, rng)
        part = random_k_partition(g, 4, rng)
        coresets = [maximum_matching(part.piece(i)) for i in range(4)]
        m = compose_matching(g.n_vertices, coresets, combiner="greedy",
                             template=g, rng=rng)
        assert is_matching(g, m)

    def test_exact_at_least_greedy(self, rng):
        g = bipartite_gnp(60, 60, 0.06, rng)
        part = random_k_partition(g, 4, rng)
        coresets = [maximum_matching(part.piece(i)) for i in range(4)]
        exact = compose_matching(g.n_vertices, coresets, "exact", template=g)
        greedy = compose_matching(g.n_vertices, coresets, "greedy",
                                  template=g, rng=rng)
        assert exact.shape[0] >= greedy.shape[0]

    def test_unknown_combiner(self, rng):
        with pytest.raises(ValueError):
            compose_matching(4, [], combiner="magic")  # type: ignore

    def test_greedy_combiner_without_rng_scans_canonical_order(self, rng):
        g = bipartite_gnp(60, 60, 0.06, rng)
        part = random_k_partition(g, 4, rng)
        coresets = [maximum_matching(part.piece(i)) for i in range(4)]
        union = union_of_coresets(g.n_vertices, coresets, template=g)
        first = compose_matching(g.n_vertices, coresets, "greedy", template=g)
        again = compose_matching(g.n_vertices, coresets, "greedy", template=g)
        np.testing.assert_array_equal(first, again)
        np.testing.assert_array_equal(
            first, greedy_maximal_matching(union, order="input"))

    def test_greedy_combiner_same_certificate_on_every_backend(self):
        """A same-seed solve with the greedy combiner is bit-identical on
        serial and on a process pool; it used to draw OS entropy."""
        from repro.solve import RunContext, solve

        g, _ = planted_matching_gnp(1000, 1000, p=0.003, rng=1)
        runs = [
            solve(g, "matching.coreset",
                  RunContext(seed=0, k=8, executor=backend, workers=2),
                  combiner="greedy")
            for backend in ("serial", "processes")
        ]
        np.testing.assert_array_equal(runs[0].certificate,
                                      runs[1].certificate)
        assert runs[0].verified and runs[1].verified


class TestComposeVertexCover:
    def _coresets(self, g, k, rng):
        part = random_k_partition(g, k, rng)
        return [vc_coreset(part.piece(i), k=k) for i in range(k)]

    def test_feasible_cover_konig(self, rng):
        g = skewed_bipartite(300, 300, 15, 100, 0.005, rng)
        cs = self._coresets(g, 4, rng)
        cover = compose_vertex_cover(g.n_vertices, cs, combiner="konig",
                                     template=g)
        assert is_vertex_cover(g, cover)

    def test_feasible_cover_two_approx(self, rng):
        g = skewed_bipartite(300, 300, 15, 100, 0.005, rng)
        cs = self._coresets(g, 4, rng)
        cover = compose_vertex_cover(g.n_vertices, cs, combiner="two_approx",
                                     template=g, rng=rng)
        assert is_vertex_cover(g, cover)

    def test_auto_uses_konig_for_bipartite(self, rng):
        from repro.cover.konig import konig_cover

        g = bipartite_gnp(50, 50, 0.05, rng)
        cs = self._coresets(g, 2, rng)
        cover = compose_vertex_cover(g.n_vertices, cs, combiner="auto",
                                     template=g)
        assert is_vertex_cover(g, cover)

    def test_konig_requires_bipartite_template(self, rng):
        from repro.graph.edgelist import Graph
        from repro.graph.generators import gnp

        g = gnp(30, 0.1, rng)
        cs = self._coresets(g, 2, rng)
        with pytest.raises(TypeError):
            compose_vertex_cover(g.n_vertices, cs, combiner="konig",
                                 template=g)

    def test_fixed_vertices_included(self, rng):
        g = skewed_bipartite(300, 300, 15, 200, 0.005, rng)
        cs = self._coresets(g, 2, rng)
        fixed_union = np.unique(np.concatenate(
            [c.fixed_vertices for c in cs]
        ))
        cover = compose_vertex_cover(g.n_vertices, cs, template=g)
        assert np.isin(fixed_union, cover).all()

    def test_unknown_combiner(self, rng):
        with pytest.raises(ValueError):
            compose_vertex_cover(4, [], combiner="magic")  # type: ignore
