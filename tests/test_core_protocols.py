"""Tests for the end-to-end simultaneous protocols."""

import numpy as np
import pytest

from repro.core.protocols import (
    GroupingSetup,
    grouped_vertex_cover_protocol,
    matching_coreset_protocol,
    subsampled_matching_protocol,
    vertex_cover_coreset_protocol,
)
from repro.cover import is_vertex_cover, konig_cover
from repro.dist.coordinator import run_simultaneous
from repro.graph.generators import bipartite_gnp, gnp, skewed_bipartite
from repro.graph.partition import random_k_partition
from repro.matching.api import matching_number
from repro.matching.verify import is_matching


class TestMatchingProtocol:
    def test_output_valid_and_large(self, rng):
        g = bipartite_gnp(200, 200, 0.01, rng)
        part = random_k_partition(g, 4, rng)
        res = run_simultaneous(matching_coreset_protocol(), part, rng)
        assert is_matching(g, res.output)
        assert res.output.shape[0] >= matching_number(g) / 9

    def test_general_graph(self, rng):
        g = gnp(100, 0.04, rng)
        part = random_k_partition(g, 4, rng)
        res = run_simultaneous(matching_coreset_protocol(), part, rng)
        assert is_matching(g, res.output)

    def test_communication_at_most_nk_edges(self, rng):
        g = bipartite_gnp(100, 100, 0.05, rng)
        k = 6
        part = random_k_partition(g, k, rng)
        res = run_simultaneous(matching_coreset_protocol(), part, rng)
        # Each player sends ≤ n/2 edges (a matching).
        assert res.ledger.total_edges() <= k * g.n_vertices // 2

    def test_mixed_algorithms_property(self, rng):
        """Theorem 1 is algorithm-independent: machines using different
        max-matching algorithms still compose to a valid, large matching."""
        from oracles import augmenting_path_matching
        from repro.core.compose import compose_matching
        from repro.matching.api import maximum_matching

        g = bipartite_gnp(150, 150, 0.015, rng)
        part = random_k_partition(g, 4, rng)
        coresets = [
            maximum_matching(part.piece(0), algorithm="hopcroft_karp"),
            maximum_matching(part.piece(1), algorithm="blossom"),
            augmenting_path_matching(part.piece(2)),
            maximum_matching(part.piece(3), algorithm="hopcroft_karp"),
        ]
        m = compose_matching(g.n_vertices, coresets, template=g)
        assert is_matching(g, m)
        assert m.shape[0] >= matching_number(g) / 9


class TestSubsampledProtocol:
    def test_bits_decrease_with_alpha(self, rng):
        g = bipartite_gnp(300, 300, 0.01, rng)
        part = random_k_partition(g, 4, rng)
        bits = {}
        for alpha in (1.0, 4.0):
            res = run_simultaneous(
                subsampled_matching_protocol(alpha), part, rng
            )
            bits[alpha] = res.total_bits
        assert bits[4.0] < bits[1.0]

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            subsampled_matching_protocol(0.5)

    def test_output_valid(self, rng):
        g = bipartite_gnp(100, 100, 0.03, rng)
        part = random_k_partition(g, 4, rng)
        res = run_simultaneous(subsampled_matching_protocol(3.0), part, rng)
        assert is_matching(g, res.output)


class TestVCProtocol:
    def test_feasible(self, rng):
        g = skewed_bipartite(300, 300, 15, 100, 0.005, rng)
        part = random_k_partition(g, 4, rng)
        res = run_simultaneous(vertex_cover_coreset_protocol(k=4), part, rng)
        assert is_vertex_cover(g, res.output)

    def test_ratio_within_log(self, rng):
        import math

        g = skewed_bipartite(400, 400, 20, 150, 0.005, rng)
        part = random_k_partition(g, 4, rng)
        res = run_simultaneous(vertex_cover_coreset_protocol(k=4), part, rng)
        opt = konig_cover(g).shape[0]
        assert res.output.shape[0] <= 4 * math.log2(g.n_vertices) * max(1, opt)

    def test_deterministic_summaries(self, rng):
        """Peeling is deterministic: same partition, same messages."""
        g = skewed_bipartite(200, 200, 10, 80, 0.01, rng)
        part = random_k_partition(g, 3, rng)
        p = vertex_cover_coreset_protocol(k=3)
        a = run_simultaneous(p, part, 1)
        b = run_simultaneous(p, part, 2)  # different seed, same messages
        for ma, mb in zip(a.messages, b.messages):
            np.testing.assert_array_equal(ma.edges, mb.edges)
            np.testing.assert_array_equal(ma.fixed_vertices, mb.fixed_vertices)


class TestGroupedVCProtocol:
    def test_feasible_across_alphas(self, rng):
        g = skewed_bipartite(400, 400, 20, 150, 0.01, rng)
        part = random_k_partition(g, 4, rng)
        for alpha in (8.0, 32.0, 128.0):
            res = run_simultaneous(
                grouped_vertex_cover_protocol(k=4, alpha=alpha), part, rng
            )
            assert is_vertex_cover(g, res.output), f"alpha={alpha}"

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            grouped_vertex_cover_protocol(k=2, alpha=0.5)

    def test_internal_edges_covered(self, rng):
        """Regression: edges contracted to self-loops must still be covered
        (the forced-group mechanism)."""
        from repro.graph.edgelist import Graph
        from repro.graph.partition import partition_by_assignment

        # A single edge between two vertices that will share a group when
        # group size is large.
        g = Graph(10, [(0, 1)])
        part = partition_by_assignment(g, [0], k=2)
        res = run_simultaneous(
            grouped_vertex_cover_protocol(k=2, alpha=1000.0), part, rng
        )
        assert is_vertex_cover(g, res.output)


class TestGroupingSetup:
    def test_groups_near_equal(self, rng):
        setup = GroupingSetup(100, 7, np.random.default_rng(0))
        counts = np.bincount(setup.mapping, minlength=setup.n_groups)
        assert counts.max() - counts.min() <= 1

    def test_expand_inverts_mapping(self):
        setup = GroupingSetup(20, 4, np.random.default_rng(1))
        members = setup.expand(np.array([2]))
        assert (setup.mapping[members] == 2).all()
        # Everything mapped to 2 is in members.
        assert members.shape[0] == (setup.mapping == 2).sum()

    def test_group_size_validation(self):
        with pytest.raises(ValueError):
            GroupingSetup(10, 0, np.random.default_rng(0))
