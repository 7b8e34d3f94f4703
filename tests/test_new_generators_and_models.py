"""Tests for the robustness-sweep generators and the vertex-partition
model (E18/E19 substrate)."""

import numpy as np
import pytest

from repro.graph.generators import clustered_bipartite, power_law_bipartite
from repro.graph.partition import (
    VertexPartitionedGraph,
    random_vertex_partition,
)
from repro.graph.validation import check_bipartite


class TestPowerLawBipartite:
    def test_structure_valid(self, rng):
        g = power_law_bipartite(300, 300, avg_degree=4.0, rng=rng)
        ok, msg = check_bipartite(g)
        assert ok, msg

    def test_mean_degree_near_target(self, rng):
        g = power_law_bipartite(2000, 2000, avg_degree=5.0, rng=rng)
        # Duplicate collapse pulls the realized mean below target a bit.
        realized = g.n_edges / 2000
        assert 2.0 < realized <= 5.5

    def test_heavy_tail_present(self, rng):
        g = power_law_bipartite(3000, 3000, avg_degree=3.0, exponent=2.0,
                                rng=rng)
        left_deg = g.degrees[:3000]
        assert left_deg.max() > 8 * left_deg.mean()

    def test_every_left_vertex_has_an_edge(self, rng):
        g = power_law_bipartite(200, 200, avg_degree=3.0, rng=rng)
        assert (g.degrees[:200] >= 1).all()

    def test_empty_sides(self, rng):
        assert power_law_bipartite(0, 10, 2.0, rng=rng).n_edges == 0

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            power_law_bipartite(10, 10, avg_degree=0, rng=rng)
        with pytest.raises(ValueError):
            power_law_bipartite(10, 10, 2.0, exponent=1.0, rng=rng)


class TestClusteredBipartite:
    def test_structure_valid(self, rng):
        g = clustered_bipartite(4, 50, p_in=0.1, p_out=0.001, rng=rng)
        ok, msg = check_bipartite(g)
        assert ok, msg
        assert g.n_left == 200

    def test_blocks_denser_than_background(self, rng):
        g = clustered_bipartite(4, 50, p_in=0.2, p_out=0.001, rng=rng)
        e = g.edges
        right_local = e[:, 1] - g.n_left
        same_block = (e[:, 0] // 50) == (right_local // 50)
        assert same_block.mean() > 0.8

    def test_pure_background(self, rng):
        g = clustered_bipartite(2, 30, p_in=0.0, p_out=0.05, rng=rng)
        assert g.n_edges > 0

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            clustered_bipartite(0, 10, 0.1, 0.0, rng=rng)


class TestVertexPartition:
    def test_pieces_cover_all_edges(self, rng):
        from repro.graph.generators import bipartite_gnp
        from repro.utils.arrays import edge_keys

        g = bipartite_gnp(60, 60, 0.08, rng)
        vp = random_vertex_partition(g, 5, rng)
        seen = set()
        for piece in vp.pieces():
            seen.update(edge_keys(piece.edges, g.n_vertices).tolist())
        assert seen == set(edge_keys(g.edges, g.n_vertices).tolist())

    def test_cross_edges_duplicated(self, rng):
        from repro.graph.generators import bipartite_gnp

        g = bipartite_gnp(60, 60, 0.08, rng)
        vp = random_vertex_partition(g, 4, rng)
        total = sum(p.n_edges for p in vp.pieces())
        assert total == pytest.approx(
            g.n_edges * vp.duplication_factor(), abs=1e-6
        )
        assert 1.0 <= vp.duplication_factor() <= 2.0

    def test_duplication_factor_trend(self, rng):
        """E[dup] = 2 − 1/k for random assignment."""
        from repro.graph.generators import bipartite_gnp

        g = bipartite_gnp(400, 400, 0.02, rng)
        for k in (2, 8):
            vp = random_vertex_partition(g, k, rng)
            assert abs(vp.duplication_factor() - (2 - 1 / k)) < 0.1

    def test_piece_contains_all_owned_incident_edges(self, rng):
        from repro.graph.generators import bipartite_gnp

        g = bipartite_gnp(40, 40, 0.1, rng)
        vp = random_vertex_partition(g, 3, rng)
        owned0 = np.flatnonzero(vp.vertex_assignment == 0)
        piece0 = vp.piece(0)
        e = g.edges
        incident = np.isin(e[:, 0], owned0) | np.isin(e[:, 1], owned0)
        assert piece0.n_edges == int(incident.sum())

    def test_validation(self, rng):
        from repro.graph.edgelist import Graph

        g = Graph(4, [(0, 1)])
        with pytest.raises(ValueError):
            VertexPartitionedGraph(g, 0, np.zeros(4, dtype=np.int64))
        with pytest.raises(ValueError):
            VertexPartitionedGraph(g, 2, np.zeros(3, dtype=np.int64))
        with pytest.raises(ValueError):
            VertexPartitionedGraph(g, 2, np.array([0, 0, 0, 5]))
        vp = random_vertex_partition(g, 2, rng)
        with pytest.raises(IndexError):
            vp.piece(2)

    def test_runs_under_simultaneous_engine(self, rng):
        """Duck-typing contract: run_simultaneous accepts vertex
        partitions (the E19 pathway)."""
        from repro.core.protocols import matching_coreset_protocol
        from repro.dist.coordinator import run_simultaneous
        from repro.graph.generators import bipartite_gnp
        from repro.matching.verify import is_matching

        g = bipartite_gnp(80, 80, 0.05, rng)
        vp = random_vertex_partition(g, 4, rng)
        res = run_simultaneous(matching_coreset_protocol(), vp, rng)
        assert is_matching(g, res.output)


class TestNewExperimentShapes:
    def test_e16_shape(self):
        from repro.experiments.registry import get_experiment

        t = get_experiment("e16").run(n=1200, n_trials=2)
        rows = {r["order"]: r for r in t.rows}
        assert rows["random"]["greedy_ratio"] >= 0.5
        assert rows["random"]["two_phase_ratio"] >= \
            rows["random"]["greedy_ratio"] - 0.02

    def test_e17_shape(self):
        from repro.experiments.registry import get_experiment

        t = get_experiment("e17").run(opt_values=(16,), n=1200, k=4,
                                      n_trials=2)
        assert t.rows[0]["exact_random"]
        assert t.rows[0]["exact_adversarial"]

    def test_e18_shape(self):
        from repro.experiments.registry import get_experiment

        t = get_experiment("e18").run(n=800, k=4, n_trials=1)
        assert len(t.rows) == 5
        assert all(r["vc_feasible"] for r in t.rows)

    def test_e19_shape(self):
        from repro.experiments.registry import get_experiment

        t = get_experiment("e19").run(n=800, k_values=(4,), n_trials=2)
        assert t.rows[0]["edge_model_ratio"] <= 9
        assert t.rows[0]["vertex_model_ratio"] <= 9

    def test_e20_shape(self):
        from repro.experiments.registry import get_experiment

        t = get_experiment("e20").run(n_values=(400, 1600), k=4, n_trials=4)
        assert all(r["ratio_max"] <= 9 for r in t.rows)
        assert all(r["tail_probability"] <= 0.5 for r in t.rows)
