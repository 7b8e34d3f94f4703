"""Determinism contracts: same seed ⇒ bit-identical results, everywhere.

Reproducibility is a first-class deliverable of this library (every number
in EXPERIMENTS.md must be regenerable), so these tests pin the contract at
each layer rather than trusting it transitively.
"""

import numpy as np
import pytest


def tables_equal(a, b) -> bool:
    return a.columns == b.columns and a.rows == b.rows


class TestGeneratorDeterminism:
    @pytest.mark.parametrize("maker", [
        lambda s: __import__("repro.graph.generators", fromlist=["gnp"]
                             ).gnp(60, 0.1, s),
        lambda s: __import__("repro.graph.generators",
                             fromlist=["bipartite_gnp"]
                             ).bipartite_gnp(30, 30, 0.1, s),
        lambda s: __import__("repro.graph.generators",
                             fromlist=["power_law_bipartite"]
                             ).power_law_bipartite(40, 40, 3.0, rng=s),
    ])
    def test_same_seed_same_graph(self, maker):
        assert maker(77) == maker(77)

    def test_different_seed_different_graph(self):
        from repro.graph.generators import gnp

        assert gnp(60, 0.2, 1) != gnp(60, 0.2, 2)

    def test_hard_distributions(self):
        from repro.lowerbounds.dmatching import sample_dmatching
        from repro.lowerbounds.dvc import sample_dvc

        a = sample_dmatching(400, 4, 4, 5)
        b = sample_dmatching(400, 4, 4, 5)
        assert a.graph == b.graph
        np.testing.assert_array_equal(a.hidden_matching, b.hidden_matching)

        c = sample_dvc(400, 4, 4, 5)
        d = sample_dvc(400, 4, 4, 5)
        assert c.graph == d.graph and c.e_star == d.e_star


class TestProtocolDeterminism:
    def test_full_pipeline_bit_identical(self):
        from repro.core.protocols import (
            matching_coreset_protocol,
            vertex_cover_coreset_protocol,
        )
        from repro.dist.coordinator import run_simultaneous
        from repro.graph.generators import skewed_bipartite
        from repro.graph.partition import random_k_partition

        def run():
            g = skewed_bipartite(150, 150, 8, 60, 0.01, rng=3)
            part = random_k_partition(g, 5, 4)
            rm = run_simultaneous(matching_coreset_protocol(), part, 5)
            rv = run_simultaneous(vertex_cover_coreset_protocol(k=5), part, 6)
            return rm, rv

        (rm1, rv1), (rm2, rv2) = run(), run()
        np.testing.assert_array_equal(rm1.output, rm2.output)
        np.testing.assert_array_equal(rv1.output, rv2.output)
        assert rm1.total_bits == rm2.total_bits
        for m1, m2 in zip(rm1.messages, rm2.messages):
            np.testing.assert_array_equal(m1.edges, m2.edges)

    def test_grouped_protocol_deterministic(self):
        from repro.core.protocols import grouped_vertex_cover_protocol
        from repro.dist.coordinator import run_simultaneous
        from repro.graph.generators import bipartite_gnp
        from repro.graph.partition import random_k_partition

        g = bipartite_gnp(100, 100, 0.05, 7)
        part = random_k_partition(g, 4, 8)
        a = run_simultaneous(grouped_vertex_cover_protocol(4, 32.0), part, 9)
        b = run_simultaneous(grouped_vertex_cover_protocol(4, 32.0), part, 9)
        np.testing.assert_array_equal(a.output, b.output)

    def test_mapreduce_deterministic(self):
        from repro.core.mapreduce_algos import mapreduce_matching
        from repro.graph.generators import bipartite_gnp

        g = bipartite_gnp(80, 80, 0.05, 2)
        a = mapreduce_matching(g, k=5, rng=10)
        b = mapreduce_matching(g, k=5, rng=10)
        np.testing.assert_array_equal(a.matching, b.matching)
        assert a.job.n_rounds == b.job.n_rounds


class TestExperimentDeterminism:
    def test_table_reproducible(self):
        from repro.experiments.registry import get_experiment

        e11 = get_experiment("e11")
        a = e11.run(n_values=(1000,), n_trials=2, seed=42)
        b = e11.run(n_values=(1000,), n_trials=2, seed=42)
        assert tables_equal(a, b)

    def test_different_seed_changes_measurements(self):
        from repro.experiments.registry import get_experiment

        e11 = get_experiment("e11")
        a = e11.run(n_values=(1000,), n_trials=2, seed=1)
        b = e11.run(n_values=(1000,), n_trials=2, seed=2)
        assert a.rows != b.rows

    def test_weighted_protocol_reproducible(self):
        from repro.core.weighted import weighted_matching_coreset_protocol
        from repro.graph.generators import bipartite_gnp
        from repro.graph.weights import WeightedGraph

        g = bipartite_gnp(60, 60, 0.08, 3)
        rng = np.random.default_rng(4)
        wg = WeightedGraph(g.n_vertices, g.edges,
                           rng.uniform(1, 9, g.n_edges), validated=True)
        a = weighted_matching_coreset_protocol(wg, k=3, rng=11)
        b = weighted_matching_coreset_protocol(wg, k=3, rng=11)
        assert a.weight == b.weight
        np.testing.assert_array_equal(a.matching, b.matching)


class TestExecutorTortureSuite:
    """serial ≡ processes ≡ remote, bit for bit.

    The cross-backend contract (docs/PARALLELISM.md §§1, 7) exercised the
    expensive way: whole experiment tables (E1, E8) and whole `repro
    solve` runs compared across every backend — including the remote
    executor, whose workers are separate processes joined over sockets —
    plus the RemotePieceCache's digest-for-piece transfer against plain
    serial runs.
    """

    OTHER_BACKENDS = ["processes", "remote"]

    def _resolve(self, backend):
        if backend == "remote":
            from repro.dist.remote import RemoteExecutor

            return RemoteExecutor(max_workers=2, connect_timeout=60)
        return backend

    @pytest.mark.parametrize("backend", OTHER_BACKENDS)
    def test_e1_table_identical_across_backends(self, backend):
        from repro.experiments.registry import get_experiment

        spec = get_experiment("e1")
        kw = dict(seed=5, n_values=(600,), k_values=(4,), n_trials=2)
        baseline = spec.run(executor="serial", **kw)
        ex = self._resolve(backend)
        try:
            other = spec.run(executor=ex, **kw)
        finally:
            if backend == "remote":
                ex.close()
        assert tables_equal(baseline, other)

    @pytest.mark.parametrize("backend", OTHER_BACKENDS)
    def test_e8_table_identical_across_backends(self, backend):
        from repro.experiments.registry import get_experiment

        spec = get_experiment("e8")
        kw = dict(seed=7, n=400, n_trials=2)
        baseline = spec.run(executor="serial", **kw)
        ex = self._resolve(backend)
        try:
            other = spec.run(executor=ex, **kw)
        finally:
            if backend == "remote":
                ex.close()
        assert tables_equal(baseline, other)

    def test_repro_solve_identical_across_backends(self, tmp_path,
                                                   monkeypatch):
        import json

        from repro.cli import main

        # The CLI exports --executor/--workers into the environment;
        # registering the vars with monkeypatch first guarantees those
        # writes are undone at teardown.
        monkeypatch.setenv("REPRO_EXECUTOR", "serial")
        monkeypatch.setenv("REPRO_WORKERS", "2")

        def solve_with(backend, spec="planted:n=800"):
            out = tmp_path / f"{backend}.json"
            rc = main(["solve", spec, "--problem", "matching",
                       "--solver", "coreset", "--k", "4", "--seed", "3",
                       "--executor", backend, "--workers", "2",
                       "--json", str(out)])
            assert rc == 0
            doc = json.loads(out.read_text())
            doc.pop("wall_time_s")  # the only non-deterministic field
            return doc

        baseline = solve_with("serial")
        for backend in self.OTHER_BACKENDS:
            assert solve_with(backend) == baseline, backend

    def test_shared_local_vs_remote_cache_transfer(self):
        from repro.core.protocols import matching_coreset_protocol
        from repro.dist.coordinator import run_simultaneous
        from repro.dist.remote import RemoteExecutor
        from repro.graph.generators import planted_matching_gnp
        from repro.graph.partition import random_k_partition

        graph, _ = planted_matching_gnp(800, 800, p=3.0 / 1600, rng=0)
        part = random_k_partition(graph, k=4, rng=1)
        proto = matching_coreset_protocol()

        serial = run_simultaneous(proto, part, rng=2)
        with RemoteExecutor(max_workers=2, connect_timeout=60,
                            cache_min_bytes=0) as rx:
            cached = run_simultaneous(proto, part, rng=2, executor=rx)
            assert rx.piece_cache.stats()["pieces_stored"] > 0

        np.testing.assert_array_equal(serial.output, cached.output)
        assert serial.total_bits == cached.total_bits
        for a, c in zip(serial.messages, cached.messages):
            np.testing.assert_array_equal(a.edges, c.edges)


class TestStreamDeterminism:
    def test_orders_reproducible(self):
        from repro.graph.generators import bipartite_gnp
        from repro.streaming import random_order

        g = bipartite_gnp(50, 50, 0.1, 6)
        np.testing.assert_array_equal(random_order(g, 13), random_order(g, 13))

    def test_two_phase_deterministic_given_order(self):
        from repro.graph.generators import bipartite_gnp
        from repro.streaming import TwoPhaseStreamingMatcher, random_order

        g = bipartite_gnp(60, 60, 0.08, 6)
        order = random_order(g, 14)
        a = TwoPhaseStreamingMatcher(g.n_vertices).run(g, order)
        b = TwoPhaseStreamingMatcher(g.n_vertices).run(g, order)
        np.testing.assert_array_equal(a, b)
