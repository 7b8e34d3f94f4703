"""Registry invariants of the unified solver facade (``repro.solve``).

Three contracts, asserted for *every* registered solver (not a curated
subset — the parametrization iterates the registry, so a newly registered
solver is automatically held to them):

* **pickle** — specs and contexts ship to worker processes;
* **determinism** — the same ``RunContext`` seed reproduces the
  certificate bit for bit, serial and across the ``processes`` backend;
* **verification** — every certificate passes the problem's verifier, and
  every solve matches its legacy entry point bit for bit when that entry
  point is called with the same derived generators (the port is a
  re-plumbing, not a re-implementation).
"""

import pickle

import numpy as np
import pytest

from repro.graph.bipartite import BipartiteGraph
from repro.graph.edgelist import Graph
from repro.solve import (
    RunContext,
    SolverCapabilityError,
    UnknownSolverError,
    all_solvers,
    get_solver,
    load_graph,
    solve,
    solver_ids,
    solvers_for,
)
from repro.utils.rng import spawn_generators

SEED = 1234
K = 4


# --------------------------------------------------------------------- #
# shared inputs
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def bipartite():
    from repro.graph.generators import planted_matching_gnp

    graph, _ = planted_matching_gnp(200, 200, p=3.0 / 400,
                                    rng=np.random.default_rng(5))
    return graph


@pytest.fixture(scope="module")
def small_general():
    from repro.graph.generators import gnp

    return gnp(36, 0.12, rng=np.random.default_rng(6))


@pytest.fixture(scope="module")
def capacitated():
    from repro.workloads import build_workload

    return build_workload("ba_adwords", rng=9, u=60, v=240)


@pytest.fixture(scope="module")
def weighted():
    from repro.graph.generators import bipartite_gnp
    from repro.graph.weights import WeightedGraph

    base = bipartite_gnp(150, 150, p=4.0 / 300,
                         rng=np.random.default_rng(7))
    weights = np.exp(np.random.default_rng(8).uniform(
        0, np.log(50.0), size=base.n_edges))
    return WeightedGraph(base.n_vertices, base.edges, weights, validated=True)


def _graph_for(spec, bipartite, small_general, weighted, capacitated):
    """The natural test input for a solver's capability tags."""
    if spec.capacitated:
        return capacitated
    if spec.weighted:
        return weighted
    if spec.name == "vertex_cover.exact":
        return small_general  # branch-and-bound: keep it tiny
    return bipartite


def _ctx():
    return RunContext(seed=SEED, k=K)


# --------------------------------------------------------------------- #
# registry surface
# --------------------------------------------------------------------- #
class TestRegistry:
    def test_at_least_ten_solvers(self):
        assert len(solver_ids()) >= 10

    def test_every_problem_and_model_covered(self):
        combos = {(s.problem, s.model) for s in all_solvers()}
        for problem in ("matching", "vertex_cover"):
            for model in ("offline", "coreset", "mapreduce"):
                assert (problem, model) in combos
        assert ("matching", "streaming") in combos

    def test_capability_metadata_complete(self):
        for spec in all_solvers():
            caps = spec.capabilities()
            assert caps["name"] == spec.name
            assert caps["problem"] in ("matching", "vertex_cover")
            assert caps["model"] in ("offline", "coreset", "mapreduce",
                                     "streaming")
            assert caps["guarantee"] and caps["description"]
            assert spec.name.startswith(spec.problem + ".")

    def test_short_name_resolution(self):
        assert get_solver("blossom").name == "matching.blossom"
        assert get_solver("Matching.Coreset").name == "matching.coreset"

    def test_ambiguous_short_name_rejected(self):
        # Both problems register a "coreset" suffix.
        with pytest.raises(UnknownSolverError, match="ambiguous"):
            get_solver("coreset")

    def test_unknown_solver_rejected(self):
        with pytest.raises(UnknownSolverError, match="unknown solver"):
            get_solver("matching.does_not_exist")

    def test_solvers_for_filters(self):
        for spec in solvers_for(problem="matching"):
            assert spec.problem == "matching"
        for spec in solvers_for(model="streaming"):
            assert spec.model == "streaming"
        assert solvers_for(problem="matching", model="offline")

    def test_duplicate_registration_rejected(self):
        from repro.solve.registry import DuplicateSolverError, solver

        with pytest.raises(DuplicateSolverError):
            solver("matching.maximum", problem="matching", model="offline",
                   guarantee="exact", description="dup")(lambda g, c: None)


# --------------------------------------------------------------------- #
# pickling (the process-backend precondition)
# --------------------------------------------------------------------- #
class TestPickling:
    @pytest.mark.parametrize("name", solver_ids())
    def test_spec_pickles(self, name):
        spec = get_solver(name)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.name == spec.name
        assert clone.fn is spec.fn  # module-level adapter, not a closure

    def test_run_context_pickles(self):
        ctx = RunContext(seed=3, k=8, executor="processes", workers=2)
        clone = pickle.loads(pickle.dumps(ctx))
        assert clone == ctx


# --------------------------------------------------------------------- #
# per-solver contracts
# --------------------------------------------------------------------- #
class TestEverySolver:
    @pytest.mark.parametrize("name", solver_ids())
    def test_certificate_verifies_and_is_deterministic(
        self, name, bipartite, small_general, weighted, capacitated
    ):
        spec = get_solver(name)
        graph = _graph_for(spec, bipartite, small_general, weighted,
                           capacitated)
        first = solve(graph, name, _ctx())
        again = solve(graph, name, _ctx())

        # The facade's own verification ran and passed ...
        assert first.verified
        # ... and the verifiers agree when called directly.
        if spec.capacitated:
            from repro.workloads.bmatching import edge_indices, verify_b_matching

            assert verify_b_matching(
                graph, edge_indices(graph, first.certificate)
            )
            assert first.certificate.shape[1] == 2
        elif spec.problem == "matching":
            from repro.matching.verify import is_matching

            assert is_matching(graph, first.certificate)
            assert first.certificate.shape[1] == 2
        else:
            from repro.cover.verify import is_vertex_cover

            assert is_vertex_cover(graph, first.certificate)
            assert first.certificate.ndim == 1

        # Same seed, same bits.
        np.testing.assert_array_equal(first.certificate, again.certificate)
        assert first.value == again.value

        # Value convention: the spec's declared objective, never inferred
        # from stats keys.
        if spec.objective == "weight":
            assert first.value == pytest.approx(first.stats["weight"])
        else:
            assert spec.objective == "size"
            assert first.value == first.size

    _EXECUTOR_AWARE = [
        "matching.coreset",
        "matching.subsampled_coreset",
        "matching.send_everything",
        "matching.mapreduce",
        "vertex_cover.coreset",
        "vertex_cover.grouped_coreset",
        "vertex_cover.send_everything",
        "vertex_cover.mapreduce",
    ]

    @pytest.mark.parametrize("name", _EXECUTOR_AWARE)
    def test_serial_vs_processes_bit_identical(self, name, bipartite):
        serial = solve(bipartite, name, RunContext(seed=SEED, k=K))
        procs = solve(
            bipartite, name,
            RunContext(seed=SEED, k=K, executor="processes", workers=2),
        )
        np.testing.assert_array_equal(serial.certificate, procs.certificate)
        assert serial.value == procs.value


# --------------------------------------------------------------------- #
# legacy equivalence: solve(...) == the old entry point, bit for bit
# --------------------------------------------------------------------- #
def _protocol_output(protocol, graph):
    """The legacy coreset-model calling convention (partition, then run)."""
    from repro.dist.coordinator import run_simultaneous
    from repro.graph.partition import random_k_partition

    p_rng, r_rng = spawn_generators(SEED, 2)
    part = random_k_partition(graph, K, p_rng)
    return run_simultaneous(protocol, part, r_rng).output


def _legacy_maximum(graph):
    from repro.matching.api import maximum_matching

    return maximum_matching(graph)


def _legacy_hopcroft_karp(graph):
    from repro.matching.api import maximum_matching

    return maximum_matching(graph, algorithm="hopcroft_karp")


def _legacy_blossom(graph):
    from repro.matching.api import maximum_matching

    return maximum_matching(graph, algorithm="blossom")


def _legacy_greedy_maximal(graph):
    from repro.matching.api import maximal_matching

    (rng,) = spawn_generators(SEED, 1)
    return maximal_matching(graph, rng=rng, order="random")


def _legacy_matching_coreset(graph):
    from repro.core.protocols import matching_coreset_protocol

    return _protocol_output(matching_coreset_protocol(combiner="exact"),
                            graph)


def _legacy_subsampled(graph):
    from repro.core.protocols import subsampled_matching_protocol

    return _protocol_output(subsampled_matching_protocol(4.0), graph)


def _legacy_send_everything_matching(graph):
    from repro.baselines.naive import send_everything_protocol

    return _protocol_output(send_everything_protocol("matching"), graph)


def _legacy_weighted_matching(graph):
    from repro.core.weighted import weighted_matching_coreset_protocol

    (rng,) = spawn_generators(SEED, 1)
    return weighted_matching_coreset_protocol(graph, k=K, epsilon=1.0,
                                              rng=rng).matching


def _legacy_mapreduce_matching(graph):
    from repro.core.mapreduce_algos import mapreduce_matching

    (rng,) = spawn_generators(SEED, 1)
    return mapreduce_matching(graph, k=K, rng=rng).matching


def _legacy_filtering(graph):
    from repro.baselines.filtering import filtering_matching

    (rng,) = spawn_generators(SEED, 1)
    return filtering_matching(
        graph, memory_edges=max(64, graph.n_edges // 8), rng=rng
    ).matching


def _legacy_streaming_greedy(graph):
    from repro.streaming import StreamingGreedyMatcher, random_order

    (rng,) = spawn_generators(SEED, 1)
    return StreamingGreedyMatcher(graph.n_vertices).run(
        graph, random_order(graph, rng))


def _legacy_streaming_two_phase(graph):
    from repro.streaming import TwoPhaseStreamingMatcher, random_order

    (rng,) = spawn_generators(SEED, 1)
    return TwoPhaseStreamingMatcher(graph.n_vertices).run(
        graph, random_order(graph, rng))


def _legacy_two_approx(graph):
    from repro.cover import matching_based_cover

    return matching_based_cover(graph)


def _legacy_greedy_cover(graph):
    from repro.cover import greedy_cover

    return greedy_cover(graph)


def _legacy_konig(graph):
    from repro.cover import konig_cover

    return konig_cover(graph)


def _legacy_exact_cover(graph):
    from repro.cover import exact_cover

    return exact_cover(graph)


def _legacy_lp_cover(graph):
    from repro.cover import lp_cover

    return lp_cover(graph)


def _legacy_vc_coreset(graph):
    from repro.core.protocols import vertex_cover_coreset_protocol

    return _protocol_output(vertex_cover_coreset_protocol(k=K), graph)


def _legacy_grouped_vc(graph):
    from repro.core.protocols import grouped_vertex_cover_protocol

    return _protocol_output(grouped_vertex_cover_protocol(k=K, alpha=4.0),
                            graph)


def _legacy_send_everything_cover(graph):
    from repro.baselines.naive import send_everything_protocol

    return _protocol_output(send_everything_protocol("vertex_cover"), graph)


def _legacy_weighted_vc(graph):
    from repro.core.weighted import weighted_vertex_cover_protocol

    (rng,) = spawn_generators(SEED, 1)
    ones = np.ones(graph.n_vertices, dtype=np.float64)
    return weighted_vertex_cover_protocol(graph, ones, k=K, epsilon=1.0,
                                          rng=rng).cover


def _legacy_mapreduce_vc(graph):
    from repro.core.mapreduce_algos import mapreduce_vertex_cover

    (rng,) = spawn_generators(SEED, 1)
    return mapreduce_vertex_cover(graph, k=K, rng=rng).cover


def _legacy_b_greedy(graph):
    from repro.workloads.bmatching import greedy_b_matching

    return graph.edges[greedy_b_matching(graph)]


def _legacy_b_exact(graph):
    from repro.workloads.bmatching import exact_b_matching

    return graph.edges[exact_b_matching(graph)]


def _legacy_b_coreset(graph):
    # Reference composition outside the facade: greedy per random piece,
    # exact on the union — mirroring the adapter step for step.
    from repro.workloads.bmatching import (
        edge_indices,
        exact_b_matching,
        greedy_b_matching,
    )
    from repro.workloads.partitions import partition_workload

    partition_rng, _run_rng = _ctx().generators(2)
    part = partition_workload(graph, K, "random", partition_rng)
    union_mask = np.zeros(graph.n_edges, dtype=bool)
    for i in range(part.k):
        piece = graph.subgraph_from_mask(part.assignment == i)
        local = greedy_b_matching(piece)
        if local.size:
            union_mask[edge_indices(graph, piece.edges[local])] = True
    union = graph.subgraph_from_mask(union_mask)
    return union.edges[exact_b_matching(union)]


_LEGACY = {
    "matching.maximum": _legacy_maximum,
    "matching.hopcroft_karp": _legacy_hopcroft_karp,
    "matching.blossom": _legacy_blossom,
    "matching.greedy_maximal": _legacy_greedy_maximal,
    "matching.coreset": _legacy_matching_coreset,
    "matching.subsampled_coreset": _legacy_subsampled,
    "matching.send_everything": _legacy_send_everything_matching,
    "matching.weighted_coreset": _legacy_weighted_matching,
    "matching.mapreduce": _legacy_mapreduce_matching,
    "matching.b_greedy": _legacy_b_greedy,
    "matching.b_exact": _legacy_b_exact,
    "matching.b_coreset": _legacy_b_coreset,
    "matching.filtering": _legacy_filtering,
    "matching.streaming_greedy": _legacy_streaming_greedy,
    "matching.streaming_two_phase": _legacy_streaming_two_phase,
    "vertex_cover.two_approx": _legacy_two_approx,
    "vertex_cover.greedy": _legacy_greedy_cover,
    "vertex_cover.konig": _legacy_konig,
    "vertex_cover.exact": _legacy_exact_cover,
    "vertex_cover.lp": _legacy_lp_cover,
    "vertex_cover.coreset": _legacy_vc_coreset,
    "vertex_cover.grouped_coreset": _legacy_grouped_vc,
    "vertex_cover.send_everything": _legacy_send_everything_cover,
    "vertex_cover.weighted_coreset": _legacy_weighted_vc,
    "vertex_cover.mapreduce": _legacy_mapreduce_vc,
}


class TestLegacyEquivalence:
    def test_every_solver_has_a_legacy_mapping(self):
        assert set(_LEGACY) == set(solver_ids())

    @pytest.mark.parametrize("name", sorted(_LEGACY))
    def test_bit_for_bit(self, name, bipartite, small_general, weighted,
                         capacitated):
        spec = get_solver(name)
        graph = _graph_for(spec, bipartite, small_general, weighted,
                           capacitated)
        result = solve(graph, name, _ctx())
        expected = _LEGACY[name](graph)
        np.testing.assert_array_equal(
            result.certificate, np.asarray(expected, dtype=np.int64),
            err_msg=f"{name} diverged from its legacy entry point",
        )


# --------------------------------------------------------------------- #
# capability and error handling
# --------------------------------------------------------------------- #
class TestCapabilities:
    def test_bipartite_only_rejects_general(self, small_general):
        with pytest.raises(SolverCapabilityError, match="BipartiteGraph"):
            solve(small_general, "matching.hopcroft_karp", _ctx())

    def test_weighted_rejects_unweighted(self, bipartite):
        with pytest.raises(SolverCapabilityError, match="edge weights"):
            solve(bipartite, "matching.weighted_coreset", _ctx())

    def test_capacitated_rejects_uncapacitated(self, bipartite):
        # Weighted but budget-less: the weighted gate passes, the
        # capacitated gate must still refuse.
        from repro.graph.capacity import WeightedBipartiteGraph

        g = WeightedBipartiteGraph(
            bipartite.n_left, bipartite.n_right, bipartite.edges,
            weights=np.ones(bipartite.n_edges), validated=True,
        )
        with pytest.raises(SolverCapabilityError,
                           match="CapacitatedBipartiteGraph"):
            solve(g, "matching.b_exact", _ctx())

    def test_plain_solver_rejects_capacitated(self, capacitated):
        with pytest.raises(SolverCapabilityError, match="ignores capacities"):
            solve(capacitated, "matching.maximum", _ctx())

    def test_missing_k_rejected(self, bipartite):
        with pytest.raises(SolverCapabilityError, match="RunContext.k"):
            solve(bipartite, "matching.coreset", RunContext(seed=0))

    def test_unknown_param_rejected(self, bipartite):
        with pytest.raises(ValueError, match="no parameter"):
            solve(bipartite, "matching.coreset", _ctx(), bogus=1)

    def test_partition_without_recipe_rejected(self, bipartite):
        # Machines cut their pieces from a recipe: an object with only
        # piece()/k/graph is refused up front, not deep in the engine.
        class PiecesOnly:
            k = K
            graph = bipartite

            def piece(self, i):
                return bipartite

        with pytest.raises(ValueError, match=r"recipe\(\)"):
            solve(bipartite, "matching.coreset", _ctx(),
                  partition=PiecesOnly())

    def test_verify_skip(self, bipartite):
        res = solve(bipartite, "matching.maximum", _ctx(), verify=False)
        assert not res.verified
        assert res.stats["verify_skipped"]

    def test_param_override_changes_behavior(self, bipartite):
        loose = solve(bipartite, "matching.subsampled_coreset",
                      _ctx(), alpha=1.0)
        tight = solve(bipartite, "matching.subsampled_coreset",
                      _ctx(), alpha=16.0)
        assert loose.stats["total_edges"] >= tight.stats["total_edges"]


class TestRunContext:
    def test_invalid_k(self):
        with pytest.raises(ValueError, match="k must be"):
            RunContext(k=0)

    def test_invalid_workers(self):
        with pytest.raises(ValueError, match="workers"):
            RunContext(workers=0)

    def test_with_options(self):
        ctx = RunContext(seed=1, k=4)
        assert ctx.with_options(k=8).k == 8
        assert ctx.with_options(k=8).seed == 1

    def test_frozen(self):
        with pytest.raises(Exception):
            RunContext().k = 3  # type: ignore[misc]

    def test_seedsequence_seed_is_not_mutated(self, bipartite):
        # SeedSequence.spawn is stateful; the context must not advance the
        # caller's object, or two solves with one context would diverge.
        seq = np.random.SeedSequence(42)
        ctx = RunContext(seed=seq, k=K)
        first = solve(bipartite, "matching.coreset", ctx)
        second = solve(bipartite, "matching.coreset", ctx)
        np.testing.assert_array_equal(first.certificate, second.certificate)
        assert seq.n_children_spawned == 0

    def test_seedsequence_pool_size_is_preserved(self):
        # The stateless re-derivation must keep the full sequence identity;
        # a non-default pool_size changes the spawned streams.
        seq = np.random.SeedSequence(7, pool_size=8)
        ctx = RunContext(seed=seq, k=K)
        derived = [g.bit_generator.state for g in ctx.generators(2)]
        expected = [
            np.random.default_rng(s).bit_generator.state
            for s in np.random.SeedSequence(7, pool_size=8).spawn(2)
        ]
        assert derived == expected

    def test_generator_seed_is_not_consumed(self, bipartite):
        gen = np.random.default_rng(42)
        state_before = gen.bit_generator.state
        ctx = RunContext(seed=gen, k=K)
        first = solve(bipartite, "matching.coreset", ctx)
        second = solve(bipartite, "matching.coreset", ctx)
        np.testing.assert_array_equal(first.certificate, second.certificate)
        assert gen.bit_generator.state == state_before


class TestResult:
    def test_to_dict_roundtrips_json(self, bipartite):
        import json

        res = solve(bipartite, "matching.coreset", _ctx())
        doc = json.loads(json.dumps(res.to_dict()))
        assert doc["solver"] == "matching.coreset"
        assert doc["verified"] is True
        assert "certificate" not in doc
        with_cert = res.to_dict(include_certificate=True)
        assert len(with_cert["certificate"]) == res.size


# --------------------------------------------------------------------- #
# graph specs
# --------------------------------------------------------------------- #
class TestLoadGraph:
    def test_generator_specs(self):
        g = load_graph("planted:n=200", rng=0)
        assert isinstance(g, BipartiteGraph)
        assert g.n_vertices == 200
        assert isinstance(load_graph("gnp:n=100", rng=0), Graph)

    def test_generation_is_seeded(self):
        a = load_graph("planted:n=200,p=0.02", rng=3)
        b = load_graph("planted:n=200,p=0.02", rng=3)
        np.testing.assert_array_equal(a.edges, b.edges)

    def test_file_roundtrip(self, tmp_path, bipartite):
        from repro.graph.io import save_npz

        path = tmp_path / "g.npz"
        save_npz(path, bipartite)
        loaded = load_graph(str(path))
        np.testing.assert_array_equal(loaded.edges, bipartite.edges)

    def test_unknown_spec_rejected(self):
        with pytest.raises(ValueError, match="neither an existing file"):
            load_graph("no_such_generator:n=10")

    def test_bad_kwargs_rejected(self):
        with pytest.raises(ValueError, match="planted"):
            load_graph("planted:bogus=3")
