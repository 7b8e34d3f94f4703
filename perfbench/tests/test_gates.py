"""The correctness gates on real results and on doctored ones."""

from gates import check_result, ledger_bits
from repro.solve import RunContext, load_graph, solve


def test_real_results_pass_every_gate():
    graph = load_graph("planted:n=400", rng=3)
    half = graph.n_vertices / 2  # planted optimum and cover lower bound
    for solver in ("matching.coreset", "vertex_cover.coreset"):
        doc = solve(graph, solver, RunContext(seed=5, k=4)).to_dict()
        failed, ratio = check_result(doc, graph.n_vertices, matching_opt=half,
                                     cover_lower_bound=half)
        assert failed == []
        assert ratio >= 1.0


def test_each_failure_is_named():
    doc = {"problem": "matching", "value": 10.0, "verified": False,
           "stats": {"total_bits": 1, "total_edges": 3,
                     "total_fixed_vertices": 0}}
    failed, ratio = check_result(doc, 1024, matching_opt=200)
    assert failed == ["verified", "ratio", "bits"]
    assert ratio == 20.0


def test_ratio_is_unchecked_without_a_bound():
    doc = {"problem": "vertex_cover", "value": 10.0, "verified": True,
           "stats": {}}
    assert check_result(doc, 64) == ([], None)


def test_ledger_bit_formula():
    # ceil(log2 1000) = 10 bits per vertex id, two per edge.
    assert ledger_bits(1000, 3, 2) == 2 * 10 * 3 + 10 * 2
