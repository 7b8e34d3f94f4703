"""Replay fidelity on a tiny graph: the replay reproduces ``solve()`` bit
for bit, and a replay of another run is caught."""

import pytest

from replay import (
    BLOCKING,
    ReplayMismatch,
    count_kernel_calls,
    fidelity,
    layer_medians,
    replay,
    traced_solve,
)
from repro.dist.executor import SerialExecutor
from repro.graph.edgelist import Graph
from repro.solve import RunContext, load_graph, solve


@pytest.fixture(scope="module")
def planted():
    return load_graph("planted:n=300", rng=1)


@pytest.fixture(scope="module")
def plain(planted):
    return Graph(planted.n_vertices, planted.edges)


def test_matching_replay_reproduces_solve(planted):
    result, row = traced_solve(planted, "matching", 7, 4)
    assert set(BLOCKING) <= set(row)
    # Every edge reaches exactly one piece; the union is the messages.
    assert row["matching.kernel_edges"] == (planted.n_edges
                                            + row["dist.message_edges"])
    assert result.verified


def test_cover_replay_through_an_executor_instance(plain):
    with SerialExecutor() as executor:
        result, row = traced_solve(plain, "vertex_cover", 7, 4, executor)
    assert result.verified
    assert "matching.kernel_ms" not in row  # no kernel on this path


def test_a_replay_of_another_seed_is_caught(planted):
    result = solve(planted, "matching.coreset", RunContext(seed=7, k=4))
    same = replay(planted, "matching", 7, 4, SerialExecutor())
    other = replay(planted, "matching", 8, 4, SerialExecutor())
    assert fidelity(result, same) == []
    assert "certificate" in fidelity(result, other)


def test_traced_solve_raises_on_a_mismatch(planted, monkeypatch):
    import replay as replay_module

    real = replay_module.replay
    monkeypatch.setattr(replay_module, "replay",
                        lambda g, p, seed, k, ex: real(g, p, seed + 1, k, ex))
    with pytest.raises(ReplayMismatch):
        traced_solve(planted, "matching", 7, 4)


def test_kernel_calls_are_counted(planted, plain):
    # k pieces plus the union on the matching path; none for the cover of
    # a non-bipartite graph (greedy combiner, peeling summarizers).
    assert count_kernel_calls(lambda: solve(
        planted, "matching.coreset", RunContext(seed=1, k=4))) == 5
    assert count_kernel_calls(lambda: solve(
        plain, "vertex_cover.coreset", RunContext(seed=1, k=4))) == 0


def test_layer_medians_cover_the_untraced_solve():
    rows = [dict.fromkeys(BLOCKING, 1.0) | {"untraced_ms": 8.0},
            dict.fromkeys(BLOCKING, 3.0) | {"untraced_ms": 24.0}]
    layer = layer_medians(rows)
    assert layer["solve.facade_ms"] == pytest.approx(16.0 - 12.0)
    assert layer["trace.coverage"] == pytest.approx(12.0 / 16.0)
