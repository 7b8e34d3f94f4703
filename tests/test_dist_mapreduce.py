"""Tests for the MapReduce job log and the per-machine memory cap.

The hand-sized input is six disjoint edges on two machines.  Every
machine's coreset is then its whole piece (a maximum matching of disjoint
edges is all of them, and at n = 12, k = 2 VC peeling stops before its
first level), so each count below follows from the placement and the
route draws alone.
"""

import numpy as np
import pytest

from repro.core.mapreduce_algos import mapreduce_matching, mapreduce_vertex_cover
from repro.dist.executor import SerialExecutor
from repro.dist.mapreduce import MemoryCapExceeded
from repro.graph.edgelist import Graph
from repro.utils.rng import spawn_generators

#: Rows 0-5 are the edges (0, 1), (2, 3), ..., (10, 11).
DISJOINT = Graph(12, [(2 * i, 2 * i + 1) for i in range(6)])
#: Per solver, a seed that draws the routes the hand counts below read.
SEEDS = {mapreduce_matching: 7, mapreduce_vertex_cover: 4}
SOLVERS = list(SEEDS)


class Recording(SerialExecutor):
    """A serial executor that counts its barriers."""

    calls = 0

    def map(self, fn, tasks, **kw):
        self.calls += 1
        return super().map(fn, tasks, **kw)


def _draws(solver):
    """Each machine's three route destinations and the random placement
    of the six rows, drawn as the solver draws them: the matching routes
    with ``rng`` itself, the cover with the first of two spawned streams."""
    if solver is mapreduce_vertex_cover:
        gen = spawn_generators(SEEDS[solver], 2)[0]
    else:
        gen = np.random.default_rng(SEEDS[solver])
    routes = spawn_generators(gen, 2)
    return ([r.integers(0, 2, size=3).tolist() for r in routes],
            gen.integers(0, 2, size=6).tolist())


def _solve(solver, **kw):
    return solver(DISJOINT, k=2, rng=SEEDS[solver], **kw)


def _log(job):
    return [(r.kind, r.total_edges_moved, r.machine_sizes.tolist())
            for r in job.rounds]


@pytest.mark.parametrize("solver", SOLVERS)
class TestRoundLog:
    def test_two_rounds_from_a_contiguous_placement(self, solver):
        # Load: machine 0 holds rows 0-2, machine 1 rows 3-5.  Machine 0
        # routes its rows to [1, 0, 0], machine 1 to [0, 1, 0]: rows 0, 3
        # and 5 move, so machine 0 keeps 1, 2 and gets 3, 5, and machine 1
        # keeps 4 and gets 0.  Round 2 moves machine 1's two edges.
        assert _draws(solver)[0] == [[1, 0, 0], [0, 1, 0]]
        res = _solve(solver)
        assert _log(res.job) == [("shuffle", 3, [4, 2]),
                                 ("compute", 2, [6, 0])]
        assert res.job.n_rounds == 2
        assert res.job.total_shuffled_edges == 5
        assert res.job.peak_machine_edges == 6

    def test_one_round_from_a_prerandomized_input(self, solver):
        # The placement is round 2's partition, three rows per machine;
        # machine 1's three go to machine 0 in the only round.
        assert sorted(_draws(solver)[1]) == [0, 0, 0, 1, 1, 1]
        res = _solve(solver, assume_random_input=True)
        assert _log(res.job) == [("compute", 3, [6, 0])]
        assert res.job.n_rounds == 1
        assert res.job.total_shuffled_edges == 3
        assert res.job.peak_machine_edges == 6

    def test_one_machine_moves_nothing(self, solver):
        res = solver(DISJOINT, k=1, rng=0)
        assert _log(res.job) == [("shuffle", 0, [6]), ("compute", 0, [6])]
        assert res.job.peak_machine_edges == 6


@pytest.mark.parametrize("solver", SOLVERS)
class TestMemoryCap:
    #: One less than the largest count at load (3), after the shuffle (4)
    #: and on the receiver (6), from the round log above.
    CAPS = {"load": 2, "shuffle round 1": 3, "compute round 2": 5}

    @pytest.mark.parametrize("when", list(CAPS))
    def test_trips_where_a_machine_overflows(self, solver, when):
        ex = Recording()
        with pytest.raises(MemoryCapExceeded,
                           match=f"^after {when}: machine 0 holds "
                                 f"{self.CAPS[when] + 1} edges"):
            _solve(solver, memory_cap_edges=self.CAPS[when], executor=ex)
        # Load and shuffle are checked on the coordinator before any
        # machine summarizes; the receiver's total after round 2's barrier.
        assert ex.calls == (1 if when == "compute round 2" else 0)

    def test_receiver_total_at_the_cap_passes(self, solver):
        res = _solve(solver, memory_cap_edges=6)
        assert res.job.peak_machine_edges == 6

    def test_prerandomized_receiver_trips_in_round_one(self, solver):
        with pytest.raises(MemoryCapExceeded,
                           match="^after compute round 1: machine 0 holds 6"):
            _solve(solver, memory_cap_edges=5, assume_random_input=True)

    def test_negative_cap_is_rejected(self, solver):
        with pytest.raises(ValueError, match="non-negative"):
            _solve(solver, memory_cap_edges=-1)
