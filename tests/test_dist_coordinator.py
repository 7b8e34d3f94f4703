"""Tests for the simultaneous-protocol engine."""

import numpy as np
import pytest

from repro.dist.coordinator import (
    Coordinator,
    SimultaneousProtocol,
    run_simultaneous,
)
from repro.dist.machine import Machine
from repro.dist.message import Message
from repro.graph.bipartite import BipartiteGraph
from repro.graph.generators import bipartite_gnp, gnp
from repro.graph.partition import random_k_partition
from repro.utils.rng import spawn_generators


# Module-level summarizers (not closures) so this file also runs under
# REPRO_EXECUTOR=processes, which pickles them to worker processes.
def _echo_summarize(piece, machine_index, rng, public=None):
    return Message(sender=machine_index, edges=piece.edges)


def _union_combine(coordinator, messages):
    return coordinator.union_graph(messages)


def echo_protocol():
    """A protocol whose coreset is the whole piece (send-everything)."""
    return SimultaneousProtocol(name="echo", summarizer=_echo_summarize,
                                combine=_union_combine)


def _token_checking_summarize(piece, machine_index, rng, public=None):
    assert public == {"token": 42}
    return Message(sender=machine_index)


def _count_combine(coordinator, messages):
    return len(messages)


def _drawing_summarize(piece, machine_index, rng, public=None):
    return Message(sender=machine_index, aux_bits=int(rng.integers(2**30)))


def _aux_combine(coordinator, messages):
    return [m.aux_bits for m in messages]


class TestRunSimultaneous:
    def test_one_message_per_machine(self, rng):
        g = gnp(30, 0.2, rng)
        part = random_k_partition(g, 5, rng)
        res = run_simultaneous(echo_protocol(), part, rng)
        assert len(res.messages) == 5
        assert sorted(m.sender for m in res.messages) == list(range(5))

    def test_union_reconstructs_graph(self, rng):
        g = gnp(30, 0.2, rng)
        part = random_k_partition(g, 4, rng)
        res = run_simultaneous(echo_protocol(), part, rng)
        assert res.output == g

    def test_total_bits_matches_ledger(self, rng):
        g = gnp(20, 0.3, rng)
        part = random_k_partition(g, 3, rng)
        res = run_simultaneous(echo_protocol(), part, rng)
        assert res.total_bits == res.ledger.total_bits()
        assert res.ledger.total_edges() == g.n_edges

    def test_reproducible_given_seed(self, rng):
        from repro.core.protocols import matching_coreset_protocol

        g = bipartite_gnp(30, 30, 0.1, 5)
        part = random_k_partition(g, 4, 6)
        p = matching_coreset_protocol()
        a = run_simultaneous(p, part, 7).output
        b = run_simultaneous(p, part, 7).output
        np.testing.assert_array_equal(a, b)

    def test_public_setup_invoked(self, rng):
        calls = []

        # The setup closure is fine under any backend: public_setup always
        # runs in the calling process, only the summarizer is shipped.
        def setup(graph, k, gen):
            calls.append(k)
            return {"token": 42}

        proto = SimultaneousProtocol("t", _token_checking_summarize,
                                     _count_combine, public_setup=setup)
        g = gnp(10, 0.3, rng)
        part = random_k_partition(g, 3, rng)
        res = run_simultaneous(proto, part, rng)
        assert res.output == 3
        assert calls == [3]


    def test_streams_are_the_spawned_children(self):
        """Each task carries its machine's spawned ``SeedSequence``, not a
        generator; machine ``i`` draws as ``spawn_generators(seed, k +
        1)[i]`` and the public setup as the last child."""
        from repro.dist.executor import SerialExecutor

        class Recording(SerialExecutor):
            def map(self, fn, tasks, **kw):
                self.tasks = list(tasks)
                return super().map(fn, self.tasks, **kw)

        public = []
        proto = SimultaneousProtocol(
            "draws", _drawing_summarize, _aux_combine,
            public_setup=lambda graph, k, gen: public.append(
                int(gen.integers(2**30))))
        part = random_k_partition(gnp(20, 0.3, 1), 5, 2)
        with Recording() as ex:
            res = run_simultaneous(proto, part, 9, executor=ex)
        assert all(isinstance(task[3], np.random.SeedSequence)
                   for task in ex.tasks)
        gens = spawn_generators(9, 6)
        assert res.output == [int(g.integers(2**30)) for g in gens[:5]]
        assert public == [int(gens[5].integers(2**30))]
        assert res.output == run_simultaneous(proto, part, 9).output


class TestCoordinator:
    def test_union_graph_bipartite_template(self, rng):
        g = bipartite_gnp(5, 5, 0.5, rng)
        coord = Coordinator(n_vertices=10, template=g)
        msgs = [Message(sender=0, edges=g.edges[:2])]
        u = coord.union_graph(msgs)
        assert isinstance(u, BipartiteGraph)

    def test_union_graph_empty_messages(self):
        coord = Coordinator(n_vertices=4)
        assert coord.union_graph([]).n_edges == 0

    def test_fixed_vertices_union(self):
        msgs = [
            Message(sender=0, fixed_vertices=np.array([3, 1])),
            Message(sender=1, fixed_vertices=np.array([1, 2])),
        ]
        np.testing.assert_array_equal(
            Coordinator.fixed_vertices(msgs), [1, 2, 3]
        )

    def test_fixed_vertices_empty(self):
        assert Coordinator.fixed_vertices([]).shape == (0,)


class TestMachine:
    def test_sender_mismatch_detected(self, rng):
        from repro.graph.edgelist import Graph

        def dishonest(piece, machine_index, rng, public=None):
            return Message(sender=machine_index + 1)

        m = Machine(index=0, piece=Graph(3), rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="sender"):
            m.summarize(dishonest)
