"""Tests for repro.dist.message and repro.dist.ledger."""

import pickle

import numpy as np
import pytest

from repro.dist.ledger import CommunicationLedger
from repro.dist.message import Message
from repro.utils.bits import edge_bits, vertex_bits


class TestMessage:
    def test_defaults_empty(self):
        m = Message(sender=0)
        assert m.n_edges == 0
        assert m.n_fixed_vertices == 0
        assert m.bit_size(100) == 0

    def test_bit_size(self):
        m = Message(sender=1, edges=np.array([[0, 1], [2, 3]]),
                    fixed_vertices=np.array([4]), aux_bits=3)
        n = 1000
        assert m.bit_size(n) == 2 * edge_bits(n) + vertex_bits(n) + 3

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="shape"):
            Message(sender=0, edges=np.array([[1, 2, 3]]))

    def test_negative_aux_rejected(self):
        with pytest.raises(ValueError):
            Message(sender=0, aux_bits=-1)

    def test_cost_breakdown(self):
        m = Message(sender=0, edges=np.array([[0, 1]]),
                    fixed_vertices=np.array([2, 3]))
        c = m.cost()
        assert c.edge_count == 1
        assert c.vertex_count == 2


class TestMessageEquality:
    def test_equal_messages_compare_equal(self):
        assert Message(0, [[0, 1]]) == Message(0, [[0, 1]])
        assert Message(0) == Message(0)
        assert Message(2, [[0, 1]], [5], 3) == Message(
            2, np.array([[0, 1]], dtype=np.int32), [5], 3)

    @pytest.mark.parametrize("other", [
        Message(1, [[0, 1]], [5], 3),
        Message(0, [[0, 2]], [5], 3),
        Message(0, [[0, 1], [2, 3]], [5], 3),
        Message(0, [[0, 1]], [6], 3),
        Message(0, [[0, 1]], None, 3),
        Message(0, [[0, 1]], [5], 4),
    ])
    def test_any_field_tells_messages_apart(self, other):
        assert Message(0, [[0, 1]], [5], 3) != other
        assert not Message(0, [[0, 1]], [5], 3) == other

    def test_other_types_are_not_equal(self):
        assert Message(0) != (0, None, None, 0)
        assert Message(0) != "Message(0)"

    def test_unhashable(self):
        with pytest.raises(TypeError, match="unhashable"):
            hash(Message(0))
        with pytest.raises(TypeError):
            {Message(0, [[0, 1]])}


class TestMessageWire:
    @pytest.mark.parametrize("edges, fixed", [
        (None, None),
        (np.zeros((0, 2), dtype=np.int64), [7]),
        ([[0, 1], [2, 65535]], [3, 4]),
        ([[-1, 2]], [-5]),
        ([[0, 2**32]], [2**40]),
    ])
    def test_round_trip_is_read_only_int64(self, edges, fixed):
        message = Message(3, edges, fixed, aux_bits=9)
        copy = pickle.loads(pickle.dumps(message))
        assert copy == message
        assert copy.edges.shape == message.edges.shape
        for array in (copy.edges, copy.fixed_vertices):
            assert array.dtype == np.int64
            assert not array.flags.writeable


class TestLedger:
    def test_per_player_accounting(self):
        led = CommunicationLedger(n_vertices=1024, k=3)
        led.record(Message(sender=0, edges=np.array([[0, 1]])))
        led.record(Message(sender=2, fixed_vertices=np.array([5])))
        led.record(Message(sender=0, aux_bits=7))
        per = led.per_player_bits()
        assert per.shape == (3,)
        assert per[0] == edge_bits(1024) + 7
        assert per[1] == 0
        assert per[2] == vertex_bits(1024)
        assert led.total_bits() == per.sum()
        assert led.max_player_bits() == per.max()

    def test_sender_range_checked(self):
        led = CommunicationLedger(n_vertices=10, k=2)
        with pytest.raises(ValueError, match="sender"):
            led.record(Message(sender=5))

    def test_edge_and_vertex_totals(self):
        led = CommunicationLedger(n_vertices=10, k=2)
        led.record(Message(sender=0, edges=np.array([[0, 1], [2, 3]])))
        led.record(Message(sender=1, fixed_vertices=np.array([1, 2, 3])))
        assert led.total_edges() == 2
        assert led.total_fixed_vertices() == 3

    def test_summary_keys(self):
        led = CommunicationLedger(n_vertices=10, k=2)
        led.record(Message(sender=0, edges=np.array([[0, 1]])))
        s = led.summary()
        for key in ("k", "total_bits", "max_player_bits", "mean_player_bits",
                    "total_edges", "total_fixed_vertices"):
            assert key in s

    def test_empty_ledger(self):
        led = CommunicationLedger(n_vertices=10, k=2)
        assert led.total_bits() == 0
        assert led.max_player_bits() == 0
