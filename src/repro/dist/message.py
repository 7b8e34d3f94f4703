"""The single message a machine sends to the coordinator.

In the simultaneous model each machine speaks exactly once, so the whole
information content of a protocol is captured by one :class:`Message` per
machine.  The paper's coresets send two kinds of payload — a subgraph (the
matching coreset, the VC residual) and a fixed vertex set (the VC peeled
vertices) — plus, for some baselines and extensions, a few auxiliary bits
(weight classes, counters).  A message carries all three and knows its own
exact bit cost under the standard encoding of :mod:`repro.utils.bits`.

Messages are immutable: their arrays are canonicalized to read-only int64
so a ledger or a combiner can hold references without defensive copies.
Two messages are equal when they say the same thing; like their arrays,
they are unhashable.  A message pickled from a pool or remote worker
unpickles to the same read-only int64 arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.utils.bits import BitCost

__all__ = ["Message"]


def _as_edge_array(edges: np.ndarray | Sequence | None) -> np.ndarray:
    if edges is None:
        arr = np.zeros((0, 2), dtype=np.int64)
    else:
        arr = np.asarray(edges, dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"edges must have shape (m, 2), got {arr.shape}")
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


def _as_vertex_array(vertices: np.ndarray | Sequence | None) -> np.ndarray:
    if vertices is None:
        arr = np.zeros(0, dtype=np.int64)
    else:
        arr = np.asarray(vertices, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError(
            f"fixed_vertices must have shape (s,), got shape {arr.shape}"
        )
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Message:
    """One machine's message: edges + fixed vertices + auxiliary bits.

    Parameters
    ----------
    sender:
        Index of the machine that produced this message.  The engine rejects
        messages whose sender does not match the machine that emitted them
        (a protocol cannot impersonate another player).
    edges:
        ``(m, 2)`` int64 edge array, or ``None`` for no edges.  Endpoint
        *range* is deliberately not validated here — a message does not know
        ``n``; the coordinator's union (or the ledger's bit accounting)
        applies the graph-level checks.
    fixed_vertices:
        1-D int64 array of vertex ids forming a fixed partial solution
        (e.g. the VC coreset's peeled vertices), or ``None``.
    aux_bits:
        Non-negative count of extra payload bits beyond edges and vertices
        (weight classes, flags, counters).
    """

    sender: int
    edges: np.ndarray = field(default=None)  # type: ignore[assignment]
    fixed_vertices: np.ndarray = field(default=None)  # type: ignore[assignment]
    aux_bits: int = 0

    def __post_init__(self) -> None:
        if self.sender < 0:
            raise ValueError(f"sender must be non-negative, got {self.sender}")
        if self.aux_bits < 0:
            raise ValueError(
                f"aux_bits must be non-negative, got {self.aux_bits}"
            )
        object.__setattr__(self, "edges", _as_edge_array(self.edges))
        object.__setattr__(
            self, "fixed_vertices", _as_vertex_array(self.fixed_vertices)
        )
        object.__setattr__(self, "aux_bits", int(self.aux_bits))

    # ------------------------------------------------------------------ #
    @property
    def n_edges(self) -> int:
        """Number of edges in the message."""
        return int(self.edges.shape[0])

    @property
    def n_fixed_vertices(self) -> int:
        """Number of fixed-solution vertex ids in the message."""
        return int(self.fixed_vertices.shape[0])

    def cost(self) -> BitCost:
        """The itemized cost: edge count, vertex count, auxiliary bits."""
        return BitCost(
            edge_count=self.n_edges,
            vertex_count=self.n_fixed_vertices,
            aux_bits=self.aux_bits,
        )

    def bit_size(self, n_vertices: int) -> int:
        """Exact size in bits when the underlying graph has ``n_vertices``."""
        return self.cost().total_bits(n_vertices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Message):
            return NotImplemented
        return (self.sender == other.sender
                and self.aux_bits == other.aux_bits
                and np.array_equal(self.edges, other.edges)
                and np.array_equal(self.fixed_vertices, other.fixed_vertices))

    __hash__ = None  # type: ignore[assignment]

    def __reduce__(self) -> tuple:
        return Message, (self.sender, self.edges, self.fixed_vertices,
                         self.aux_bits)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Message(sender={self.sender}, n_edges={self.n_edges}, "
            f"n_fixed_vertices={self.n_fixed_vertices}, "
            f"aux_bits={self.aux_bits})"
        )
