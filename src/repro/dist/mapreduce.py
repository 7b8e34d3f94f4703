"""The MapReduce job log and the MPC model's per-machine memory cap.

The paper's MapReduce corollaries (:mod:`repro.core.mapreduce_algos`) run
with ``k = √n`` machines of memory Õ(n·√n) and finish in at most two
rounds: a *shuffle* round that turns an arbitrary edge placement into the
random k-partitioning, and a *compute* round where every machine ships its
coreset to one machine.  Both run on the simultaneous engine; the
coordinator records each round in a :class:`MapReduceJob`, so experiments
report round counts, shuffle volume and peak memory without instrumenting
the algorithms, and checks every machine's edge count against the memory
cap — the MPC model's defining constraint — after loading and after every
round, raising :class:`MemoryCapExceeded` rather than simulating a machine
that could not exist.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

__all__ = [
    "MapReduceJob",
    "MemoryCapExceeded",
    "RoundRecord",
]


class MemoryCapExceeded(RuntimeError):
    """A machine would hold more edges than its memory budget allows."""


@dataclass(frozen=True)
class RoundRecord:
    """One round of the job log."""

    kind: str  # "shuffle" or "compute"
    total_edges_moved: int
    machine_sizes: np.ndarray  # per-machine edge counts after the round


@dataclass
class MapReduceJob:
    """The accumulated log of one MapReduce execution."""

    rounds: List[RoundRecord] = field(default_factory=list)
    peak_machine_edges: int = 0

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)

    @property
    def total_shuffled_edges(self) -> int:
        """Edges that crossed machines, summed over all rounds."""
        return sum(r.total_edges_moved for r in self.rounds)

    def hold(self, sizes: np.ndarray, memory_cap_edges: Optional[int],
             when: str) -> None:
        """Check the machines' edge counts ``sizes`` after ``when`` against
        the per-machine cap (``None`` for none), and track the peak."""
        sizes = np.asarray(sizes, dtype=np.int64)
        worst = int(sizes.argmax())
        if memory_cap_edges is not None and sizes[worst] > memory_cap_edges:
            raise MemoryCapExceeded(
                f"after {when}: machine {worst} holds {int(sizes[worst])} "
                f"edges, exceeding the memory cap of "
                f"{memory_cap_edges} edges"
            )
        self.peak_machine_edges = max(self.peak_machine_edges,
                                      int(sizes[worst]))

    def end_round(self, kind: str, moved: int, sizes: np.ndarray,
                  memory_cap_edges: Optional[int]) -> None:
        """Log a round that moved ``moved`` edges across machines and left
        ``sizes`` edges on them, once they pass the cap."""
        sizes = np.asarray(sizes, dtype=np.int64)
        self.hold(sizes, memory_cap_edges, f"{kind} round {self.n_rounds + 1}")
        self.rounds.append(RoundRecord(kind, moved, sizes))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MapReduceJob(n_rounds={self.n_rounds}, "
            f"peak_machine_edges={self.peak_machine_edges}, "
            f"total_shuffled_edges={self.total_shuffled_edges})"
        )
