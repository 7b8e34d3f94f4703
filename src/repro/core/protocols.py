"""Simultaneous protocols built from the coresets.

Each factory returns a :class:`~repro.dist.coordinator.SimultaneousProtocol`
ready to run via :func:`~repro.dist.coordinator.run_simultaneous`:

* :func:`matching_coreset_protocol` — Result 1 for matching: each machine
  sends a maximum matching of its piece; the coordinator solves the union.
  Total communication Õ(nk).
* :func:`subsampled_matching_protocol` — Remark 5.2: communication
  Õ(nk/α²) for an O(α)-approximation (optimal by Theorem 5).
* :func:`vertex_cover_coreset_protocol` — Result 1 for vertex cover: each
  machine sends peeled vertices + the sparse residual; the coordinator adds
  a cover of the residual union.  Õ(nk) communication.
* :func:`grouped_vertex_cover_protocol` — Remark 5.8: vertices are grouped
  into super-vertices of size Θ(α/log n) *consistently across machines*
  (the grouping is public-randomness setup), the VC coreset runs on the
  contracted multigraph, and the coordinator expands covered groups.
  Õ(nk/α) communication for an O(α)-approximation (optimal by Theorem 6).

All summarizers here are module-level dataclass callables rather than
closures: a summarizer is the one protocol component the engine may ship to
worker *processes* (``run_simultaneous(..., executor="processes")``), and
pickle cannot serialize a closure.  Combine steps and public setups always
run in the coordinator's process, so they may stay closures.

.. deprecated::
    As *entry points* the factories here are superseded by the unified
    solver facade — ``repro.solve.solve(graph, "matching.coreset",
    RunContext(seed=s, k=k))`` partitions, runs, and verifies in one call
    (see ``docs/SOLVER_API.md``).  The factories remain the protocol
    definitions the facade adapters call and keep working unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.compose import (
    CoverCombiner,
    MatchCombiner,
    compose_cover,
    compose_matching,
)
from repro.core.matching_coreset import matching_coreset_message
from repro.core.vc_coreset import vc_coreset
from repro.dist.coordinator import Coordinator, SimultaneousProtocol
from repro.dist.message import Message
from repro.graph.edgelist import Graph
from repro.matching.api import Algorithm

__all__ = [
    "matching_coreset_protocol",
    "subsampled_matching_protocol",
    "vertex_cover_coreset_protocol",
    "grouped_vertex_cover_protocol",
    "GroupingSetup",
    "MatchingCoresetSummarizer",
    "VCCoresetSummarizer",
    "GroupedVCSummarizer",
]


# --------------------------------------------------------------------- #
# matching protocols
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class MatchingCoresetSummarizer:
    """Picklable Theorem 1 / Remark 5.2 summarizer (``alpha=1`` is Thm 1).

    Sends an (optionally subsampled) maximum matching of the piece.  A
    dataclass instead of a closure so the ``processes`` executor can ship
    it to workers.
    """

    alpha: float = 1.0
    algorithm: Algorithm = "auto"

    def __call__(self, piece, machine_index, rng, public=None) -> Message:
        return matching_coreset_message(
            piece, machine_index, rng, public,
            alpha=self.alpha, algorithm=self.algorithm,
        )


def matching_coreset_protocol(
    combiner: MatchCombiner = "exact",
    algorithm: Algorithm = "auto",
) -> SimultaneousProtocol[np.ndarray]:
    """Theorem 1 as a simultaneous protocol."""

    def combine(coordinator: Coordinator, messages: list[Message]) -> np.ndarray:
        return compose_matching(
            coordinator.n_vertices,
            [m.edges for m in messages],
            combiner=combiner,
            template=coordinator.template,
        )

    return SimultaneousProtocol(
        name=f"matching-coreset[{combiner}]",
        summarizer=MatchingCoresetSummarizer(alpha=1.0, algorithm=algorithm),
        combine=combine,
    )


def subsampled_matching_protocol(
    alpha: float,
    combiner: MatchCombiner = "exact",
    algorithm: Algorithm = "auto",
) -> SimultaneousProtocol[np.ndarray]:
    """Remark 5.2 as a simultaneous protocol: α-approximation with expected
    Õ(nk/α²) communication."""
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")

    def combine(coordinator: Coordinator, messages: list[Message]) -> np.ndarray:
        return compose_matching(
            coordinator.n_vertices,
            [m.edges for m in messages],
            combiner=combiner,
            template=coordinator.template,
        )

    return SimultaneousProtocol(
        name=f"subsampled-matching[alpha={alpha:g}]",
        summarizer=MatchingCoresetSummarizer(alpha=alpha, algorithm=algorithm),
        combine=combine,
    )


# --------------------------------------------------------------------- #
# vertex-cover protocols
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class VCCoresetSummarizer:
    """Picklable Theorem 2 summarizer: peeled vertices + sparse residual."""

    k: int
    log_slack: float = 4.0

    def __call__(self, piece, machine_index, rng, public=None) -> Message:
        del rng, public  # peeling is deterministic
        result = vc_coreset(piece, k=self.k, log_slack=self.log_slack)
        return Message(
            sender=machine_index,
            edges=result.residual.edges,
            fixed_vertices=result.fixed_vertices,
        )


def vertex_cover_coreset_protocol(
    k: int,
    combiner: CoverCombiner = "auto",
    log_slack: float = 4.0,
) -> SimultaneousProtocol[np.ndarray]:
    """Theorem 2 as a simultaneous protocol.

    ``k`` must match the partitioning's machine count — the peeling
    thresholds depend on it (each machine knows k in the model).
    """

    def combine(coordinator: Coordinator, messages: list[Message]) -> np.ndarray:
        return compose_cover(
            coordinator.n_vertices,
            [m.edges for m in messages],
            [m.fixed_vertices for m in messages],
            combiner=combiner,
            template=coordinator.template,
        )

    return SimultaneousProtocol(
        name=f"vc-coreset[k={k},{combiner}]",
        summarizer=VCCoresetSummarizer(k=k, log_slack=log_slack),
        combine=combine,
    )


# --------------------------------------------------------------------- #
# Remark 5.8: grouped vertex cover
# --------------------------------------------------------------------- #
class GroupingSetup:
    """Public setup for the grouped protocol: a random but *shared* mapping
    of the n vertices into ``n_groups`` super-vertices of (near-)equal size.

    The mapping is sampled from public randomness, so all machines contract
    their pieces identically with zero coordination — exactly the
    "deterministically but consistently across players" device of
    Remark 5.8 (random grouping also satisfies the remark; consistency is
    what matters).
    """

    def __init__(self, n: int, group_size: int, rng: np.random.Generator) -> None:
        if group_size < 1:
            raise ValueError(f"group size must be >= 1, got {group_size}")
        self.n = n
        self.group_size = group_size
        self.n_groups = max(1, math.ceil(n / group_size))
        perm = rng.permutation(n)
        mapping = np.empty(n, dtype=np.int64)
        mapping[perm] = np.arange(n, dtype=np.int64) % self.n_groups
        self.mapping = mapping

    def expand(self, groups: np.ndarray) -> np.ndarray:
        """All original vertices belonging to the given super-vertices."""
        groups = np.asarray(groups, dtype=np.int64)
        member = np.isin(self.mapping, groups)
        return np.flatnonzero(member).astype(np.int64)


@dataclass(frozen=True)
class GroupedVCSummarizer:
    """Picklable Remark 5.8 summarizer: VC coreset of the contracted graph.

    Requires the shared :class:`GroupingSetup` as its ``public`` object
    (itself picklable — a plain mapping array — so it ships to process
    workers along with the summarizer).
    """

    k: int
    log_slack: float = 4.0

    def __call__(self, piece, machine_index, rng,
                 public: GroupingSetup | None = None) -> Message:
        del rng
        if public is None:
            raise ValueError("grouped protocol requires its public setup")
        # Edges internal to a group contract to self-loops, which carry no
        # information in the contracted graph — but they still must be
        # covered.  A self-loop on group A forces A into the cover, so such
        # groups are shipped as part of the fixed solution (they are few:
        # an edge is internal w.p. ~group_size/n).
        mapped = public.mapping[piece.edges] if piece.n_edges else \
            np.zeros((0, 2), dtype=np.int64)
        internal = mapped[:, 0] == mapped[:, 1] if mapped.size else \
            np.zeros(0, dtype=bool)
        forced_groups = np.unique(mapped[internal, 0]) if internal.any() else \
            np.zeros(0, dtype=np.int64)
        contracted = Graph(public.n_groups, mapped[~internal] if mapped.size
                           else mapped)
        result = vc_coreset(contracted, n=public.n_groups, k=self.k,
                            log_slack=self.log_slack)
        fixed = np.unique(np.concatenate([result.fixed_vertices, forced_groups]))
        return Message(
            sender=machine_index,
            edges=result.residual.edges,
            fixed_vertices=fixed,
        )


def grouped_vertex_cover_protocol(
    k: int,
    alpha: float,
    combiner: CoverCombiner = "two_approx",
    log_slack: float = 4.0,
) -> SimultaneousProtocol[np.ndarray]:
    """Remark 5.8: α-approximate VC with Õ(nk/α) total communication.

    Group size is ``max(1, floor(alpha / log2 n))`` so that the O(log n)
    blow-up of the coreset times the group expansion stays O(α).
    """
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")

    def setup(graph: Graph, k_: int, rng: np.random.Generator) -> GroupingSetup:
        del k_
        n = graph.n_vertices
        group_size = max(1, int(alpha / max(1.0, math.log2(max(n, 2)))))
        return GroupingSetup(n, group_size, rng)

    def combine(coordinator: Coordinator, messages: list[Message]) -> np.ndarray:
        # Messages live in super-vertex id space; we cannot use the template.
        setup_obj: GroupingSetup = combine.setup_obj  # type: ignore[attr-defined]
        group_cover = compose_cover(
            setup_obj.n_groups,
            [m.edges for m in messages],
            [m.fixed_vertices for m in messages],
            combiner=combiner,
            template=None,
        )
        return setup_obj.expand(group_cover)

    def setup_and_remember(graph: Graph, k_: int, rng: np.random.Generator):
        obj = setup(graph, k_, rng)
        combine.setup_obj = obj  # type: ignore[attr-defined]
        return obj

    return SimultaneousProtocol(
        name=f"grouped-vc[alpha={alpha:g}]",
        summarizer=GroupedVCSummarizer(k=k, log_slack=log_slack),
        combine=combine,
        public_setup=setup_and_remember,
    )
