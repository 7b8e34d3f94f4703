"""Adapter registrations: every algorithm entry point, behind one API.

Each function here is a thin, module-level adapter that ports one legacy
entry point onto the :mod:`repro.solve.registry` contract
``fn(graph, ctx, **params) -> (certificate, stats)``.  The adapters do not
reimplement anything — the legacy functions remain the single source of
truth for each algorithm — they only normalize three things:

* **randomness** — each adapter documents how many independent streams it
  draws from ``ctx.generators(...)`` and what each one is for.  Given the
  same :class:`~repro.solve.context.RunContext` seed, a solve is
  bit-identical to calling the legacy entry point with the same derived
  generators (``tests/test_solve_api.py`` asserts exactly this equivalence
  for every registered solver);
* **substrate** — executor/workers resolve once per solve through
  ``ctx.executor_scope()``;
* **metrics** — model-specific result objects (ledgers, MapReduce jobs,
  filtering logs) flatten into the common ``stats`` dict.

Stream conventions by model:

========== =============================================================
offline    deterministic solvers draw nothing; randomized greedy draws 1
coreset    2 streams: ``(partition_rng, run_rng)`` — partition first
mapreduce  1 stream, handed to the legacy function's ``rng=`` (which
           spawns its own internal children, exactly as before)
streaming  1 stream for the arrival order
========== =============================================================
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

import numpy as np

from repro.solve.context import RunContext
from repro.solve.registry import solver

Certificate = np.ndarray
Stats = Dict[str, Any]
Adapted = Tuple[Certificate, Stats]


# --------------------------------------------------------------------- #
# shared helpers
# --------------------------------------------------------------------- #
def _run_protocol(protocol, graph, ctx: RunContext, k: int,
                  partition=None) -> Adapted:
    """Partition + run one simultaneous protocol (the coreset-model core).

    Streams: ``(partition_rng, run_rng) = ctx.generators(2)`` — *both*
    drawn even when ``partition`` is supplied, so a pre-built partition
    (e.g. the cached partition view the serving layer reuses across
    requests) leaves ``run_rng`` untouched:
    supplying the partition ``random_k_partition`` *would* have built is
    bit-identical to letting this function build it.  The partition gets
    the ``SeedSequence`` under ``partition_rng``
    (:meth:`~repro.solve.context.RunContext.seed_sequences`), which draws
    the same assignment but lets each machine draw it for itself.
    """
    from repro.dist.coordinator import run_simultaneous
    from repro.graph.partition import random_k_partition

    partition_seq, run_seq = ctx.seed_sequences(2)
    run_rng = np.random.default_rng(run_seq)
    if partition is None:
        partition = random_k_partition(graph, k, partition_seq)
    else:
        if not all(hasattr(partition, a) for a in ("graph", "k", "recipe")):
            raise ValueError(
                f"partition= must be a partitioned graph (graph/k/recipe()), "
                f"got {type(partition).__name__}"
            )
        if partition.k != k:
            raise ValueError(
                f"partition has k={partition.k}, context asks k={k}"
            )
        if partition.graph is not graph and (
            partition.graph.n_vertices != graph.n_vertices
            or partition.graph.n_edges != graph.n_edges
        ):
            raise ValueError(
                "partition= was built over a different graph"
            )
    with ctx.executor_scope() as backend:
        res = run_simultaneous(protocol, partition, run_rng,
                               executor=backend)
    stats: Stats = {
        "k": k,
        "protocol": protocol.name,
        "total_bits": res.ledger.total_bits(),
        "total_edges": res.ledger.total_edges(),
        "total_fixed_vertices": res.ledger.total_fixed_vertices(),
        "max_player_bits": res.ledger.max_player_bits(),
    }
    return res.output, stats


# --------------------------------------------------------------------- #
# matching — offline
# --------------------------------------------------------------------- #
@solver(
    "matching.maximum",
    problem="matching", model="offline", guarantee="exact",
    description="Maximum matching (Hopcroft–Karp on bipartite inputs, "
                "blossom otherwise) — the paper's black-box ALG",
    params={"algorithm": "auto"},
)
def _maximum_matching(graph, ctx: RunContext, algorithm: str) -> Adapted:
    """Deterministic; draws no streams."""
    from repro.matching.api import maximum_matching

    return maximum_matching(graph, algorithm=algorithm), {}


@solver(
    "matching.hopcroft_karp",
    problem="matching", model="offline", guarantee="exact",
    bipartite_only=True,
    description="Hopcroft–Karp maximum bipartite matching",
)
def _hopcroft_karp(graph, ctx: RunContext) -> Adapted:
    """Deterministic; draws no streams."""
    from repro.matching.api import maximum_matching

    return maximum_matching(graph, algorithm="hopcroft_karp"), {}


@solver(
    "matching.blossom",
    problem="matching", model="offline", guarantee="exact",
    description="Blossom maximum matching on general graphs",
)
def _blossom(graph, ctx: RunContext) -> Adapted:
    """Deterministic; draws no streams."""
    from repro.matching.api import maximum_matching

    return maximum_matching(graph, algorithm="blossom"), {}


@solver(
    "matching.greedy_maximal",
    problem="matching", model="offline", guarantee="2-approx",
    description="Greedy maximal matching under a chosen edge-order policy",
    params={"order": "random"},
)
def _greedy_maximal(graph, ctx: RunContext, order: str) -> Adapted:
    """Streams: 1 (the edge-order shuffle; unused for order='input')."""
    from repro.matching.api import maximal_matching

    (rng,) = ctx.generators(1)
    return maximal_matching(graph, rng=rng, order=order), {"order": order}


# --------------------------------------------------------------------- #
# matching — coreset (simultaneous-communication model)
# --------------------------------------------------------------------- #
@solver(
    "matching.coreset",
    problem="matching", model="coreset", guarantee="O(1)-approx",
    uses_k=True,
    description="Theorem 1 randomized composable coreset: each machine "
                "sends a maximum matching of its piece (Õ(nk) bits total)",
    params={"combiner": "exact", "algorithm": "auto", "partition": None},
)
def _matching_coreset(graph, ctx: RunContext, combiner: str,
                      algorithm: str, partition=None) -> Adapted:
    """Streams: 2 — see :func:`_run_protocol`."""
    from repro.core.protocols import matching_coreset_protocol

    protocol = matching_coreset_protocol(combiner=combiner,
                                         algorithm=algorithm)
    return _run_protocol(protocol, graph, ctx,
                         ctx.require_k("matching.coreset"),
                         partition=partition)


@solver(
    "matching.subsampled_coreset",
    problem="matching", model="coreset", guarantee="O(alpha)-approx",
    uses_k=True,
    description="Remark 5.2 subsampled coreset: Õ(nk/α²) bits for an "
                "O(α)-approximation",
    params={"alpha": 4.0, "combiner": "exact", "algorithm": "auto",
            "partition": None},
)
def _subsampled_coreset(graph, ctx: RunContext, alpha: float, combiner: str,
                        algorithm: str, partition=None) -> Adapted:
    """Streams: 2 — see :func:`_run_protocol`."""
    from repro.core.protocols import subsampled_matching_protocol

    protocol = subsampled_matching_protocol(alpha, combiner=combiner,
                                            algorithm=algorithm)
    certificate, stats = _run_protocol(
        protocol, graph, ctx, ctx.require_k("matching.subsampled_coreset"),
        partition=partition,
    )
    stats["alpha"] = alpha
    return certificate, stats


@solver(
    "matching.send_everything",
    problem="matching", model="coreset", guarantee="exact",
    uses_k=True, baseline=True,
    description="Naive baseline: every machine ships its whole piece "
                "(Θ(m) bits — the upper reference line)",
    params={"partition": None},
)
def _send_everything_matching(graph, ctx: RunContext,
                              partition=None) -> Adapted:
    """Streams: 2 — see :func:`_run_protocol`."""
    from repro.baselines.naive import send_everything_protocol

    return _run_protocol(send_everything_protocol("matching"), graph, ctx,
                         ctx.require_k("matching.send_everything"),
                         partition=partition)


@solver(
    "matching.weighted_coreset",
    problem="matching", model="coreset", guarantee="O(log W)-approx",
    uses_k=True, weighted=True, objective="weight",
    description="Crouch–Stubbs weighted extension: Theorem 1 inside "
                "geometric weight classes, greedy merge heaviest-first",
    params={"epsilon": 1.0},
)
def _weighted_matching_coreset(graph, ctx: RunContext,
                               epsilon: float) -> Adapted:
    """Streams: 1, handed to the legacy protocol's ``rng=`` (which spawns
    its own k+2 children, exactly as before)."""
    from repro.core.weighted import weighted_matching_coreset_protocol

    (rng,) = ctx.generators(1)
    res = weighted_matching_coreset_protocol(
        graph, k=ctx.require_k("matching.weighted_coreset"),
        epsilon=epsilon, rng=rng,
    )
    stats: Stats = {
        "k": ctx.k,
        "epsilon": epsilon,
        "weight": float(res.weight),
        "total_bits": res.ledger.total_bits(),
        "total_edges": res.ledger.total_edges(),
    }
    return res.matching, stats


# --------------------------------------------------------------------- #
# matching — capacitated (b-matching / AdWords)
# --------------------------------------------------------------------- #
def _b_stats(graph, indices: np.ndarray) -> Stats:
    from repro.workloads.bmatching import b_matching_weight

    return {
        "weight": b_matching_weight(graph, indices),
        "total_capacity": int(graph.total_capacity()),
        "capacity_upper_bound": int(graph.b_matching_upper_bound()),
    }


@solver(
    "matching.b_greedy",
    problem="matching", model="offline", guarantee="2-approx",
    bipartite_only=True, weighted=True, capacitated=True,
    description="Weight-descending greedy b-matching (AdWords budgets "
                "b(u) per left vertex)",
)
def _b_greedy(graph, ctx: RunContext) -> Adapted:
    """Deterministic; draws no streams (ties break by edge order)."""
    from repro.workloads.bmatching import greedy_b_matching

    idx = greedy_b_matching(graph)
    return graph.edges[idx], _b_stats(graph, idx)


@solver(
    "matching.b_exact",
    problem="matching", model="offline", guarantee="exact",
    bipartite_only=True, weighted=True, capacitated=True,
    description="Maximum-cardinality b-matching, exact via left-vertex "
                "cloning + Hopcroft–Karp",
)
def _b_exact(graph, ctx: RunContext) -> Adapted:
    """Deterministic; draws no streams."""
    from repro.workloads.bmatching import exact_b_matching

    idx = exact_b_matching(graph)
    return graph.edges[idx], _b_stats(graph, idx)


@solver(
    "matching.b_coreset",
    problem="matching", model="coreset", guarantee="heuristic",
    bipartite_only=True, weighted=True, capacitated=True, uses_k=True,
    description="Composable-coreset heuristic for b-matching: per-machine "
                "greedy b-matching summaries, exact b-matching on the "
                "union (random or named adversarial partition)",
    params={"strategy": "random"},
)
def _b_coreset(graph, ctx: RunContext, strategy: str) -> Adapted:
    """Streams: 2 — ``(partition_rng, run_rng)``, both drawn for parity
    with :func:`_run_protocol` even though the per-piece summarizer is
    deterministic (adversarial strategies leave both untouched)."""
    from repro.workloads.bmatching import exact_b_matching, greedy_b_matching
    from repro.workloads.partitions import partition_workload

    k = ctx.require_k("matching.b_coreset")
    partition_rng, _run_rng = ctx.generators(2)
    part = partition_workload(graph, k, strategy, partition_rng)
    union_mask = np.zeros(graph.n_edges, dtype=bool)
    coreset_edges = 0
    for i in range(part.k):
        piece_mask = part.assignment == i
        piece = graph.subgraph_from_mask(piece_mask)
        local = greedy_b_matching(piece)
        coreset_edges += local.size
        if local.size:
            from repro.workloads.bmatching import edge_indices

            union_mask[edge_indices(graph, piece.edges[local])] = True
    union = graph.subgraph_from_mask(union_mask)
    local_idx = exact_b_matching(union)
    from repro.workloads.bmatching import edge_indices

    idx = edge_indices(graph, union.edges[local_idx])
    stats = _b_stats(graph, idx)
    stats.update({
        "k": k,
        "strategy": strategy,
        "coreset_edges": int(coreset_edges),
    })
    return graph.edges[idx], stats


# --------------------------------------------------------------------- #
# matching — MapReduce
# --------------------------------------------------------------------- #
@solver(
    "matching.mapreduce",
    problem="matching", model="mapreduce", guarantee="O(1)-approx",
    uses_k=True,
    description="§1.1 MapReduce algorithm: ≤ 2 rounds with k = √n "
                "machines of memory Õ(n√n) (k defaults to √n)",
    params={"memory_cap_edges": None, "assume_random_input": False,
            "initial_placement": "contiguous", "combiner_algorithm": "auto"},
)
def _mapreduce_matching(graph, ctx: RunContext, memory_cap_edges,
                        assume_random_input: bool, initial_placement: str,
                        combiner_algorithm: str) -> Adapted:
    """Streams: 1, handed to ``mapreduce_matching``'s ``rng=``."""
    from repro.core.mapreduce_algos import mapreduce_matching

    (rng,) = ctx.generators(1)
    with ctx.executor_scope() as backend:
        res = mapreduce_matching(
            graph, k=ctx.k, rng=rng, memory_cap_edges=memory_cap_edges,
            assume_random_input=assume_random_input,
            combiner_algorithm=combiner_algorithm,
            initial_placement=initial_placement, executor=backend,
        )
    stats: Stats = {
        "k": res.k,
        "n_rounds": res.job.n_rounds,
        "peak_machine_edges": res.job.peak_machine_edges,
        "total_shuffled_edges": res.job.total_shuffled_edges,
    }
    return res.matching, stats


@solver(
    "matching.filtering",
    problem="matching", model="mapreduce", guarantee="2-approx",
    baseline=True,
    description="Filtering baseline [46]: iterated sample-and-filter on "
                "one central machine (O(log n) rounds)",
    params={"memory_edges": None, "max_rounds": 100},
)
def _filtering_matching(graph, ctx: RunContext, memory_edges,
                        max_rounds: int) -> Adapted:
    """Streams: 1 (sampling + tie-breaking).  ``memory_edges`` defaults
    to ``max(64, m // 8)`` — the budget experiment E8 uses."""
    from repro.baselines.filtering import filtering_matching

    (rng,) = ctx.generators(1)
    if memory_edges is None:
        memory_edges = max(64, graph.n_edges // 8)
    res = filtering_matching(graph, memory_edges=memory_edges, rng=rng,
                             max_rounds=max_rounds)
    stats: Stats = {
        "memory_edges": int(memory_edges),
        "n_rounds": res.n_rounds,
        "peak_central_edges": res.peak_central_edges,
        "n_sampling_rounds": len(res.sample_sizes),
    }
    return res.matching, stats


# --------------------------------------------------------------------- #
# matching — streaming
# --------------------------------------------------------------------- #
def _arrival_order(graph, arrival: str, rng) -> np.ndarray:
    from repro.matching.api import maximum_matching
    from repro.streaming import adversarial_order, random_order

    if arrival == "random":
        return random_order(graph, rng)
    if arrival == "adversarial":
        return adversarial_order(graph, maximum_matching(graph), rng)
    raise ValueError(f"unknown arrival order {arrival!r}")


@solver(
    "matching.streaming_greedy",
    problem="matching", model="streaming", guarantee="2-approx",
    description="One-pass greedy semi-streaming matcher (O(n) words)",
    params={"arrival": "random"},
)
def _streaming_greedy(graph, ctx: RunContext, arrival: str) -> Adapted:
    """Streams: 1 (the arrival order)."""
    from repro.streaming import StreamingGreedyMatcher

    (rng,) = ctx.generators(1)
    order = _arrival_order(graph, arrival, rng)
    matcher = StreamingGreedyMatcher(graph.n_vertices)
    certificate = matcher.run(graph, order)
    return certificate, {"arrival": arrival,
                         "memory_words": matcher.memory_words}


@solver(
    "matching.streaming_two_phase",
    problem="matching", model="streaming", guarantee="2-approx",
    description="Konrad–Magniez–Mathieu two-phase matcher: greedy prefix "
                "then 3-augmentations (beats ½ on random arrivals)",
    params={"arrival": "random", "phase1_fraction": 0.5},
)
def _streaming_two_phase(graph, ctx: RunContext, arrival: str,
                         phase1_fraction: float) -> Adapted:
    """Streams: 1 (the arrival order)."""
    from repro.streaming import TwoPhaseStreamingMatcher

    (rng,) = ctx.generators(1)
    order = _arrival_order(graph, arrival, rng)
    matcher = TwoPhaseStreamingMatcher(graph.n_vertices,
                                       phase1_fraction=phase1_fraction)
    certificate = matcher.run(graph, order)
    return certificate, {"arrival": arrival,
                         "memory_words": matcher.memory_words}


# --------------------------------------------------------------------- #
# vertex cover — offline
# --------------------------------------------------------------------- #
@solver(
    "vertex_cover.two_approx",
    problem="vertex_cover", model="offline", guarantee="2-approx",
    description="Both endpoints of a maximal matching (the coordinator's "
                "combine step in Theorem 2)",
    params={"randomized": False},
)
def _two_approx_cover(graph, ctx: RunContext, randomized: bool) -> Adapted:
    """Streams: 1 when ``randomized`` (the matching's edge order), else 0."""
    from repro.cover import matching_based_cover

    if randomized:
        (rng,) = ctx.generators(1)
        return matching_based_cover(graph, rng=rng), {"randomized": True}
    return matching_based_cover(graph), {"randomized": False}


@solver(
    "vertex_cover.greedy",
    problem="vertex_cover", model="offline", guarantee="ln(n)-approx",
    description="Max-degree greedy cover (H_Δ approximation)",
)
def _greedy_cover(graph, ctx: RunContext) -> Adapted:
    """Deterministic; draws no streams."""
    from repro.cover import greedy_cover

    return greedy_cover(graph), {}


@solver(
    "vertex_cover.konig",
    problem="vertex_cover", model="offline", guarantee="exact",
    bipartite_only=True,
    description="Exact bipartite minimum vertex cover via König's theorem",
)
def _konig_cover(graph, ctx: RunContext) -> Adapted:
    """Deterministic; draws no streams."""
    from repro.cover import konig_cover

    return konig_cover(graph), {}


@solver(
    "vertex_cover.exact",
    problem="vertex_cover", model="offline", guarantee="exact",
    description="Branch-and-bound exact cover (small general graphs; "
                "the test oracle)",
    params={"node_budget": 2_000_000},
)
def _exact_cover(graph, ctx: RunContext, node_budget: int) -> Adapted:
    """Deterministic; draws no streams."""
    from repro.cover import exact_cover

    return exact_cover(graph, node_budget=node_budget), {}


@solver(
    "vertex_cover.lp",
    problem="vertex_cover", model="offline", guarantee="2-approx",
    description="Half-integral LP rounding with a fractional lower-bound "
                "certificate",
    params={"threshold": 0.5},
)
def _lp_cover(graph, ctx: RunContext, threshold: float) -> Adapted:
    """Deterministic; draws no streams.  The LP solves once — the rounded
    cover and the lower-bound stat come from the same solution vector."""
    from repro.cover import lp_cover, lp_lower_bound
    from repro.cover.lp import lp_solution

    x = lp_solution(graph)
    certificate = lp_cover(graph, threshold=threshold, solution=x)
    return certificate, {
        "lp_lower_bound": lp_lower_bound(graph, solution=x)
    }


# --------------------------------------------------------------------- #
# vertex cover — coreset
# --------------------------------------------------------------------- #
@solver(
    "vertex_cover.coreset",
    problem="vertex_cover", model="coreset", guarantee="O(log n)-approx",
    uses_k=True,
    description="Theorem 2 randomized composable coreset: peeled vertices "
                "+ sparse residual per machine (Õ(nk) bits total)",
    params={"combiner": "auto", "log_slack": 4.0, "partition": None},
)
def _vc_coreset(graph, ctx: RunContext, combiner: str,
                log_slack: float, partition=None) -> Adapted:
    """Streams: 2 — see :func:`_run_protocol`."""
    from repro.core.protocols import vertex_cover_coreset_protocol

    k = ctx.require_k("vertex_cover.coreset")
    protocol = vertex_cover_coreset_protocol(k=k, combiner=combiner,
                                             log_slack=log_slack)
    return _run_protocol(protocol, graph, ctx, k, partition=partition)


@solver(
    "vertex_cover.grouped_coreset",
    problem="vertex_cover", model="coreset", guarantee="O(alpha)-approx",
    uses_k=True,
    description="Remark 5.8 grouped coreset: super-vertices of size "
                "Θ(α/log n), Õ(nk/α) bits total",
    params={"alpha": 4.0, "combiner": "two_approx", "log_slack": 4.0,
            "partition": None},
)
def _grouped_vc_coreset(graph, ctx: RunContext, alpha: float, combiner: str,
                        log_slack: float, partition=None) -> Adapted:
    """Streams: 2 — see :func:`_run_protocol`."""
    from repro.core.protocols import grouped_vertex_cover_protocol

    k = ctx.require_k("vertex_cover.grouped_coreset")
    protocol = grouped_vertex_cover_protocol(k=k, alpha=alpha,
                                             combiner=combiner,
                                             log_slack=log_slack)
    certificate, stats = _run_protocol(protocol, graph, ctx, k,
                                       partition=partition)
    stats["alpha"] = alpha
    return certificate, stats


@solver(
    "vertex_cover.send_everything",
    problem="vertex_cover", model="coreset", guarantee="exact-bipartite",
    uses_k=True, baseline=True,
    description="Naive baseline: ship every piece whole, solve centrally "
                "(König on bipartite inputs, 2-approx otherwise)",
    params={"partition": None},
)
def _send_everything_cover(graph, ctx: RunContext,
                           partition=None) -> Adapted:
    """Streams: 2 — see :func:`_run_protocol`."""
    from repro.baselines.naive import send_everything_protocol

    return _run_protocol(send_everything_protocol("vertex_cover"), graph,
                         ctx, ctx.require_k("vertex_cover.send_everything"),
                         partition=partition)


@solver(
    "vertex_cover.weighted_coreset",
    problem="vertex_cover", model="coreset",
    guarantee="O(log n · log W)-approx", uses_k=True, objective="weight",
    description="Reconstructed weighted-VC extension: per-weight-class "
                "peeling, edges assigned to their cheaper endpoint's class",
    params={"epsilon": 1.0, "log_slack": 4.0, "vertex_weights": None},
)
def _weighted_vc_coreset(graph, ctx: RunContext, epsilon: float,
                         log_slack: float, vertex_weights) -> Adapted:
    """Streams: 1, handed to the legacy protocol's ``rng=``.  Vertex
    weights default to all-ones (cover weight then equals cover size)."""
    from repro.core.weighted import weighted_vertex_cover_protocol

    if vertex_weights is None:
        vertex_weights = np.ones(graph.n_vertices, dtype=np.float64)
    (rng,) = ctx.generators(1)
    res = weighted_vertex_cover_protocol(
        graph, vertex_weights, k=ctx.require_k("vertex_cover.weighted_coreset"),
        epsilon=epsilon, rng=rng, log_slack=log_slack,
    )
    stats: Stats = {
        "k": ctx.k,
        "epsilon": epsilon,
        "weight": float(res.weight),
        "total_bits": res.ledger.total_bits(),
        "total_edges": res.ledger.total_edges(),
    }
    return res.cover, stats


# --------------------------------------------------------------------- #
# vertex cover — MapReduce
# --------------------------------------------------------------------- #
@solver(
    "vertex_cover.mapreduce",
    problem="vertex_cover", model="mapreduce", guarantee="O(log n)-approx",
    uses_k=True,
    description="§1.1 MapReduce algorithm for vertex cover: ≤ 2 rounds, "
                "VC peeling per machine (k defaults to √n)",
    params={"memory_cap_edges": None, "assume_random_input": False,
            "log_slack": 4.0, "initial_placement": "contiguous"},
)
def _mapreduce_vc(graph, ctx: RunContext, memory_cap_edges,
                  assume_random_input: bool, log_slack: float,
                  initial_placement: str) -> Adapted:
    """Streams: 1, handed to ``mapreduce_vertex_cover``'s ``rng=``."""
    from repro.core.mapreduce_algos import mapreduce_vertex_cover

    (rng,) = ctx.generators(1)
    with ctx.executor_scope() as backend:
        res = mapreduce_vertex_cover(
            graph, k=ctx.k, rng=rng, memory_cap_edges=memory_cap_edges,
            assume_random_input=assume_random_input, log_slack=log_slack,
            initial_placement=initial_placement, executor=backend,
        )
    stats: Stats = {
        "k": res.k,
        "n_rounds": res.job.n_rounds,
        "peak_machine_edges": res.job.peak_machine_edges,
        "total_shuffled_edges": res.job.total_shuffled_edges,
    }
    return res.cover, stats
