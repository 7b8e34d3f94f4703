"""E1–E23: one registered :class:`~repro.experiments.registry.Trial` per
reproduced claim.

The paper is theoretical; each "table" here is the empirical rendering of
one theorem/remark/example, as indexed in DESIGN.md §4.  Each class is one
experiment, registered by the :func:`~repro.experiments.registry.experiment`
decorator with its id, title, description, columns, default grid and seed:

* its frozen dataclass fields are one grid cell's parameters, and
  ``__call__(seed)`` runs a single independent trial and returns a flat
  ``dict[str, float]`` of metrics — plain data, so every trial pickles and
  :func:`~repro.experiments.harness.run_trials` can fan trials out across
  worker *processes*;
* ``cells(**grid)`` lists the table's trials in row order, ``row(m)``
  turns one cell's metrics (stacked over the trials) into its row, and
  ``describe(**params)`` words the table description where it depends on
  the parameters.

:meth:`~repro.experiments.registry.ExperimentSpec.run` owns the loop over
the cells.  Every table is deterministic given its ``seed``, on any
executor backend.  Run an experiment through the registry
(``get_experiment("e1").run(...)``); see ``docs/EXPERIMENTS_API.md``.
Heavyweight library imports stay inside the methods, so importing this
module (or unpickling a trial in a worker) stays cheap.

Trials whose body is "run one registered algorithm, measure it" (E1, E3,
E8, E9, E10) resolve that algorithm from the :mod:`repro.solve` registry
by name and read their metrics from ``SolveResult.stats``, rather than
importing protocol factories directly — the same inversion the experiment
registry applied to experiments.  Trials that orchestrate *several*
interacting algorithms or instrument internals (adversarial orders, trace
objects, ablation grids) keep calling the library directly.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.experiments.registry import Metrics, Row, Trial, experiment
from repro.utils.rng import RandomState, spawn_generators

__all__ = [
    "E1Trial", "E2Trial", "E3Trial", "E4Trial", "E5Trial", "E6Trial",
    "E7Trial", "E8Trial", "E9Trial", "E10Trial", "E11Trial", "E12Trial",
    "E13Trial", "E14Trial", "E15Trial", "E16Trial", "E17Trial", "E18Trial",
    "E19Trial", "E20Trial", "E21Trial", "E22Trial", "E23Trial",
]


# --------------------------------------------------------------------- #
# E1 — Theorem 1: max-matching coreset is O(1)-approximate
# --------------------------------------------------------------------- #
@experiment(
    "e1",
    title="E1: matching coreset approximation (Theorem 1)",
    description="ratio = MM(G) / |composed matching|; theory bound 9",
    columns=["graph", "n", "k", "ratio_mean", "ratio_max",
             "coreset_edges_mean"],
    grid=dict(n_values=(2000, 6000), k_values=(4, 16, 64), n_trials=3,
              general_graphs=False),
    seed=11,
)
@dataclass(frozen=True)
class E1Trial(Trial):
    """Ratio of MM(G) to the composed Theorem 1 coreset matching, vs n and k.

    Expected shape: ratio ≤ ~3 (theory: ≤ 9), flat in both n and k.
    """

    n: int
    k: int
    general_graphs: bool = False

    def __call__(self, seed: RandomState) -> Dict[str, float]:
        from repro.graph.generators import gnp, planted_matching_gnp
        from repro.matching.api import matching_number
        from repro.solve import RunContext, solve

        g_rng, s_rng = spawn_generators(seed, 2)
        if self.general_graphs:
            graph = gnp(self.n, 3.0 / self.n, g_rng)
        else:
            graph, _ = planted_matching_gnp(
                self.n // 2, self.n // 2, p=3.0 / self.n, rng=g_rng
            )
        res = solve(graph, "matching.coreset",
                    RunContext(seed=s_rng, k=self.k), combiner="exact")
        opt = matching_number(graph)
        return {
            "ratio": opt / max(1, int(res.value)),
            "coreset_edges": res.stats["total_edges"] / self.k,
        }

    @classmethod
    def cells(cls, *, n_values, k_values, general_graphs):
        return [cls(n=n, k=k, general_graphs=general_graphs)
                for n in n_values for k in k_values]

    def row(self, m: Metrics) -> Row:
        return dict(
            graph="gnp" if self.general_graphs else "bip+planted",
            n=self.n,
            k=self.k,
            ratio_mean=float(m["ratio"].mean()),
            ratio_max=float(m["ratio"].max()),
            coreset_edges_mean=float(m["coreset_edges"].mean()),
        )


# --------------------------------------------------------------------- #
# E2 — §1.2: maximal-matching coreset is Ω(k)
# --------------------------------------------------------------------- #
@experiment(
    "e2",
    title="E2: maximal-matching coreset failure (paper §1.2)",
    description="same random partition; only the summarizer differs; "
                "opt >= N = k*width hidden edges",
    columns=["k", "opt_lb", "maximal_ratio", "maximum_ratio"],
    grid=dict(k_values=(4, 8, 16, 32), width=64, n_trials=3),
    seed=22,
)
@dataclass(frozen=True)
class E2Trial(Trial):
    """Worst-case *maximal* vs *maximum* matching as coresets on the
    hidden-matching-with-hubs instance (§1.2's Ω(k) example).

    Expected shape: maximal-coreset ratio grows ~linearly with k (≈ k/2 at
    hub slack 2); the Theorem 1 coreset stays O(1) on the same inputs and
    the same random partitions.
    """

    k: int
    width: int

    def __call__(self, seed: RandomState) -> Dict[str, float]:
        from repro.baselines.bad_coresets import blocking_maximal_protocol
        from repro.core.protocols import matching_coreset_protocol
        from repro.dist.coordinator import run_simultaneous
        from repro.graph.generators import hidden_matching_with_hubs
        from repro.graph.partition import random_k_partition

        g_rng, p_rng, r_rng = spawn_generators(seed, 3)
        good = matching_coreset_protocol(combiner="exact")
        graph, n_pairs, _ = hidden_matching_with_hubs(
            self.k, self.width, rng=g_rng
        )
        bad = blocking_maximal_protocol(hub_boundary=2 * n_pairs)
        part = random_k_partition(graph, self.k, p_rng)
        bad_out = run_simultaneous(bad, part, r_rng).output
        good_out = run_simultaneous(good, part, r_rng).output
        return {
            "opt": n_pairs,
            "bad_ratio": n_pairs / max(1, bad_out.shape[0]),
            "good_ratio": n_pairs / max(1, good_out.shape[0]),
        }

    @classmethod
    def cells(cls, *, k_values, width):
        return [cls(k=k, width=width) for k in k_values]

    def row(self, m: Metrics) -> Row:
        return dict(
            k=self.k,
            opt_lb=float(m["opt"].mean()),
            maximal_ratio=float(m["bad_ratio"].mean()),
            maximum_ratio=float(m["good_ratio"].mean()),
        )


# --------------------------------------------------------------------- #
# E3 — Theorem 2: VC coreset is O(log n)-approximate
# --------------------------------------------------------------------- #
@experiment(
    "e3",
    title="E3: vertex-cover coreset approximation (Theorem 2)",
    description="ratio = |composed cover| / VC(G); theory bound O(log n)",
    columns=["n", "k", "ratio_mean", "ratio_max", "log2_n",
             "residual_edges_mean", "fixed_vertices_mean", "feasible"],
    grid=dict(n_values=(2000, 8000), k_values=(4, 16), n_trials=3),
    seed=33,
)
@dataclass(frozen=True)
class E3Trial(Trial):
    """Theorem 2 coreset ratio and message size on a skewed-degree
    bipartite workload.

    Expected shape: ratio well below log2(n); residual size O(n log n).
    """

    n: int
    k: int

    def __call__(self, seed: RandomState) -> Dict[str, float]:
        from repro.cover import konig_cover
        from repro.graph.generators import skewed_bipartite
        from repro.solve import RunContext, solve

        g_rng, s_rng = spawn_generators(seed, 2)
        half = self.n // 2
        graph = skewed_bipartite(
            half, half,
            hub_count=max(4, half // 50),
            hub_degree=max(8, half // 10),
            leaf_p=2.0 / half,
            rng=g_rng,
        )
        res = solve(graph, "vertex_cover.coreset",
                    RunContext(seed=s_rng, k=self.k))
        opt = int(konig_cover(graph).shape[0])
        return {
            "ratio": res.value / max(1, opt),
            "residual": res.stats["total_edges"] / self.k,
            "fixed": res.stats["total_fixed_vertices"] / self.k,
            "feasible": float(res.verified),
        }

    @classmethod
    def cells(cls, *, n_values, k_values):
        return [cls(n=n, k=k) for n in n_values for k in k_values]

    def row(self, m: Metrics) -> Row:
        return dict(
            n=self.n,
            k=self.k,
            ratio_mean=float(m["ratio"].mean()),
            ratio_max=float(m["ratio"].max()),
            log2_n=math.log2(self.n),
            residual_edges_mean=float(m["residual"].mean()),
            fixed_vertices_mean=float(m["fixed"].mean()),
            feasible=bool(m["feasible"].all()),
        )


# --------------------------------------------------------------------- #
# E4 — §1.2: min-VC-as-coreset is Ω(k) (star example)
# --------------------------------------------------------------------- #
@experiment(
    "e4",
    title="E4: min-VC coreset failure (paper §1.2 star example)",
    description="stars with ~k leaves each; OPT = n_stars (the centers)",
    columns=["k", "opt", "minvc_ratio", "peeling_ratio", "both_feasible"],
    grid=dict(k_values=(4, 8, 16, 32), n_stars=64, n_trials=3),
    seed=44,
)
@dataclass(frozen=True)
class E4Trial(Trial):
    """Min-VC-of-the-piece vs the Theorem 2 peeling coreset on star
    forests.

    Expected shape: min-VC coreset ratio grows ~linearly in k (leaves get
    certified); the peeling coreset stays O(log n).
    """

    k: int
    n_stars: int

    def __call__(self, seed: RandomState) -> Dict[str, float]:
        from repro.baselines.bad_coresets import min_vc_coreset_protocol
        from repro.core.protocols import vertex_cover_coreset_protocol
        from repro.cover import is_vertex_cover
        from repro.dist.coordinator import run_simultaneous
        from repro.graph.generators import bipartite_star_forest
        from repro.graph.partition import random_k_partition

        g_rng, p_rng, r_rng = spawn_generators(seed, 3)
        bad = min_vc_coreset_protocol(prefer_leaves=True)
        good = vertex_cover_coreset_protocol(k=self.k)
        graph = bipartite_star_forest(self.n_stars, leaves_per_star=self.k)
        part = random_k_partition(graph, self.k, p_rng)
        bad_out = run_simultaneous(bad, part, r_rng).output
        good_out = run_simultaneous(good, part, r_rng).output
        opt = self.n_stars  # the centers
        return {
            "bad_ratio": bad_out.shape[0] / opt,
            "good_ratio": good_out.shape[0] / opt,
            "feasible": float(
                is_vertex_cover(graph, bad_out)
                and is_vertex_cover(graph, good_out)
            ),
        }

    @classmethod
    def cells(cls, *, k_values, n_stars):
        return [cls(k=k, n_stars=n_stars) for k in k_values]

    def row(self, m: Metrics) -> Row:
        return dict(
            k=self.k,
            opt=self.n_stars,
            minvc_ratio=float(m["bad_ratio"].mean()),
            peeling_ratio=float(m["good_ratio"].mean()),
            both_feasible=bool(m["feasible"].all()),
        )


# --------------------------------------------------------------------- #
# E5 — Theorem 3: matching coresets need Ω(n/α²) edges
# --------------------------------------------------------------------- #
@experiment(
    "e5",
    title="E5: matching coreset size lower bound (Theorem 3)",
    description="D_Matching budget sweep around the n/alpha^2 threshold",
    columns=["budget", "budget_over_threshold", "ratio_mean",
             "hidden_recovered_mean", "beats_alpha"],
    grid=dict(n=8000, alpha=8.0, k=8,
              budget_factors=(0.125, 0.5, 1.0, 4.0, 16.0), n_trials=3),
    seed=55,
)
@dataclass(frozen=True)
class E5Trial(Trial):
    """Budget-limited coreset on one D_Matching instance, with the
    per-machine budget a factor of the Theorem 3 threshold n/α².

    Expected shape: achieved ratio crosses α as the per-machine budget
    crosses ~n/α².
    """

    n: int
    alpha: float
    k: int
    budget_factor: float

    @property
    def budget(self) -> int:
        threshold = self.n / self.alpha**2
        return max(1, int(round(self.budget_factor * threshold)))

    def __call__(self, seed: RandomState) -> Dict[str, float]:
        from repro.dist.coordinator import run_simultaneous
        from repro.graph.partition import random_k_partition
        from repro.lowerbounds.dmatching import (
            budget_limited_matching_protocol,
            hidden_edges_recovered,
            sample_dmatching,
        )
        from repro.matching.api import matching_number

        i_rng, p_rng, r_rng = spawn_generators(seed, 3)
        protocol = budget_limited_matching_protocol(self.budget)
        inst = sample_dmatching(self.n, self.alpha, self.k, i_rng)
        part = random_k_partition(inst.graph, self.k, p_rng)
        res = run_simultaneous(protocol, part, r_rng)
        opt = matching_number(inst.graph)
        out = int(res.output.shape[0])
        return {
            "ratio": opt / max(1, out),
            "hidden": hidden_edges_recovered(inst, res.output),
        }

    @classmethod
    def cells(cls, *, n, alpha, k, budget_factors):
        return [cls(n=n, alpha=alpha, k=k, budget_factor=f)
                for f in budget_factors]

    def row(self, m: Metrics) -> Row:
        ratio = float(m["ratio"].mean())
        return dict(
            budget=self.budget,
            budget_over_threshold=self.budget_factor,
            ratio_mean=ratio,
            hidden_recovered_mean=float(m["hidden"].mean()),
            beats_alpha=bool(ratio < self.alpha),
        )

    @classmethod
    def describe(cls, *, n, alpha, k, **_):
        return (f"D_Matching(n={n}, alpha={alpha:g}, k={k}); "
                f"threshold budget n/alpha^2 = {n / alpha**2:.0f}")


# --------------------------------------------------------------------- #
# E6 — Theorem 4: VC coresets need Ω(n/α) size
# --------------------------------------------------------------------- #
@experiment(
    "e6",
    title="E6: vertex-cover coreset size lower bound (Theorem 4)",
    description="D_VC budget sweep around the n/alpha threshold",
    columns=["budget", "budget_over_threshold", "p_estar_covered",
             "p_feasible", "cover_size_mean"],
    grid=dict(n=8000, alpha=8.0, k=8, budget_factors=(0.05, 0.25, 1.0, 4.0),
              n_trials=5),
    seed=66,
)
@dataclass(frozen=True)
class E6Trial(Trial):
    """Budget-limited cover coreset on one D_VC instance, with the
    per-machine budget a factor of the Theorem 4 threshold n/α.

    Expected shape: P[e* covered] (hence feasibility) collapses once the
    budget drops below ~n/α.
    """

    n: int
    alpha: float
    k: int
    budget_factor: float

    @property
    def budget(self) -> int:
        threshold = self.n / self.alpha
        return max(1, int(round(self.budget_factor * threshold)))

    def __call__(self, seed: RandomState) -> Dict[str, float]:
        from repro.cover import is_vertex_cover
        from repro.dist.coordinator import run_simultaneous
        from repro.graph.partition import random_k_partition
        from repro.lowerbounds.dvc import (
            budget_limited_cover_protocol,
            covers_estar,
            sample_dvc,
        )

        i_rng, p_rng, r_rng = spawn_generators(seed, 3)
        protocol = budget_limited_cover_protocol(
            self.budget, self.budget, k=self.k
        )
        inst = sample_dvc(self.n, self.alpha, self.k, i_rng)
        part = random_k_partition(inst.graph, self.k, p_rng)
        res = run_simultaneous(protocol, part, r_rng)
        return {
            "covered": float(covers_estar(inst, res.output)),
            "feasible": float(is_vertex_cover(inst.graph, res.output)),
            "size": res.output.shape[0],
        }

    @classmethod
    def cells(cls, *, n, alpha, k, budget_factors):
        return [cls(n=n, alpha=alpha, k=k, budget_factor=f)
                for f in budget_factors]

    def row(self, m: Metrics) -> Row:
        return dict(
            budget=self.budget,
            budget_over_threshold=self.budget_factor,
            p_estar_covered=float(m["covered"].mean()),
            p_feasible=float(m["feasible"].mean()),
            cover_size_mean=float(m["size"].mean()),
        )

    @classmethod
    def describe(cls, *, n, alpha, k, **_):
        return (f"D_VC(n={n}, alpha={alpha:g}, k={k}); "
                f"threshold budget n/alpha = {n / alpha:.0f}")


# --------------------------------------------------------------------- #
# E7 — headline: random vs adversarial partitioning
# --------------------------------------------------------------------- #
@experiment(
    "e7",
    title="E7: random vs adversarial partitioning (headline contrast)",
    description="decoy-gadget instance; predicted adversarial ratio (k+1)/2",
    columns=["k", "opt_mean", "random_ratio", "adversarial_ratio",
             "predicted_adversarial"],
    grid=dict(k_values=(4, 8, 16), n_hidden_per_k=48, n_trials=3),
    seed=77,
)
@dataclass(frozen=True)
class E7Trial(Trial):
    """Same graph, same Theorem 1 coreset, random vs adversarial
    partitioning.

    Expected shape: random ratio O(1); adversarial ratio ≈ (k+1)/2.
    """

    k: int
    n_hidden: int

    def __call__(self, seed: RandomState) -> Dict[str, float]:
        from repro.lowerbounds.adversary import contrast_partitionings

        c = contrast_partitionings(self.n_hidden, self.k, seed)
        return {
            "opt": c.optimum,
            "rand": c.random_ratio,
            "adv": c.adversarial_ratio,
        }

    @classmethod
    def cells(cls, *, k_values, n_hidden_per_k):
        return [cls(k=k, n_hidden=n_hidden_per_k * k) for k in k_values]

    def row(self, m: Metrics) -> Row:
        return dict(
            k=self.k,
            opt_mean=float(m["opt"].mean()),
            random_ratio=float(m["rand"].mean()),
            adversarial_ratio=float(m["adv"].mean()),
            predicted_adversarial=(self.k + 1) / 2,
        )


# --------------------------------------------------------------------- #
# E8 — MapReduce: rounds and memory vs the filtering baseline
# --------------------------------------------------------------------- #
@experiment(
    "e8",
    title="E8: MapReduce rounds (paper MR corollary vs filtering [46])",
    description="coreset MapReduce vs filtering at memory budget n^1.5",
    columns=["algorithm", "rounds_mean", "ratio_mean",
             "peak_machine_edges", "memory_cap"],
    grid=dict(n=4000, avg_degree=24.0, n_trials=3),
    seed=88,
)
@dataclass(frozen=True)
class E8Trial(Trial):
    """Coreset MapReduce (2-round and pre-randomized) vs the [46]
    filtering algorithm at the paper's memory budget Õ(n^1.5).

    Expected shape: coreset = 2 rounds (1 when pre-randomized), ratio ≤ ~3;
    filtering ≥ 3 rounds with ratio ≤ 2.
    """

    n: int
    avg_degree: float
    memory_cap_edges: int

    def __call__(self, seed: RandomState) -> Dict[str, float]:
        from repro.graph.generators import planted_matching_gnp
        from repro.matching.api import matching_number
        from repro.solve import RunContext, solve

        g_rng, mr_rng, mr2_rng, f_rng = spawn_generators(seed, 4)
        graph, _ = planted_matching_gnp(
            self.n // 2, self.n // 2, p=self.avg_degree / self.n, rng=g_rng
        )
        opt = matching_number(graph)
        coreset = solve(graph, "matching.mapreduce", RunContext(seed=mr_rng),
                        memory_cap_edges=self.memory_cap_edges)
        coreset1 = solve(graph, "matching.mapreduce", RunContext(seed=mr2_rng),
                         memory_cap_edges=self.memory_cap_edges,
                         assume_random_input=True)
        # Filtering must iterate: give it the same memory budget but note
        # it only ever uses the central machine.
        filt = solve(graph, "matching.filtering", RunContext(seed=f_rng),
                     memory_edges=max(64, graph.n_edges // 8))
        return {
            "c_rounds": coreset.stats["n_rounds"],
            "c_ratio": opt / max(1, int(coreset.value)),
            "c_peak": coreset.stats["peak_machine_edges"],
            "c1_rounds": coreset1.stats["n_rounds"],
            "c1_ratio": opt / max(1, int(coreset1.value)),
            "c1_peak": coreset1.stats["peak_machine_edges"],
            "f_rounds": filt.stats["n_rounds"],
            "f_ratio": opt / max(1, int(filt.value)),
            "f_peak": filt.stats["peak_central_edges"],
        }

    @classmethod
    def cells(cls, *, n, avg_degree):
        return [cls(n=n, avg_degree=avg_degree, memory_cap_edges=int(n**1.5))]

    def row(self, m: Metrics) -> List[Row]:
        return [
            dict(
                algorithm=label,
                rounds_mean=float(m[f"{prefix}_rounds"].mean()),
                ratio_mean=float(m[f"{prefix}_ratio"].mean()),
                peak_machine_edges=float(m[f"{prefix}_peak"].mean()),
                memory_cap=self.memory_cap_edges,
            )
            for label, prefix in (("coreset-2round", "c"),
                                  ("coreset-prerandomized", "c1"),
                                  ("filtering[46]", "f"))
        ]

    @classmethod
    def describe(cls, *, n, avg_degree, **_):
        return (f"n={n}, m≈{int(n * avg_degree / 2)}, memory n^1.5≈"
                f"{int(n**1.5)} edges")


# --------------------------------------------------------------------- #
# E9 — Remark 5.2: subsampled matching, Õ(nk/α²) communication
# --------------------------------------------------------------------- #
@experiment(
    "e9",
    title="E9: subsampled matching protocol (Remark 5.2)",
    description="alpha sweep on D_Matching; claim: alpha-approx, "
                "Õ(nk/alpha²) bits",
    columns=["alpha", "ratio_mean", "total_bits_mean",
             "bits_x_alpha2_over_nk", "within_3alpha"],
    grid=dict(n=8000, k=8, alpha_values=(2.0, 4.0, 8.0, 16.0), n_trials=3),
    seed=99,
)
@dataclass(frozen=True)
class E9Trial(Trial):
    """Subsampled matching protocol on one D_Matching(n, α, k) instance —
    the regime of Remark 5.2/Theorem 5, where each player's maximum
    matching is Θ(n/α).

    Expected shape: bits·α²/(nk) roughly constant across the α sweep (the
    Õ hides log factors); ratio stays below ~3α.  On generic workloads
    where per-player matchings are Θ(n) the subsampling only buys a 1/α
    factor — the α² rate is specific to the hard regime, which is why this
    table samples D_Matching rather than a planted Gnp graph.
    """

    n: int
    k: int
    alpha: float

    def __call__(self, seed: RandomState) -> Dict[str, float]:
        from repro.lowerbounds.dmatching import sample_dmatching
        from repro.matching.api import matching_number
        from repro.solve import RunContext, solve

        g_rng, s_rng = spawn_generators(seed, 2)
        inst = sample_dmatching(self.n, self.alpha, self.k, g_rng)
        res = solve(inst.graph, "matching.subsampled_coreset",
                    RunContext(seed=s_rng, k=self.k), alpha=self.alpha)
        opt = matching_number(inst.graph)
        return {
            "ratio": opt / max(1, int(res.value)),
            "bits": res.stats["total_bits"],
        }

    @classmethod
    def cells(cls, *, n, k, alpha_values):
        return [cls(n=n, k=k, alpha=alpha) for alpha in alpha_values]

    def row(self, m: Metrics) -> Row:
        ratio = float(m["ratio"].mean())
        bits = float(m["bits"].mean())
        return dict(
            alpha=self.alpha,
            ratio_mean=ratio,
            total_bits_mean=bits,
            bits_x_alpha2_over_nk=bits * self.alpha**2 / (self.n * self.k),
            within_3alpha=bool(ratio <= 3 * self.alpha),
        )

    @classmethod
    def describe(cls, *, n, k, **_):
        return (f"D_Matching(n={n}, alpha, k={k}); claim: alpha-approx, "
                "Õ(nk/alpha²) bits")


# --------------------------------------------------------------------- #
# E10 — Remark 5.8: grouped VC, Õ(nk/α) communication
# --------------------------------------------------------------------- #
@experiment(
    "e10",
    title="E10: grouped vertex cover protocol (Remark 5.8)",
    description="alpha sweep; claim: alpha-approx, Õ(nk/alpha) bits",
    columns=["alpha", "ratio_mean", "feasible", "total_bits_mean",
             "bits_x_alpha_over_nk"],
    grid=dict(n=8000, k=8, alpha_values=(16.0, 32.0, 64.0), n_trials=3),
    seed=1010,
)
@dataclass(frozen=True)
class E10Trial(Trial):
    """Grouped vertex-cover protocol on a dense skewed workload.

    Expected shape: feasible everywhere; bits scale like 1/α; ratio grows
    at most linearly in α.
    """

    n: int
    k: int
    alpha: float

    def __call__(self, seed: RandomState) -> Dict[str, float]:
        from repro.cover import konig_cover
        from repro.graph.generators import skewed_bipartite
        from repro.solve import RunContext, solve

        g_rng, s_rng = spawn_generators(seed, 2)
        half = self.n // 2
        # Dense enough that the coreset's Õ(n'·log n') message bound is
        # what limits communication (otherwise every protocol just
        # sends its whole sparse piece and the 1/alpha scaling hides).
        graph = skewed_bipartite(
            half, half, hub_count=half // 50, hub_degree=half // 10,
            leaf_p=16.0 / half, rng=g_rng,
        )
        res = solve(graph, "vertex_cover.grouped_coreset",
                    RunContext(seed=s_rng, k=self.k), alpha=self.alpha)
        opt = int(konig_cover(graph).shape[0])
        return {
            "ratio": res.value / max(1, opt),
            "feasible": float(res.verified),
            "bits": res.stats["total_bits"],
        }

    @classmethod
    def cells(cls, *, n, k, alpha_values):
        return [cls(n=n, k=k, alpha=alpha) for alpha in alpha_values]

    def row(self, m: Metrics) -> Row:
        bits = float(m["bits"].mean())
        return dict(
            alpha=self.alpha,
            ratio_mean=float(m["ratio"].mean()),
            feasible=bool(m["feasible"].all()),
            total_bits_mean=bits,
            bits_x_alpha_over_nk=bits * self.alpha / (self.n * self.k),
        )

    @classmethod
    def describe(cls, *, n, k, **_):
        return f"n={n}, k={k}; claim: alpha-approx, Õ(nk/alpha) bits"


# --------------------------------------------------------------------- #
# E11 — Appendix A: induced matchings in G(n, n, 1/n)
# --------------------------------------------------------------------- #
@experiment(
    "e11",
    title="E11: induced matching in G(n,n,1/n) (Appendix A)",
    description="density -> 1/e^2 ≈ 0.1353 exactly, >= 1/e^3 ≈ 0.0498 "
                "(Lemma A.3 bound); degree-1 fraction -> 1/e ≈ 0.3679",
    columns=["n", "induced_density_mean", "exact_theory", "lemma_a3_bound",
             "deg1_fraction_mean", "theory_deg1"],
    grid=dict(n_values=(1000, 4000, 16000), n_trials=5),
    seed=1111,
)
@dataclass(frozen=True)
class E11Trial(Trial):
    """Induced-matching density in G(n, n, 1/n) vs the 1/e³ constant, and
    the degree-1 fraction vs 1/e (Prop A.2 / Lemma A.3)."""

    n: int

    def __call__(self, seed: RandomState) -> Dict[str, float]:
        from repro.graph.generators import bipartite_gnp
        from repro.lowerbounds.induced import induced_matching

        (g_rng,) = spawn_generators(seed, 1)
        g = bipartite_gnp(self.n, self.n, 1.0 / self.n, g_rng)
        m = induced_matching(g)
        deg_left = g.degrees[: self.n]
        return {
            "density": m.shape[0] / self.n,
            "deg1": float((deg_left == 1).mean()),
        }

    @classmethod
    def cells(cls, *, n_values):
        return [cls(n=n) for n in n_values]

    def row(self, m: Metrics) -> Row:
        from repro.lowerbounds.induced import (
            degree_one_left_fraction_theory,
            induced_matching_density_exact,
            induced_matching_density_theory,
        )

        return dict(
            n=self.n,
            induced_density_mean=float(m["density"].mean()),
            exact_theory=induced_matching_density_exact(),
            lemma_a3_bound=induced_matching_density_theory(),
            deg1_fraction_mean=float(m["deg1"].mean()),
            theory_deg1=degree_one_left_fraction_theory(),
        )


# --------------------------------------------------------------------- #
# E12 — §1.1: Crouch–Stubbs weighted extension
# --------------------------------------------------------------------- #
@experiment(
    "e12",
    title="E12: weighted matching via Crouch–Stubbs classes (paper §1.1)",
    description="weighted coreset vs centralized greedy 2-approximation",
    columns=["epsilon", "protocol_weight", "central_greedy_weight",
             "weight_ratio", "classes_bits_mean"],
    grid=dict(n=2000, k=8, weight_spread=100.0, epsilon_values=(0.5, 1.0),
              n_trials=3),
    seed=1212,
)
@dataclass(frozen=True)
class E12Trial(Trial):
    """Weighted coreset protocol vs the centralized greedy
    2-approximation (and, via it, the optimum) at one epsilon.

    Expected shape: protocol weight within a small constant (≈ 4–6 total:
    2 from greedy merge × O(1) from the unweighted coreset) of centralized
    greedy, which itself is ≥ OPT/2.
    """

    n: int
    k: int
    weight_spread: float
    epsilon: float

    def __call__(self, seed: RandomState) -> Dict[str, float]:
        from repro.core.weighted import weighted_matching_coreset_protocol
        from repro.graph.generators import bipartite_gnp
        from repro.graph.weights import WeightedGraph
        from repro.matching.weighted import greedy_weighted_matching

        g_rng, w_rng, p_rng = spawn_generators(seed, 3)
        base = bipartite_gnp(
            self.n // 2, self.n // 2, p=4.0 / self.n, rng=g_rng
        )
        weights = np.exp(
            w_rng.uniform(0, math.log(self.weight_spread), size=base.n_edges)
        )
        wg = WeightedGraph(base.n_vertices, base.edges, weights,
                           validated=True)
        res = weighted_matching_coreset_protocol(
            wg, k=self.k, epsilon=self.epsilon, rng=p_rng
        )
        _, central = greedy_weighted_matching(wg)
        return {
            "proto": res.weight,
            "central": central,
            "bits": res.ledger.total_bits(),
        }

    @classmethod
    def cells(cls, *, n, k, weight_spread, epsilon_values):
        return [cls(n=n, k=k, weight_spread=weight_spread, epsilon=epsilon)
                for epsilon in epsilon_values]

    def row(self, m: Metrics) -> Row:
        return dict(
            epsilon=self.epsilon,
            protocol_weight=float(m["proto"].mean()),
            central_greedy_weight=float(m["central"].mean()),
            weight_ratio=float((m["central"] / m["proto"]).mean()),
            classes_bits_mean=float(m["bits"].mean()),
        )

    @classmethod
    def describe(cls, *, weight_spread, **_):
        return f"weights log-uniform in [1, {weight_spread:g}]"


# --------------------------------------------------------------------- #
# E13 — Result 1→3: total communication Õ(nk)
# --------------------------------------------------------------------- #
@experiment(
    "e13",
    title="E13: communication scaling (Results 1 and 3)",
    description="total bits of both coresets vs send-everything as k grows",
    columns=["k", "matching_total_bits", "vc_total_bits",
             "naive_total_bits", "matching_bits_per_nk",
             "max_player_bits"],
    grid=dict(n=4000, k_values=(2, 4, 8, 16, 32), n_trials=3),
    seed=1313,
)
@dataclass(frozen=True)
class E13Trial(Trial):
    """Total bits of both coresets (and send-everything) at one k, fixed n.

    Expected shape: total bits ≈ linear in k (Õ(nk)), per-player bits Õ(n),
    and far below the send-everything baseline.
    """

    n: int
    k: int

    def __call__(self, seed: RandomState) -> Dict[str, float]:
        from repro.baselines.naive import send_everything_protocol
        from repro.core.protocols import (
            matching_coreset_protocol,
            vertex_cover_coreset_protocol,
        )
        from repro.dist.coordinator import run_simultaneous
        from repro.graph.generators import skewed_bipartite
        from repro.graph.partition import random_k_partition

        g_rng, p_rng, r_rng = spawn_generators(seed, 3)
        match_p = matching_coreset_protocol()
        vc_p = vertex_cover_coreset_protocol(k=self.k)
        naive_p = send_everything_protocol("matching")
        half = self.n // 2
        # A hub-heavy dense workload: hub degrees ~n/4 exceed the
        # peeling thresholds so the VC coreset genuinely compresses,
        # and m ≫ n so the Õ(nk) coreset cost separates from the Θ(m)
        # send-everything baseline.
        graph = skewed_bipartite(
            half, half, hub_count=half // 10, hub_degree=half // 2,
            leaf_p=8.0 / half, rng=g_rng,
        )
        part = random_k_partition(graph, self.k, p_rng)
        rm = run_simultaneous(match_p, part, r_rng)
        rv = run_simultaneous(vc_p, part, r_rng)
        rn = run_simultaneous(naive_p, part, r_rng)
        return {
            "m_bits": rm.total_bits,
            "v_bits": rv.total_bits,
            "n_bits": rn.total_bits,
            "m_max": rm.ledger.max_player_bits(),
        }

    @classmethod
    def cells(cls, *, n, k_values):
        return [cls(n=n, k=k) for k in k_values]

    def row(self, m: Metrics) -> Row:
        return dict(
            k=self.k,
            matching_total_bits=float(m["m_bits"].mean()),
            vc_total_bits=float(m["v_bits"].mean()),
            naive_total_bits=float(m["n_bits"].mean()),
            matching_bits_per_nk=float(m["m_bits"].mean()) / (self.n * self.k),
            max_player_bits=float(m["m_max"].mean()),
        )

    @classmethod
    def describe(cls, *, n, **_):
        return f"n={n}; totals in bits; naive = send everything"


# --------------------------------------------------------------------- #
# E14 — Claim 3.3 / Lemma 3.2: GreedyMatch dynamics
# --------------------------------------------------------------------- #
@experiment(
    "e14",
    title="E14: GreedyMatch dynamics (Claim 3.3, Lemma 3.2)",
    description="per-step prefix concentration and per-step gains",
    columns=["k", "final_ratio", "prefix_deviation_max",
             "first_third_gain_over_mm_per_k", "final_over_mm"],
    grid=dict(n=4000, k=16, n_trials=3),
    seed=1414,
)
@dataclass(frozen=True)
class E14Trial(Trial):
    """Instrumented GreedyMatch: per-step prefix concentration (Claim 3.3)
    and per-step gains (Lemma 3.2).

    Expected shape: |M*_{<i}| ≈ (i-1)/k · MM(G); early-step gains
    ≈ Ω(MM/k) while |M| ≤ MM/9.
    """

    n: int
    k: int

    def __call__(self, seed: RandomState) -> Dict[str, float]:
        from repro.core.greedy_match import greedy_match
        from repro.graph.generators import planted_matching_gnp
        from repro.graph.partition import random_k_partition
        from repro.matching.api import maximum_matching

        g_rng, p_rng = spawn_generators(seed, 2)
        graph, _ = planted_matching_gnp(
            self.n // 2, self.n // 2, p=3.0 / self.n, rng=g_rng
        )
        part = random_k_partition(graph, self.k, p_rng)
        opt_matching = maximum_matching(graph)
        mm = opt_matching.shape[0]
        _, trace = greedy_match(part, reference_optimum=opt_matching)
        prefix = np.asarray(trace.optimal_assigned_prefix, dtype=np.float64)
        ideal = np.arange(self.k, dtype=np.float64) / self.k * mm
        dev = float(np.abs(prefix - ideal).max() / mm)
        gains = np.asarray(
            trace.gains[: max(1, self.k // 3)], dtype=np.float64
        )
        return {
            "ratio": mm / max(1, trace.final_size),
            "dev": dev,
            "gain": float(gains.mean() / (mm / self.k)),
            "final_frac": trace.final_size / mm,
        }

    @classmethod
    def cells(cls, *, n, k):
        return [cls(n=n, k=k)]

    def row(self, m: Metrics) -> Row:
        return dict(
            k=self.k,
            final_ratio=float(m["ratio"].mean()),
            prefix_deviation_max=float(m["dev"].max()),
            first_third_gain_over_mm_per_k=float(m["gain"].mean()),
            final_over_mm=float(m["final_frac"].mean()),
        )

    @classmethod
    def describe(cls, *, n, k, **_):
        return (f"n={n}, k={k}; prefix_dev = "
                "max_i |prefix_i - (i/k)·MM| / MM")


# --------------------------------------------------------------------- #
# E15 — ablation: summarizer × combiner grid
# --------------------------------------------------------------------- #
def _e15_protocol(variant: str):
    """Build the protocol for one named E15 ablation variant."""
    from repro.baselines.bad_coresets import maximal_matching_coreset_protocol
    from repro.baselines.naive import send_everything_protocol
    from repro.core.protocols import (
        matching_coreset_protocol,
        subsampled_matching_protocol,
    )

    factories = {
        "maximum+exact": lambda: matching_coreset_protocol(combiner="exact"),
        "maximum+greedy": lambda: matching_coreset_protocol(combiner="greedy"),
        "maximal(random)+exact":
            lambda: maximal_matching_coreset_protocol(order="random"),
        "subsampled(alpha=4)+exact":
            lambda: subsampled_matching_protocol(4.0),
        "send-everything": lambda: send_everything_protocol("matching"),
    }
    if variant not in factories:
        raise ValueError(
            f"unknown E15 variant {variant!r}; available: "
            f"{', '.join(factories)}"
        )
    return factories[variant]()


E15_VARIANTS = (
    "maximum+exact",
    "maximum+greedy",
    "maximal(random)+exact",
    "subsampled(alpha=4)+exact",
    "send-everything",
)


@experiment(
    "e15",
    title="E15: summarizer/combiner ablation",
    description="one workload, all summarizer/combiner variants side by side",
    columns=["variant", "ratio_mean", "total_bits_mean"],
    grid=dict(n=4000, k=8, variants=E15_VARIANTS, n_trials=3),
    seed=1515,
)
@dataclass(frozen=True)
class E15Trial(Trial):
    """One summarizer/combiner ablation variant on the planted workload.

    Expected shape: maximum+exact ≈ maximum+greedy; maximal (random
    order) is fine on these trap-free inputs; subsampled degrades
    gracefully; send-everything is exact but orders of magnitude more bits.
    """

    n: int
    k: int
    variant: str

    def __call__(self, seed: RandomState) -> Dict[str, float]:
        from repro.dist.coordinator import run_simultaneous
        from repro.graph.generators import planted_matching_gnp
        from repro.graph.partition import random_k_partition
        from repro.matching.api import matching_number

        g_rng, p_rng, r_rng = spawn_generators(seed, 3)
        protocol = _e15_protocol(self.variant)
        graph, _ = planted_matching_gnp(
            self.n // 2, self.n // 2, p=3.0 / self.n, rng=g_rng
        )
        part = random_k_partition(graph, self.k, p_rng)
        res = run_simultaneous(protocol, part, r_rng)
        opt = matching_number(graph)
        return {
            "ratio": opt / max(1, res.output.shape[0]),
            "bits": res.total_bits,
        }

    @classmethod
    def cells(cls, *, n, k, variants):
        return [cls(n=n, k=k, variant=variant) for variant in variants]

    def row(self, m: Metrics) -> Row:
        return dict(
            variant=self.variant,
            ratio_mean=float(m["ratio"].mean()),
            total_bits_mean=float(m["bits"].mean()),
        )

    @classmethod
    def describe(cls, *, n, k, **_):
        return f"bipartite planted workload, n={n}, k={k}"


# --------------------------------------------------------------------- #
# E16 — §1.3 connection: random-arrival streaming
# --------------------------------------------------------------------- #
@experiment(
    "e16",
    title="E16: streaming arrival orders (paper §1.3 connection)",
    description="one-pass matchers under random vs adversarial arrival",
    columns=["order", "greedy_ratio", "two_phase_ratio",
             "memory_words_over_n"],
    grid=dict(n=8000, noise_degree=3.0, n_trials=3),
    seed=1616,
)
@dataclass(frozen=True)
class E16Trial(Trial):
    """The streaming shadow of random partitioning: one-pass greedy under
    random vs adversarial arrival, plus the two-phase random-arrival
    matcher.

    Expected shape: greedy ≥ 0.5·OPT always (maximality); random order
    beats adversarial order; two-phase beats greedy on random order.
    """

    n: int
    noise_degree: float

    def __call__(self, seed: RandomState) -> Dict[str, float]:
        from repro.graph.generators import planted_matching_gnp
        from repro.matching.api import maximum_matching
        from repro.streaming import (
            StreamingGreedyMatcher,
            TwoPhaseStreamingMatcher,
            adversarial_order,
            random_order,
        )

        g_rng, o_rng, o2_rng = spawn_generators(seed, 3)
        graph, _ = planted_matching_gnp(
            self.n // 2, self.n // 2, p=self.noise_degree / self.n, rng=g_rng
        )
        opt_matching = maximum_matching(graph)
        opt = opt_matching.shape[0]
        out: Dict[str, float] = {}
        orders = {
            "random": random_order(graph, o_rng),
            "adversarial": adversarial_order(graph, opt_matching, o2_rng),
        }
        for name, order in orders.items():
            greedy = StreamingGreedyMatcher(graph.n_vertices)
            g_m = greedy.run(graph, order)
            two = TwoPhaseStreamingMatcher(graph.n_vertices)
            t_m = two.run(graph, order)
            out[f"{name}_greedy"] = g_m.shape[0] / max(1, opt)
            out[f"{name}_two"] = t_m.shape[0] / max(1, opt)
            out[f"{name}_mem"] = two.memory_words / graph.n_vertices
        return out

    @classmethod
    def cells(cls, *, n, noise_degree):
        return [cls(n=n, noise_degree=noise_degree)]

    def row(self, m: Metrics) -> List[Row]:
        return [
            dict(
                order=name,
                greedy_ratio=float(m[f"{name}_greedy"].mean()),
                two_phase_ratio=float(m[f"{name}_two"].mean()),
                memory_words_over_n=float(m[f"{name}_mem"].mean()),
            )
            for name in ("random", "adversarial")
        ]

    @classmethod
    def describe(cls, *, n, **_):
        return f"n={n}; one-pass semi-streaming, ratios vs MM(G)"


# --------------------------------------------------------------------- #
# E17 — footnote 3: exact kernel coresets for small optima
# --------------------------------------------------------------------- #
@experiment(
    "e17",
    title="E17: exact kernel coresets for small optima (footnote 3)",
    description="exact composable kernels when MM(G) <= K, both partitionings",
    columns=["opt_bound", "mm", "exact_random", "exact_adversarial",
             "graph_edges", "kernel_edges_total"],
    grid=dict(opt_values=(32, 128, 512), n=8000, k=8, n_trials=3),
    seed=1717,
)
@dataclass(frozen=True)
class E17Trial(Trial):
    """Exact composable kernels at one optimum bound K, under both
    partitionings (footnote 3); K must be at least 16.

    Expected shape: output exactly MM(G) under *both* random and
    adversarial partitioning; kernel size grows ~O(K²), not with n.
    """

    n: int
    k: int
    opt_bound: int

    def __call__(self, seed: RandomState) -> Dict[str, float]:
        from repro.core.kernel_coreset import exact_matching_kernel_protocol
        from repro.dist.coordinator import run_simultaneous
        from repro.graph.generators import planted_matching_gnp
        from repro.graph.partition import (
            adversarial_degree_partition,
            random_k_partition,
        )
        from repro.matching.api import matching_number

        g_rng, p_rng, r_rng = spawn_generators(seed, 3)
        protocol = exact_matching_kernel_protocol(self.opt_bound)
        # MM(G) = opt_bound: planted matching on opt_bound left
        # vertices plus dense noise touching only those lefts, so the
        # kernel's O(K²) size bound is what binds (not the graph size).
        graph, _ = planted_matching_gnp(
            self.opt_bound, self.n, p=16.0 / self.opt_bound, rng=g_rng
        )
        mm = matching_number(graph)
        rand = run_simultaneous(
            protocol, random_k_partition(graph, self.k, p_rng), r_rng
        )
        adv = run_simultaneous(
            protocol, adversarial_degree_partition(graph, self.k), r_rng
        )
        return {
            "mm": mm,
            "rand_exact": float(rand.output.shape[0] == mm),
            "adv_exact": float(adv.output.shape[0] == mm),
            "graph_edges": graph.n_edges,
            "kernel_edges": rand.ledger.total_edges(),
        }

    @classmethod
    def cells(cls, *, opt_values, n, k):
        return [cls(n=n, k=k, opt_bound=opt_bound) for opt_bound in opt_values]

    def row(self, m: Metrics) -> Row:
        return dict(
            opt_bound=self.opt_bound,
            mm=float(m["mm"].mean()),
            exact_random=bool(m["rand_exact"].all()),
            exact_adversarial=bool(m["adv_exact"].all()),
            graph_edges=float(m["graph_edges"].mean()),
            kernel_edges_total=float(m["kernel_edges"].mean()),
        )

    @classmethod
    def describe(cls, *, n, k, **_):
        return (f"n={n}, k={k}; kernel = maximal matching core + "
                "3K+2 extra edges per matched vertex")


# --------------------------------------------------------------------- #
# E18 — robustness: both coresets across graph families
# --------------------------------------------------------------------- #
def _family_gnp(n: int, rng):
    from repro.graph.generators import bipartite_gnp

    half = n // 2
    return bipartite_gnp(half, half, 3.0 / half, rng)


def _family_planted(n: int, rng):
    from repro.graph.generators import planted_matching_gnp

    half = n // 2
    return planted_matching_gnp(half, half, 2.0 / n, rng=rng)[0]


def _family_power_law(n: int, rng):
    from repro.graph.generators import power_law_bipartite

    half = n // 2
    return power_law_bipartite(half, half, avg_degree=4.0, exponent=2.2,
                               rng=rng)


def _family_clustered(n: int, rng):
    from repro.graph.generators import clustered_bipartite

    half = n // 2
    return clustered_bipartite(
        n_blocks=max(2, half // 100), block_size=100,
        p_in=0.08, p_out=0.2 / half, rng=rng,
    )


def _family_stars_noise(n: int, rng):
    from repro.graph.generators import bipartite_gnp, bipartite_star_forest

    half = n // 2
    return bipartite_star_forest(half // 8, 8).union(
        bipartite_gnp(half // 8, half, 1.0 / half, rng)
    )


E18_FAMILIES = {
    "gnp": _family_gnp,
    "planted": _family_planted,
    "power_law": _family_power_law,
    "clustered": _family_clustered,
    "stars+noise": _family_stars_noise,
}


@experiment(
    "e18",
    title="E18: coreset robustness across graph families",
    description="Theorem 1 + Theorem 2 on five structurally distinct "
                "families",
    columns=["family", "matching_ratio_mean", "matching_ratio_max",
             "vc_ratio_mean", "vc_feasible"],
    grid=dict(n=4000, k=8, families=tuple(E18_FAMILIES), n_trials=3),
    seed=1818,
)
@dataclass(frozen=True)
class E18Trial(Trial):
    """Both coresets on one structurally distinct graph family: Gnp,
    planted matching, power-law, community-clustered, or star-heavy.

    The theorems are worst-case over graphs (only the partitioning is
    random), so the ratios should stay inside the bounds on *every*
    family.  Expected shape: matching ratio ≤ ~3 and VC ratio ≤ O(log n)
    across the board, with heavy-tailed families the hardest.
    """

    n: int
    k: int
    family: str

    def __call__(self, seed: RandomState) -> Dict[str, float]:
        from repro.core.protocols import (
            matching_coreset_protocol,
            vertex_cover_coreset_protocol,
        )
        from repro.cover import is_vertex_cover, konig_cover
        from repro.dist.coordinator import run_simultaneous
        from repro.graph.partition import random_k_partition
        from repro.matching.api import matching_number

        if self.family not in E18_FAMILIES:
            raise ValueError(
                f"unknown E18 family {self.family!r}; available: "
                f"{', '.join(E18_FAMILIES)}"
            )
        g_rng, p_rng, r_rng = spawn_generators(seed, 3)
        match_p = matching_coreset_protocol()
        vc_p = vertex_cover_coreset_protocol(k=self.k)
        graph = E18_FAMILIES[self.family](self.n, g_rng)
        part = random_k_partition(graph, self.k, p_rng)
        rm = run_simultaneous(match_p, part, r_rng)
        rv = run_simultaneous(vc_p, part, r_rng)
        mm = matching_number(graph)
        vc = int(konig_cover(graph).shape[0])
        return {
            "m_ratio": mm / max(1, rm.output.shape[0]),
            "v_ratio": rv.output.shape[0] / max(1, vc),
            "v_feasible": float(is_vertex_cover(graph, rv.output)),
        }

    @classmethod
    def cells(cls, *, n, k, families):
        return [cls(n=n, k=k, family=family) for family in families]

    def row(self, m: Metrics) -> Row:
        return dict(
            family=self.family,
            matching_ratio_mean=float(m["m_ratio"].mean()),
            matching_ratio_max=float(m["m_ratio"].max()),
            vc_ratio_mean=float(m["v_ratio"].mean()),
            vc_feasible=bool(m["v_feasible"].all()),
        )

    @classmethod
    def describe(cls, *, n, k, families, **_):
        return (f"n≈{n}, k={k}; Theorem 1 + Theorem 2 on "
                f"{len(families)} families")


# --------------------------------------------------------------------- #
# E19 — §1.3: edge-partition vs vertex-partition simultaneous models
# --------------------------------------------------------------------- #
@experiment(
    "e19",
    title="E19: edge-partition vs vertex-partition models (§1.3 / [10])",
    description="same Theorem 1 summarizer in both simultaneous models",
    columns=["k", "edge_model_ratio", "vertex_model_ratio",
             "edge_model_bits", "vertex_model_bits",
             "duplication_factor"],
    grid=dict(n=4000, k_values=(4, 16), n_trials=3),
    seed=1919,
)
@dataclass(frozen=True)
class E19Trial(Trial):
    """Theorem 1 coreset in the edge- and vertex-partition models.

    In the paper's edge-partition model each edge lives on one machine; in
    the [10] vertex-partition model each machine sees all edges incident on
    its vertices (cross edges are duplicated, duplication factor → 2−1/k).
    Expected shape: quality comparable on benign inputs (the [10] hardness
    needs Ruzsa–Szemerédi instances), but the vertex model pays the
    duplication factor in communication — and each machine's piece is a
    constant fraction of the graph, so the per-player Õ(n) budget is simply
    bypassed rather than met.
    """

    n: int
    k: int

    def __call__(self, seed: RandomState) -> Dict[str, float]:
        from repro.core.protocols import matching_coreset_protocol
        from repro.dist.coordinator import run_simultaneous
        from repro.graph.generators import planted_matching_gnp
        from repro.graph.partition import (
            random_k_partition,
            random_vertex_partition,
        )
        from repro.matching.api import matching_number

        g_rng, p_rng, v_rng, r_rng = spawn_generators(seed, 4)
        protocol = matching_coreset_protocol()
        graph, _ = planted_matching_gnp(
            self.n // 2, self.n // 2, p=3.0 / self.n, rng=g_rng
        )
        opt = matching_number(graph)
        edge_part = random_k_partition(graph, self.k, p_rng)
        vertex_part = random_vertex_partition(graph, self.k, v_rng)
        re_ = run_simultaneous(protocol, edge_part, r_rng)
        rv = run_simultaneous(protocol, vertex_part, r_rng)
        return {
            "e_ratio": opt / max(1, re_.output.shape[0]),
            "v_ratio": opt / max(1, rv.output.shape[0]),
            "e_bits": re_.total_bits,
            "v_bits": rv.total_bits,
            "dup": vertex_part.duplication_factor(),
        }

    @classmethod
    def cells(cls, *, n, k_values):
        return [cls(n=n, k=k) for k in k_values]

    def row(self, m: Metrics) -> Row:
        return dict(
            k=self.k,
            edge_model_ratio=float(m["e_ratio"].mean()),
            vertex_model_ratio=float(m["v_ratio"].mean()),
            edge_model_bits=float(m["e_bits"].mean()),
            vertex_model_bits=float(m["v_bits"].mean()),
            duplication_factor=float(m["dup"].mean()),
        )

    @classmethod
    def describe(cls, *, n, **_):
        return f"n={n}; same Theorem 1 summarizer in both models"


# --------------------------------------------------------------------- #
# E20 — the "w.h.p." itself: concentration of the coreset guarantee
# --------------------------------------------------------------------- #
@experiment(
    "e20",
    title="E20: concentration of the w.h.p. guarantees",
    description="tail probability of the ratio across many partitionings",
    columns=["n", "ratio_mean", "ratio_std", "ratio_max",
             "tail_probability", "prefix_dev_max"],
    grid=dict(n_values=(500, 2000, 8000), k=8, n_trials=20,
              ratio_threshold=1.5),
    seed=2020,
)
@dataclass(frozen=True)
class E20Trial(Trial):
    """One independent partitioning for the tail-probability estimate.

    Theorem 1 and Claim 3.3 are "with high probability" statements: the
    failure probability must *vanish as n grows* (the proofs lose O(1/n)
    per Chernoff application).  The table estimates P[ratio >
    ``ratio_threshold``] across many independent partitionings.

    Expected shape: the tail probability and the spread of the per-step
    prefix deviation both shrink monotonically-ish in n.
    """

    n: int
    k: int
    ratio_threshold: float = 1.5

    def __call__(self, seed: RandomState) -> Dict[str, float]:
        from repro.core.greedy_match import greedy_match
        from repro.core.protocols import matching_coreset_protocol
        from repro.dist.coordinator import run_simultaneous
        from repro.graph.generators import planted_matching_gnp
        from repro.graph.partition import random_k_partition
        from repro.matching.api import maximum_matching

        g_rng, p_rng, r_rng = spawn_generators(seed, 3)
        protocol = matching_coreset_protocol()
        graph, _ = planted_matching_gnp(
            self.n // 2, self.n // 2, p=3.0 / self.n, rng=g_rng
        )
        opt_matching = maximum_matching(graph)
        mm = opt_matching.shape[0]
        part = random_k_partition(graph, self.k, p_rng)
        res = run_simultaneous(protocol, part, r_rng)
        _, trace = greedy_match(part, reference_optimum=opt_matching)
        prefix = np.asarray(trace.optimal_assigned_prefix, float)
        ideal = np.arange(self.k, dtype=float) / self.k * mm
        dev = float(np.abs(prefix - ideal).max() / max(1, mm))
        return {
            "ratio": mm / max(1, res.output.shape[0]),
            "dev": dev,
        }

    @classmethod
    def cells(cls, *, n_values, k, ratio_threshold):
        return [cls(n=n, k=k, ratio_threshold=ratio_threshold)
                for n in n_values]

    def row(self, m: Metrics) -> Row:
        ratios = m["ratio"]
        return dict(
            n=self.n,
            ratio_mean=float(ratios.mean()),
            ratio_std=float(ratios.std(ddof=1)),
            ratio_max=float(ratios.max()),
            tail_probability=float((ratios > self.ratio_threshold).mean()),
            prefix_dev_max=float(m["dev"].max()),
        )

    @classmethod
    def describe(cls, *, k, n_trials, ratio_threshold, **_):
        return (f"k={k}, {n_trials} independent partitionings per n; "
                f"tail = P[ratio > {ratio_threshold:g}]")


# --------------------------------------------------------------------- #
# E21 — parallel scaling of the execution backends (E8 workload)
# --------------------------------------------------------------------- #
@experiment(
    "e21",
    title="E21: parallel scaling (executor backends, E8 workload)",
    description="wall-clock per executor backend; identity vs serial is "
                "the correctness claim",
    columns=["executor", "workers", "wall_s_mean", "wall_s_min",
             "speedup", "matching_size_mean", "identical_to_serial"],
    grid=dict(n=4000, avg_degree=24.0, n_trials=3,
              executors=("serial", "processes"), workers=None),
    seed=2121,
    fan_out=False,
)
@dataclass(frozen=True)
class E21Trial(Trial):
    """Wall-clock of one E8 MapReduce workload on one executor backend.

    Each trial builds its workload from the seed, runs it serially for
    the reference, and re-runs it on the requested backend with the same
    MapReduce seed — so ``identical`` is a genuine serial-vs-backend
    comparison and ``wall_s`` / ``serial_wall_s`` time the same work.

    Expected shape: every backend bit-identical to serial; process speedup
    grows toward min(k, cores) as pieces get heavier.  Wall-clock columns
    are measurements of *this* machine, not of the model — only the
    identical_to_serial column is a correctness claim.  The table sweeps
    the machine-level backends itself, so it registers ``fan_out=False``
    and its trials always run serially: fanning timing trials out across
    processes would contend for the same cores the measured backends use
    and skew every wall-clock column.
    """

    n: int
    avg_degree: float
    executor: str
    workers: Optional[int] = None

    def __call__(self, seed: RandomState) -> Dict[str, float]:
        from repro.core.mapreduce_algos import mapreduce_matching
        from repro.dist.executor import resolve_executor
        from repro.graph.generators import planted_matching_gnp

        g_seed, mr_seed = seed.spawn(2) if isinstance(
            seed, np.random.SeedSequence
        ) else np.random.SeedSequence(seed).spawn(2)
        memory = int(self.n ** 1.5)
        graph, _ = planted_matching_gnp(
            self.n // 2, self.n // 2, p=self.avg_degree / self.n,
            rng=np.random.default_rng(g_seed),
        )

        def timed(backend):
            start = time.perf_counter()
            res = mapreduce_matching(
                graph, rng=mr_seed, memory_cap_edges=memory,
                executor=backend,
            )
            return time.perf_counter() - start, res.matching

        serial_wall, serial_matching = timed(resolve_executor("serial"))
        backend = resolve_executor(self.executor, workers=self.workers)
        if backend.name == "serial":
            wall, matching = serial_wall, serial_matching
        else:
            wall, matching = timed(backend)
        return {
            "wall_s": wall,
            "serial_wall_s": serial_wall,
            "size": float(matching.shape[0]),
            "serial_size": float(serial_matching.shape[0]),
            "identical": float(np.array_equal(matching, serial_matching)),
        }

    @classmethod
    def cells(cls, *, n, avg_degree, executors, workers):
        return [cls(n=n, avg_degree=avg_degree, executor=name,
                    workers=workers)
                for name in executors]

    def row(self, m: Metrics) -> Row:
        from repro.dist.executor import resolve_executor

        backend = resolve_executor(self.executor, workers=self.workers)
        backend.close()
        walls = m["wall_s"]
        mean_wall = float(walls.mean())
        return dict(
            executor=backend.name,
            workers=getattr(backend, "max_workers", 1),
            wall_s_mean=mean_wall,
            wall_s_min=float(walls.min()),
            speedup=float(m["serial_wall_s"].mean()) / max(mean_wall, 1e-12),
            matching_size_mean=float(m["size"].mean()),
            identical_to_serial=bool(m["identical"].all()),
        )

    @classmethod
    def describe(cls, *, n, avg_degree, n_trials, **_):
        return (f"n={n}, m≈{int(n * avg_degree / 2)}, {n_trials} trials; "
                f"speedup and identity are vs a serial run of the same "
                f"seeds")


# --------------------------------------------------------------------- #
# E22 — workloads: coreset quality under random vs adversarial partitions
# --------------------------------------------------------------------- #
@experiment(
    "e22",
    title="E22: workload coresets under random vs adversarial partitions",
    description="registry workloads × {maximum, greedy} summarizers; "
                "ratio = MM(G)/|composed| per partition strategy",
    columns=["workload", "summarizer", "opt_mean", "r_random",
             "r_degree_sorted", "r_community", "adversarial_gap"],
    grid=dict(workloads=("gmission", "movielens", "ba", "power_law"),
              summarizers=("maximum", "greedy"), k=4, n_trials=3),
    seed=2222,
)
@dataclass(frozen=True)
class E22Trial(Trial):
    """One registry workload × one summarizer, all partition strategies.

    The guarantee of Theorem 1 is conditioned on the *random* k-partition;
    this trial measures what a non-random sharding costs on real degree
    distributions.  The graph comes from the :mod:`repro.workloads`
    registry (dataset-backed loaders run offline from their bundled
    fixtures), each machine summarizes its piece with either a **maximum**
    matching (the Theorem 1 coreset) or a **greedy** maximal matching (the
    §1.2 naive coreset), and the coordinator takes a maximum matching of
    the union.  ``ratio_<strategy> = MM(G) / |composed|`` for every
    strategy in :data:`~repro.workloads.partitions.PARTITION_STRATEGIES`.

    Expected shape: with the **maximum** summarizer every strategy stays
    near-optimal — the theorem's guarantee needs the random partition, but
    real hub structure also survives union composition.  With the
    **greedy** summarizer the degree-sorted adversary concentrates each
    hub's edges on one machine; greedy keeps one edge per hub with no
    alternatives elsewhere in the union, so ``r_degree_sorted`` rises
    above ``r_random`` (positive ``adversarial_gap``) — the §1.2 failure
    mode on natural graphs rather than gadgets.
    """

    workload: str
    k: int
    summarizer: str = "greedy"

    def __call__(self, seed: RandomState) -> Dict[str, float]:
        from repro.graph.bipartite import BipartiteGraph
        from repro.matching.api import matching_number, maximum_matching
        from repro.matching.maximal import greedy_maximal_matching
        from repro.workloads.partitions import (
            PARTITION_STRATEGIES,
            partition_workload,
        )
        from repro.workloads.registry import build_workload

        if self.summarizer not in ("maximum", "greedy"):
            raise ValueError(
                f"summarizer must be 'maximum' or 'greedy', "
                f"got {self.summarizer!r}"
            )
        g_rng, p_rng, o_rng = spawn_generators(seed, 3)
        graph = build_workload(self.workload, rng=g_rng)
        opt = matching_number(graph)
        part_rngs = spawn_generators(p_rng, len(PARTITION_STRATEGIES))
        order_rngs = spawn_generators(o_rng, len(PARTITION_STRATEGIES))
        out: Dict[str, float] = {"opt": float(opt)}
        for strategy, s_rng, ord_rng in zip(
            PARTITION_STRATEGIES, part_rngs, order_rngs
        ):
            part = partition_workload(graph, self.k, strategy, s_rng)
            summaries = []
            for piece in part.pieces():
                if self.summarizer == "maximum":
                    summary = maximum_matching(piece)
                else:
                    summary = greedy_maximal_matching(
                        piece, order="random", rng=ord_rng
                    )
                if summary.shape[0]:
                    summaries.append(summary)
            if summaries:
                union = BipartiteGraph(
                    graph.n_left, graph.n_right, np.concatenate(summaries)
                )
                composed = maximum_matching(union).shape[0]
            else:
                composed = 0
            out[f"ratio_{strategy}"] = opt / max(1, composed)
        return out

    @classmethod
    def cells(cls, *, workloads, summarizers, k):
        return [cls(workload=workload, k=k, summarizer=summarizer)
                for workload in workloads for summarizer in summarizers]

    def row(self, m: Metrics) -> Row:
        r_random = float(m["ratio_random"].mean())
        r_degree = float(m["ratio_degree_sorted"].mean())
        r_community = float(m["ratio_community"].mean())
        return dict(
            workload=self.workload,
            summarizer=self.summarizer,
            opt_mean=float(m["opt"].mean()),
            r_random=r_random,
            r_degree_sorted=r_degree,
            r_community=r_community,
            adversarial_gap=max(r_degree, r_community) - r_random,
        )

    @classmethod
    def describe(cls, *, k, n_trials, **_):
        return (f"k={k}, {n_trials} trials; ratio = opt/composed "
                f"(1.0 = optimal), gap = max adversarial − random")


# --------------------------------------------------------------------- #
# E23 — capacitated coreset: b-matching on the AdWords workload
# --------------------------------------------------------------------- #
@experiment(
    "e23",
    title="E23: capacitated (b-matching) coreset on the AdWords workload",
    description="greedy-summary b-matching coreset vs exact optimum on "
                "ba_adwords, per partition strategy",
    columns=["k", "opt_mean", "r_random", "r_degree_sorted", "r_community",
             "feasible"],
    grid=dict(k_values=(4, 8), u=200, v=800, p=4.0, n_trials=3),
    seed=2323,
)
@dataclass(frozen=True)
class E23Trial(Trial):
    """b-matching coreset quality on ``ba_adwords``, all strategies.

    Optimum is the exact maximum-cardinality b-matching
    (``matching.b_exact``); each strategy runs the ``matching.b_coreset``
    heuristic (per-machine greedy b-matching summaries, exact b-matching
    on the union) and reports its ratio plus capacity feasibility as
    verified by the solve facade.

    This is the composable-coreset recipe applied beyond the paper's
    setting.  Expected shape: ratios modestly above 1 for the random
    partition and degrading under the adversarial strategies; ``feasible``
    must hold everywhere — capacity violations would mean the composition
    step broke the budget constraints, not just the approximation.
    """

    k: int
    u: int = 200
    v: int = 800
    p: float = 4.0

    def __call__(self, seed: RandomState) -> Dict[str, float]:
        from repro.solve import RunContext, solve
        from repro.workloads.partitions import PARTITION_STRATEGIES
        from repro.workloads.registry import build_workload

        g_rng, s_rng = spawn_generators(seed, 2)
        graph = build_workload(
            "ba_adwords", rng=g_rng, u=self.u, v=self.v, p=self.p
        )
        opt = solve(graph, "matching.b_exact").value
        out: Dict[str, float] = {
            "opt": float(opt),
            "total_capacity": float(graph.total_capacity()),
        }
        strategy_rngs = spawn_generators(s_rng, len(PARTITION_STRATEGIES))
        for strategy, rng in zip(PARTITION_STRATEGIES, strategy_rngs):
            res = solve(graph, "matching.b_coreset",
                        RunContext(seed=rng, k=self.k), strategy=strategy)
            out[f"ratio_{strategy}"] = opt / max(1.0, res.value)
            out[f"feasible_{strategy}"] = float(res.verified)
        return out

    @classmethod
    def cells(cls, *, k_values, u, v, p):
        return [cls(k=k, u=u, v=v, p=p) for k in k_values]

    def row(self, m: Metrics) -> Row:
        feasible = all(
            m[f"feasible_{s}"].all()
            for s in ("random", "degree_sorted", "community")
        )
        return dict(
            k=self.k,
            opt_mean=float(m["opt"].mean()),
            r_random=float(m["ratio_random"].mean()),
            r_degree_sorted=float(m["ratio_degree_sorted"].mean()),
            r_community=float(m["ratio_community"].mean()),
            feasible=bool(feasible),
        )

    @classmethod
    def describe(cls, *, u, v, p, n_trials, **_):
        return (f"ba_adwords u={u} v={v} p={p}, {n_trials} trials; "
                f"opt = exact max-cardinality b-matching")
