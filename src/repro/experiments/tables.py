"""E1–E23: one declarative spec per reproduced claim.

The paper is theoretical; each "table" here is the empirical rendering of
one theorem/remark/example, as indexed in DESIGN.md §4.  Every experiment
is registered with the :mod:`repro.experiments.registry` via the
:func:`~repro.experiments.registry.experiment` decorator: the spec carries
id, title, description, columns, the default parameter grid, and the seed,
while the builder below sweeps the grid, runs the picklable
:mod:`~repro.experiments.trials` dataclasses through
:func:`~repro.experiments.harness.run_trials`, and aggregates the metrics
into rows.  Every table is deterministic given its ``seed`` — on any
executor backend.

Importing this module registers the specs; the builders are not called
directly.  Run an experiment through the registry
(``get_experiment("e1").run(...)``); see ``docs/EXPERIMENTS_API.md``.
"""

from __future__ import annotations

import math

from repro.experiments.harness import run_trials
from repro.experiments.registry import ExperimentSpec, experiment
from repro.experiments.trials import (
    E1Trial,
    E2Trial,
    E3Trial,
    E4Trial,
    E5Trial,
    E6Trial,
    E7Trial,
    E8Trial,
    E9Trial,
    E10Trial,
    E11Trial,
    E12Trial,
    E13Trial,
    E14Trial,
    E15Trial,
    E16Trial,
    E17Trial,
    E18Trial,
    E19Trial,
    E20Trial,
    E21Trial,
    E22Trial,
    E23Trial,
    E15_VARIANTS,
    E18_FAMILIES,
)

__all__: list[str] = []


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
def e1_matching_coreset(spec: ExperimentSpec, *, n_values, k_values,
                        n_trials, general_graphs, seed, executor):
    """Approximation ratio of the Theorem 1 coreset vs n and k.

    Expected shape: ratio ≤ ~3 (theory: ≤ 9), flat in both n and k.
    """
    table = spec.new_table()
    for n in n_values:
        for k in k_values:
            trial = E1Trial(n=n, k=k, general_graphs=general_graphs)
            m = run_trials(trial, n_trials, seed, executor=executor)
            table.add_row(
                graph="gnp" if general_graphs else "bip+planted",
                n=n,
                k=k,
                ratio_mean=float(m["ratio"].mean()),
                ratio_max=float(m["ratio"].max()),
                coreset_edges_mean=float(m["coreset_edges"].mean()),
            )
    return table


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
def e2_maximal_coreset_bad(spec: ExperimentSpec, *, k_values, width,
                           n_trials, seed, executor):
    """Worst-case *maximal* matching vs *maximum* matching as coresets on
    the hidden-matching-with-hubs instance (§1.2's Ω(k) example).

    Expected shape: maximal-coreset ratio grows ~linearly with k (≈ k/2 at
    hub slack 2); the Theorem 1 coreset stays O(1) on the same inputs and
    the same random partitions.
    """
    table = spec.new_table()
    for k in k_values:
        m = run_trials(E2Trial(k=k, width=width), n_trials, seed,
                       executor=executor)
        table.add_row(
            k=k,
            opt_lb=float(m["opt"].mean()),
            maximal_ratio=float(m["bad_ratio"].mean()),
            maximum_ratio=float(m["good_ratio"].mean()),
        )
    return table


# --------------------------------------------------------------------- #
# E3 — Theorem 2: VC coreset is O(log n)-approximate, size O(n log n)
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
def e3_vc_coreset(spec: ExperimentSpec, *, n_values, k_values, n_trials,
                  seed, executor):
    """Approximation ratio and message size of the Theorem 2 coreset on
    skewed-degree bipartite workloads.

    Expected shape: ratio well below log2(n); residual size O(n log n).
    """
    table = spec.new_table()
    for n in n_values:
        for k in k_values:
            m = run_trials(E3Trial(n=n, k=k), n_trials, seed,
                           executor=executor)
            table.add_row(
                n=n, k=k,
                ratio_mean=float(m["ratio"].mean()),
                ratio_max=float(m["ratio"].max()),
                log2_n=math.log2(n),
                residual_edges_mean=float(m["residual"].mean()),
                fixed_vertices_mean=float(m["fixed"].mean()),
                feasible=bool(m["feasible"].all()),
            )
    return table


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
def e4_minvc_coreset_bad(spec: ExperimentSpec, *, k_values, n_stars,
                         n_trials, seed, executor):
    """Min-VC-of-the-piece vs the Theorem 2 peeling coreset on star forests.

    Expected shape: min-VC coreset ratio grows ~linearly in k (leaves get
    certified); the peeling coreset stays O(log n).
    """
    table = spec.new_table()
    for k in k_values:
        m = run_trials(E4Trial(k=k, n_stars=n_stars), n_trials, seed,
                       executor=executor)
        table.add_row(
            k=k,
            opt=n_stars,
            minvc_ratio=float(m["bad_ratio"].mean()),
            peeling_ratio=float(m["good_ratio"].mean()),
            both_feasible=bool(m["feasible"].all()),
        )
    return table


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
def e5_matching_size_lb(spec: ExperimentSpec, *, n, alpha, k,
                        budget_factors, n_trials, seed, executor):
    """Budget-limited coresets on D_Matching, budgets around n/α².

    Expected shape: achieved ratio crosses α as the per-machine budget
    crosses ~n/α² (the Theorem 3 threshold).
    """
    threshold = n / alpha**2
    table = spec.new_table(
        description=f"D_Matching(n={n}, alpha={alpha:g}, k={k}); "
                    f"threshold budget n/alpha^2 = {threshold:.0f}",
    )
    for factor in budget_factors:
        budget = max(1, int(round(factor * threshold)))
        m = run_trials(E5Trial(n=n, alpha=alpha, k=k, budget=budget),
                       n_trials, seed, executor=executor)
        ratio = float(m["ratio"].mean())
        table.add_row(
            budget=budget,
            budget_over_threshold=factor,
            ratio_mean=ratio,
            hidden_recovered_mean=float(m["hidden"].mean()),
            beats_alpha=bool(ratio < alpha),
        )
    return table


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
def e6_vc_size_lb(spec: ExperimentSpec, *, n, alpha, k, budget_factors,
                  n_trials, seed, executor):
    """Budget-limited coresets on D_VC, budgets around n/α.

    Expected shape: P[e* covered] (hence feasibility) collapses once the
    budget drops below ~n/α.
    """
    threshold = n / alpha
    table = spec.new_table(
        description=f"D_VC(n={n}, alpha={alpha:g}, k={k}); "
                    f"threshold budget n/alpha = {threshold:.0f}",
    )
    for factor in budget_factors:
        budget = max(1, int(round(factor * threshold)))
        m = run_trials(E6Trial(n=n, alpha=alpha, k=k, budget=budget),
                       n_trials, seed, executor=executor)
        table.add_row(
            budget=budget,
            budget_over_threshold=factor,
            p_estar_covered=float(m["covered"].mean()),
            p_feasible=float(m["feasible"].mean()),
            cover_size_mean=float(m["size"].mean()),
        )
    return table


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
def e7_random_vs_adversarial(spec: ExperimentSpec, *, k_values,
                             n_hidden_per_k, n_trials, seed, executor):
    """Same graph, same Theorem 1 coreset, two partitionings.

    Expected shape: random ratio O(1); adversarial ratio ≈ (k+1)/2.
    """
    table = spec.new_table()
    for k in k_values:
        m = run_trials(E7Trial(k=k, n_hidden=n_hidden_per_k * k),
                       n_trials, seed, executor=executor)
        table.add_row(
            k=k,
            opt_mean=float(m["opt"].mean()),
            random_ratio=float(m["rand"].mean()),
            adversarial_ratio=float(m["adv"].mean()),
            predicted_adversarial=(k + 1) / 2,
        )
    return table


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
def e8_mapreduce_rounds(spec: ExperimentSpec, *, n, avg_degree, n_trials,
                        seed, executor):
    """2-round coreset MapReduce vs the [46] filtering algorithm at the
    paper's memory budget Õ(n^1.5).

    Expected shape: coreset = 2 rounds (1 when pre-randomized), ratio ≤ ~3;
    filtering ≥ 3 rounds with ratio ≤ 2.
    """
    memory = int(n**1.5)
    table = spec.new_table(
        description=f"n={n}, m≈{int(n * avg_degree / 2)}, memory n^1.5≈"
                    f"{memory} edges",
    )
    m = run_trials(
        E8Trial(n=n, avg_degree=avg_degree, memory_cap_edges=memory),
        n_trials, seed, executor=executor,
    )
    for label, prefix in (("coreset-2round", "c"),
                          ("coreset-prerandomized", "c1"),
                          ("filtering[46]", "f")):
        table.add_row(
            algorithm=label,
            rounds_mean=float(m[f"{prefix}_rounds"].mean()),
            ratio_mean=float(m[f"{prefix}_ratio"].mean()),
            peak_machine_edges=float(m[f"{prefix}_peak"].mean()),
            memory_cap=memory,
        )
    return table


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
def e9_subsampled_matching(spec: ExperimentSpec, *, n, k, alpha_values,
                           n_trials, seed, executor):
    """Sweep α on D_Matching(n, α, k) — the regime of Remark 5.2/Theorem 5,
    where each player's maximum matching is Θ(n/α) — and check ratio ≤ O(α)
    with communication ∝ nk/α².

    Expected shape: bits·α²/(nk) roughly constant across the sweep (the Õ
    hides log factors); ratio stays below ~3α.  On generic workloads where
    per-player matchings are Θ(n) the subsampling only buys a 1/α factor —
    the α² rate is specific to the hard regime, which is why this table
    samples D_Matching rather than a planted Gnp graph.
    """
    table = spec.new_table(
        description=f"D_Matching(n={n}, alpha, k={k}); claim: alpha-approx, "
                    "Õ(nk/alpha²) bits",
    )
    for alpha in alpha_values:
        m = run_trials(E9Trial(n=n, k=k, alpha=alpha), n_trials, seed,
                       executor=executor)
        ratio = float(m["ratio"].mean())
        bits = float(m["bits"].mean())
        table.add_row(
            alpha=alpha,
            ratio_mean=ratio,
            total_bits_mean=bits,
            bits_x_alpha2_over_nk=bits * alpha**2 / (n * k),
            within_3alpha=bool(ratio <= 3 * alpha),
        )
    return table


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
def e10_grouped_vc(spec: ExperimentSpec, *, n, k, alpha_values, n_trials,
                   seed, executor):
    """Sweep α; check feasibility, ratio O(α), and communication ∝ nk/α.

    Expected shape: bits scale like 1/α; ratio grows at most linearly in α.
    """
    table = spec.new_table(
        description=f"n={n}, k={k}; claim: alpha-approx, Õ(nk/alpha) bits",
    )
    for alpha in alpha_values:
        m = run_trials(E10Trial(n=n, k=k, alpha=alpha), n_trials, seed,
                       executor=executor)
        bits = float(m["bits"].mean())
        table.add_row(
            alpha=alpha,
            ratio_mean=float(m["ratio"].mean()),
            feasible=bool(m["feasible"].all()),
            total_bits_mean=bits,
            bits_x_alpha_over_nk=bits * alpha / (n * k),
        )
    return table


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
def e11_induced_matching(spec: ExperimentSpec, *, n_values, n_trials, seed,
                         executor):
    """Induced-matching density vs the 1/e³ constant; degree-1 fraction vs
    1/e (Prop A.2 / Lemma A.3)."""
    from repro.lowerbounds.induced import (
        degree_one_left_fraction_theory,
        induced_matching_density_exact,
        induced_matching_density_theory,
    )

    table = spec.new_table()
    for n in n_values:
        m = run_trials(E11Trial(n=n), n_trials, seed, executor=executor)
        table.add_row(
            n=n,
            induced_density_mean=float(m["density"].mean()),
            exact_theory=induced_matching_density_exact(),
            lemma_a3_bound=induced_matching_density_theory(),
            deg1_fraction_mean=float(m["deg1"].mean()),
            theory_deg1=degree_one_left_fraction_theory(),
        )
    return table


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
def e12_weighted_matching(spec: ExperimentSpec, *, n, k, weight_spread,
                          epsilon_values, n_trials, seed, executor):
    """Weighted coreset protocol vs the centralized greedy 2-approximation
    and (via it) the optimum.

    Expected shape: protocol weight within a small constant (≈ 4–6 total:
    2 from greedy merge × O(1) from the unweighted coreset) of centralized
    greedy, which itself is ≥ OPT/2.
    """
    table = spec.new_table(
        description=f"weights log-uniform in [1, {weight_spread:g}]",
    )
    for epsilon in epsilon_values:
        m = run_trials(
            E12Trial(n=n, k=k, weight_spread=weight_spread, epsilon=epsilon),
            n_trials, seed, executor=executor,
        )
        table.add_row(
            epsilon=epsilon,
            protocol_weight=float(m["proto"].mean()),
            central_greedy_weight=float(m["central"].mean()),
            weight_ratio=float((m["central"] / m["proto"]).mean()),
            classes_bits_mean=float(m["bits"].mean()),
        )
    return table


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
def e13_communication_scaling(spec: ExperimentSpec, *, n, k_values,
                              n_trials, seed, executor):
    """Total bits of both coreset protocols as k grows at fixed n.

    Expected shape: total bits ≈ linear in k (Õ(nk)), per-player bits Õ(n),
    and far below the send-everything baseline.
    """
    table = spec.new_table(
        description=f"n={n}; totals in bits; naive = send everything",
    )
    for k in k_values:
        m = run_trials(E13Trial(n=n, k=k), n_trials, seed,
                       executor=executor)
        table.add_row(
            k=k,
            matching_total_bits=float(m["m_bits"].mean()),
            vc_total_bits=float(m["v_bits"].mean()),
            naive_total_bits=float(m["n_bits"].mean()),
            matching_bits_per_nk=float(m["m_bits"].mean()) / (n * k),
            max_player_bits=float(m["m_max"].mean()),
        )
    return table


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
def e14_greedymatch_dynamics(spec: ExperimentSpec, *, n, k, n_trials, seed,
                             executor):
    """Instrumented GreedyMatch: per-step prefix concentration (Claim 3.3)
    and per-step gains (Lemma 3.2).

    Expected shape: |M*_{<i}| ≈ (i-1)/k · MM(G); early-step gains
    ≈ Ω(MM/k) while |M| ≤ MM/9.
    """
    table = spec.new_table(
        description=f"n={n}, k={k}; prefix_dev = "
                    "max_i |prefix_i - (i/k)·MM| / MM",
    )
    m = run_trials(E14Trial(n=n, k=k), n_trials, seed, executor=executor)
    table.add_row(
        k=k,
        final_ratio=float(m["ratio"].mean()),
        prefix_deviation_max=float(m["dev"].max()),
        first_third_gain_over_mm_per_k=float(m["gain"].mean()),
        final_over_mm=float(m["final_frac"].mean()),
    )
    return table


# --------------------------------------------------------------------- #
# E15 — ablation: summarizer × combiner grid
# --------------------------------------------------------------------- #
@experiment(
    "e15",
    title="E15: summarizer/combiner ablation",
    description="one workload, all summarizer/combiner variants side by side",
    columns=["variant", "ratio_mean", "total_bits_mean"],
    grid=dict(n=4000, k=8, variants=E15_VARIANTS, n_trials=3),
    seed=1515,
)
def e15_ablation(spec: ExperimentSpec, *, n, k, variants, n_trials, seed,
                 executor):
    """One workload, all summarizer/combiner variants side by side.

    Expected shape: maximum+exact ≈ maximum+greedy ≫ maximal (random order)
    on trap-free inputs maximal is fine; subsampled degrades gracefully;
    send-everything is exact but orders of magnitude more bits.
    """
    table = spec.new_table(
        description=f"bipartite planted workload, n={n}, k={k}",
    )
    for variant in variants:
        m = run_trials(E15Trial(n=n, k=k, variant=variant), n_trials, seed,
                       executor=executor)
        table.add_row(
            variant=variant,
            ratio_mean=float(m["ratio"].mean()),
            total_bits_mean=float(m["bits"].mean()),
        )
    return table


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
def e16_streaming_orders(spec: ExperimentSpec, *, n, noise_degree, n_trials,
                         seed, executor):
    """The streaming shadow of random partitioning: one-pass greedy under
    random vs adversarial arrival, plus the two-phase random-arrival
    matcher.

    Expected shape: greedy ≥ 0.5·OPT always (maximality); random order
    beats adversarial order; two-phase beats greedy on random order.
    """
    table = spec.new_table(
        description=f"n={n}; one-pass semi-streaming, ratios vs MM(G)",
    )
    m = run_trials(E16Trial(n=n, noise_degree=noise_degree), n_trials,
                   seed, executor=executor)
    for name in ("random", "adversarial"):
        table.add_row(
            order=name,
            greedy_ratio=float(m[f"{name}_greedy"].mean()),
            two_phase_ratio=float(m[f"{name}_two"].mean()),
            memory_words_over_n=float(m[f"{name}_mem"].mean()),
        )
    return table


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
def e17_exact_kernel(spec: ExperimentSpec, *, opt_values, n, k, n_trials,
                     seed, executor):
    """Exact matching via composable kernels when MM(G) ≤ K (footnote 3).

    Expected shape: output exactly MM(G) under *both* random and
    adversarial partitioning; kernel size grows ~O(K²), not with n.
    """
    table = spec.new_table(
        description=f"n={n}, k={k}; kernel = maximal matching core + "
                    "3K+2 extra edges per matched vertex",
    )
    for opt_bound in opt_values:
        m = run_trials(E17Trial(n=n, k=k, opt_bound=opt_bound), n_trials,
                       seed, executor=executor)
        table.add_row(
            opt_bound=opt_bound,
            mm=float(m["mm"].mean()),
            exact_random=bool(m["rand_exact"].all()),
            exact_adversarial=bool(m["adv_exact"].all()),
            graph_edges=float(m["graph_edges"].mean()),
            kernel_edges_total=float(m["kernel_edges"].mean()),
        )
    return table


# --------------------------------------------------------------------- #
# E18 — robustness: both coresets across graph families
# --------------------------------------------------------------------- #
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
def e18_family_robustness(spec: ExperimentSpec, *, n, k, families, n_trials,
                          seed, executor):
    """Theorem 1/2 coresets across structurally different workloads:
    Gnp, planted matching, power-law, community-clustered, star-heavy.

    The theorems are worst-case over graphs (only the partitioning is
    random), so the ratios should stay inside the bounds on *every*
    family.  Expected shape: matching ratio ≤ ~3 and VC ratio ≤ O(log n)
    across the board, with heavy-tailed families the hardest.
    """
    table = spec.new_table(
        description=f"n≈{n}, k={k}; Theorem 1 + Theorem 2 on "
                    f"{len(families)} families",
    )
    for family in families:
        m = run_trials(E18Trial(n=n, k=k, family=family), n_trials, seed,
                       executor=executor)
        table.add_row(
            family=family,
            matching_ratio_mean=float(m["m_ratio"].mean()),
            matching_ratio_max=float(m["m_ratio"].max()),
            vc_ratio_mean=float(m["v_ratio"].mean()),
            vc_feasible=bool(m["v_feasible"].all()),
        )
    return table


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
def e19_vertex_partition_model(spec: ExperimentSpec, *, n, k_values,
                               n_trials, seed, executor):
    """Run the Theorem 1 coreset in both simultaneous models.

    In the paper's edge-partition model each edge lives on one machine; in
    the [10] vertex-partition model each machine sees all edges incident on
    its vertices (cross edges are duplicated, duplication factor → 2−1/k).
    Expected shape: quality comparable on benign inputs (the [10] hardness
    needs Ruzsa–Szemerédi instances), but the vertex model pays the
    duplication factor in communication — and each machine's piece is a
    constant fraction of the graph, so the per-player Õ(n) budget is simply
    bypassed rather than met.
    """
    table = spec.new_table(
        description=f"n={n}; same Theorem 1 summarizer in both models",
    )
    for k in k_values:
        m = run_trials(E19Trial(n=n, k=k), n_trials, seed,
                       executor=executor)
        table.add_row(
            k=k,
            edge_model_ratio=float(m["e_ratio"].mean()),
            vertex_model_ratio=float(m["v_ratio"].mean()),
            edge_model_bits=float(m["e_bits"].mean()),
            vertex_model_bits=float(m["v_bits"].mean()),
            duplication_factor=float(m["dup"].mean()),
        )
    return table


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
def e20_concentration(spec: ExperimentSpec, *, n_values, k, n_trials,
                      ratio_threshold, seed, executor):
    """Theorem 1 and Claim 3.3 are "with high probability" statements:
    the failure probability must *vanish as n grows* (the proofs lose
    O(1/n) per Chernoff application).  This experiment estimates tail
    probabilities across many independent partitionings.

    Expected shape: P[ratio > threshold] and the spread of the per-step
    prefix deviation both shrink monotonically-ish in n.
    """
    table = spec.new_table(
        description=f"k={k}, {n_trials} independent partitionings per n; "
                    f"tail = P[ratio > {ratio_threshold:g}]",
    )
    for n in n_values:
        m = run_trials(E20Trial(n=n, k=k), n_trials, seed,
                       executor=executor)
        ratios = m["ratio"]
        table.add_row(
            n=n,
            ratio_mean=float(ratios.mean()),
            ratio_std=float(ratios.std(ddof=1)),
            ratio_max=float(ratios.max()),
            tail_probability=float((ratios > ratio_threshold).mean()),
            prefix_dev_max=float(m["dev"].max()),
        )
    return table


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
)
def e21_parallel_scaling(spec: ExperimentSpec, *, n, avg_degree, n_trials,
                         executors, workers, seed, executor):
    """Wall-clock of the E8 MapReduce matching workload per executor backend.

    Expected shape: every backend bit-identical to serial; process speedup
    grows toward min(k, cores) as pieces get heavier.  Wall-clock columns
    are measurements of *this* machine, not of the model — only the
    identical_to_serial column is a correctness claim.

    This table sweeps the *machine-level* backends itself, so the trial
    harness always runs serially here (``executor`` is ignored): fanning
    timing trials out across processes would contend for the same cores
    the measured backends use and skew every wall-clock column.
    """
    del executor
    from repro.dist.executor import resolve_executor

    table = spec.new_table(
        description=f"n={n}, m≈{int(n * avg_degree / 2)}, {n_trials} trials; "
                    f"speedup and identity are vs a serial run of the same "
                    f"seeds",
    )
    # Each non-serial trial measures its own serial reference (that is
    # what makes identical_to_serial a genuine within-trial comparison),
    # so a requested "serial" row reuses those reference measurements
    # rather than running the workload a second time.
    measured = {
        name: run_trials(
            E21Trial(n=n, avg_degree=avg_degree, executor=name,
                     workers=workers),
            n_trials, seed, executor="serial",
        )
        for name in executors
        if resolve_executor(name, workers=workers).name != "serial"
    }
    reference = next(iter(measured.values()), None)
    for name in executors:
        backend = resolve_executor(name, workers=workers)
        if backend.name == "serial":
            if reference is None:
                reference = run_trials(
                    E21Trial(n=n, avg_degree=avg_degree, executor="serial",
                             workers=workers),
                    n_trials, seed, executor="serial",
                )
            walls = reference["serial_wall_s"]
            serial_walls = reference["serial_wall_s"]
            sizes = reference["serial_size"]
            identical = True
        else:
            m = measured[name]
            walls, serial_walls = m["wall_s"], m["serial_wall_s"]
            sizes = m["size"]
            identical = bool(m["identical"].all())
        mean_wall = float(walls.mean())
        table.add_row(
            executor=backend.name,
            workers=getattr(backend, "max_workers", 1),
            wall_s_mean=mean_wall,
            wall_s_min=float(walls.min()),
            speedup=float(serial_walls.mean()) / max(mean_wall, 1e-12),
            matching_size_mean=float(sizes.mean()),
            identical_to_serial=identical,
        )
    return table


# --------------------------------------------------------------------- #
# E22 — workloads: random vs adversarial partitions on real distributions
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
def e22_workload_partitions(spec: ExperimentSpec, *, workloads, summarizers,
                            k, n_trials, seed, executor):
    """Coreset quality on registry workloads (dataset-backed families run
    offline from their bundled fixtures) when the k-partition is random
    versus degree-sorted or community-sharded.

    Expected shape: with the **maximum** summarizer (Theorem 1) every
    strategy stays near-optimal — the theorem's guarantee needs the random
    partition, but real hub structure also survives union composition.
    With the **greedy** summarizer the degree-sorted adversary concentrates
    each hub's edges on one machine; greedy keeps one edge per hub with no
    alternatives elsewhere in the union, so ``r_degree_sorted`` rises above
    ``r_random`` (positive ``adversarial_gap``) — the §1.2 failure mode on
    natural graphs rather than gadgets.
    """
    table = spec.new_table(
        description=f"k={k}, {n_trials} trials; ratio = opt/composed "
                    f"(1.0 = optimal), gap = max adversarial − random",
    )
    for workload in workloads:
        for summarizer in summarizers:
            m = run_trials(
                E22Trial(workload=workload, k=k, summarizer=summarizer),
                n_trials, seed, executor=executor,
            )
            r_random = float(m["ratio_random"].mean())
            r_degree = float(m["ratio_degree_sorted"].mean())
            r_community = float(m["ratio_community"].mean())
            table.add_row(
                workload=workload,
                summarizer=summarizer,
                opt_mean=float(m["opt"].mean()),
                r_random=r_random,
                r_degree_sorted=r_degree,
                r_community=r_community,
                adversarial_gap=max(r_degree, r_community) - r_random,
            )
    return table


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
def e23_bmatching_coreset(spec: ExperimentSpec, *, k_values, u, v, p,
                          n_trials, seed, executor):
    """The composable-coreset recipe applied beyond the paper's setting:
    per-machine greedy b-matching summaries composed by an exact
    b-matching on the union, on the capacitated preferential-attachment
    workload.

    Expected shape: ratios modestly above 1 for the random partition and
    degrading under the adversarial strategies; ``feasible`` must hold
    everywhere — capacity violations would mean the composition step
    broke the budget constraints, not just the approximation.
    """
    table = spec.new_table(
        description=f"ba_adwords u={u} v={v} p={p}, {n_trials} trials; "
                    f"opt = exact max-cardinality b-matching",
    )
    for k in k_values:
        m = run_trials(E23Trial(k=k, u=u, v=v, p=p), n_trials, seed,
                       executor=executor)
        feasible = all(
            m[f"feasible_{s}"].all()
            for s in ("random", "degree_sorted", "community")
        )
        table.add_row(
            k=k,
            opt_mean=float(m["opt"].mean()),
            r_random=float(m["ratio_random"].mean()),
            r_degree_sorted=float(m["ratio_degree_sorted"].mean()),
            r_community=float(m["ratio_community"].mean()),
            feasible=bool(feasible),
        )
    return table
