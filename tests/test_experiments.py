"""Tests for the experiment harness and tiny-scale smoke runs of every
experiment table (the full-scale runs live in benchmarks/).

Trial helpers are module-level (never closures) so this file keeps passing
when the whole suite runs under ``REPRO_EXECUTOR=processes`` — the harness
now resolves its default backend from the environment, and the processes
backend pickles every trial into a worker.
"""

import json

import numpy as np
import pytest

from repro.experiments.harness import ExperimentTable, run_trials
from repro.experiments.registry import get_experiment


def _constant_trial(s):
    return {"x": 1.0, "y": 2.0}


def _uniform_trial(s):
    return {"v": float(np.random.default_rng(s).random())}


def _inconsistent_trial(s):
    # Child seeds carry their trial index in the spawn key, so the metric
    # set differs between trials on any backend (no shared state needed).
    return {"a": 1.0} if s.spawn_key[-1] == 0 else {"b": 1.0}


class TestHarness:
    def test_table_add_and_format(self):
        t = ExperimentTable("T", "desc", ["a", "b"])
        t.add_row(a=1, b=2.5)
        text = t.format()
        assert "T" in text and "2.5" in text
        assert t.column("a") == [1]

    def test_missing_column_rejected(self):
        t = ExperimentTable("T", "d", ["a", "b"])
        with pytest.raises(ValueError, match="missing"):
            t.add_row(a=1)

    def test_table_to_dict_and_json(self):
        t = ExperimentTable("T", "desc", ["a", "b"])
        t.add_row(a=np.int64(1), b=np.float64(2.5))
        doc = json.loads(t.to_json())
        assert doc["name"] == "T" and doc["columns"] == ["a", "b"]
        assert doc["rows"] == [{"a": 1, "b": 2.5}]

    def test_run_trials_stacks(self):
        out = run_trials(_constant_trial, 3, seed=0)
        np.testing.assert_array_equal(out["x"], [1, 1, 1])

    def test_run_trials_independent_seeds(self):
        out = run_trials(_uniform_trial, 4, 0)
        assert len(set(out["v"].tolist())) == 4

    def test_run_trials_reproducible(self):
        a = run_trials(_uniform_trial, 3, seed=5)
        b = run_trials(_uniform_trial, 3, seed=5)
        np.testing.assert_array_equal(a["v"], b["v"])

    def test_inconsistent_metrics_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            run_trials(_inconsistent_trial, 2, 0)

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            run_trials(_constant_trial, 0, 0)


class TestExperimentShapes:
    """Tiny-scale runs asserting each experiment's *qualitative* claim.

    These are the paper's headline shapes, so they double as regression
    tests for the whole pipeline.
    """

    def test_e1_ratio_bounded(self):
        t = get_experiment("e1").run(n_values=(600,), k_values=(4,),
                                     n_trials=2)
        assert all(r <= 9 for r in t.column("ratio_max"))

    def test_e2_separation(self):
        t = get_experiment("e2").run(k_values=(4, 16), width=24,
                                     n_trials=2)
        bad = t.column("maximal_ratio")
        good = t.column("maximum_ratio")
        assert bad[1] > bad[0] * 2  # grows with k
        assert max(good) < 2  # Theorem 1 coreset flat

    def test_e3_log_bound(self):
        import math

        t = get_experiment("e3").run(n_values=(1000,), k_values=(4,),
                                     n_trials=2)
        assert all(t.column("feasible"))
        assert all(
            r <= 4 * math.log2(1000) for r in t.column("ratio_max")
        )

    def test_e4_separation(self):
        t = get_experiment("e4").run(k_values=(4, 16), n_stars=24,
                                     n_trials=2)
        bad = t.column("minvc_ratio")
        assert bad[1] > bad[0] * 1.5
        assert max(t.column("peeling_ratio")) < 4

    def test_e5_threshold(self):
        t = get_experiment("e5").run(
            n=1500, alpha=5, k=5, budget_factors=(0.1, 20.0), n_trials=2
        )
        ratios = t.column("ratio_mean")
        assert ratios[0] > 5  # starved budget fails alpha
        assert ratios[1] < 5  # generous budget beats alpha

    def test_e6_threshold(self):
        t = get_experiment("e6").run(
            n=1500, alpha=5, k=5, budget_factors=(0.02, 4.0), n_trials=3
        )
        feas = t.column("p_feasible")
        assert feas[0] < 0.5
        assert feas[1] == 1.0

    def test_e7_contrast(self):
        t = get_experiment("e7").run(k_values=(6,), n_hidden_per_k=8,
                                     n_trials=2)
        row = t.rows[0]
        assert row["adversarial_ratio"] > 2 * row["random_ratio"]

    def test_e8_round_counts(self):
        t = get_experiment("e8").run(n=600, n_trials=2)
        by_name = {r["algorithm"]: r for r in t.rows}
        assert by_name["coreset-2round"]["rounds_mean"] == 2
        assert by_name["coreset-prerandomized"]["rounds_mean"] == 1
        assert by_name["filtering[46]"]["rounds_mean"] >= 2
        assert by_name["filtering[46]"]["ratio_mean"] <= 2.1

    def test_e9_bits_scale(self):
        t = get_experiment("e9").run(
            n=1600, k=4, alpha_values=(2.0, 8.0), n_trials=2
        )
        bits = t.column("total_bits_mean")
        assert bits[1] < bits[0] / 3  # superlinear decay in alpha

    def test_e10_feasible(self):
        t = get_experiment("e10").run(n=1200, k=4, alpha_values=(16.0,),
                                      n_trials=2)
        assert all(t.column("feasible"))

    def test_e11_constants(self):
        t = get_experiment("e11").run(n_values=(4000,), n_trials=2)
        row = t.rows[0]
        assert abs(row["induced_density_mean"] - row["exact_theory"]) < 0.03
        assert row["induced_density_mean"] > row["lemma_a3_bound"]

    def test_e12_weight_ratio(self):
        t = get_experiment("e12").run(n=600, k=4, n_trials=2)
        assert all(r < 3 for r in t.column("weight_ratio"))

    def test_e13_below_naive(self):
        t = get_experiment("e13").run(n=800, k_values=(4,), n_trials=2)
        row = t.rows[0]
        assert row["matching_total_bits"] < row["naive_total_bits"]
        assert row["vc_total_bits"] <= row["naive_total_bits"]

    def test_e14_dynamics(self):
        t = get_experiment("e14").run(n=1000, k=6, n_trials=2)
        row = t.rows[0]
        assert row["prefix_deviation_max"] < 0.15
        assert row["final_ratio"] < 9

    def test_e15_all_variants_run(self):
        t = get_experiment("e15").run(n=600, k=4, n_trials=2)
        assert len(t.rows) == 5
        by_name = {r["variant"]: r for r in t.rows}
        assert by_name["send-everything"]["ratio_mean"] == 1.0
