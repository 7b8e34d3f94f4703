"""Tests for the declarative experiment registry (ISSUE 3 tentpole).

The contract under test: every experiment id resolves through the
registry; every trial is a picklable module-level dataclass; and
process-level trial fan-out is bit-identical to a serial run for the same
seed, with the trials genuinely executing in worker processes.
"""

import os
import pickle
import time
from dataclasses import dataclass

import pytest

from repro.dist.executor import ProcessExecutor
from repro.experiments import trials as trials_mod
from repro.experiments.harness import run_trials
from repro.experiments.registry import (
    DuplicateExperimentError,
    ExperimentSpec,
    Trial,
    UnknownExperimentError,
    UnknownParameterError,
    all_experiments,
    experiment,
    experiment_ids,
    get_experiment,
)

EXPECTED_IDS = [f"e{i}" for i in range(1, 24)]

# One representative (tiny) instance of every trial class, for the pickle
# round-trip contract.  Kept explicit so a new field or class shows up here
# as a conscious edit, not a silent gap.
ALL_TRIALS = [
    trials_mod.E1Trial(n=200, k=4),
    trials_mod.E2Trial(k=4, width=8),
    trials_mod.E3Trial(n=200, k=4),
    trials_mod.E4Trial(k=4, n_stars=8),
    trials_mod.E5Trial(n=200, alpha=4.0, k=4, budget=16),
    trials_mod.E6Trial(n=200, alpha=4.0, k=4, budget=16),
    trials_mod.E7Trial(k=4, n_hidden=32),
    trials_mod.E8Trial(n=200, avg_degree=8.0, memory_cap_edges=2000),
    trials_mod.E9Trial(n=200, k=4, alpha=2.0),
    trials_mod.E10Trial(n=200, k=4, alpha=16.0),
    trials_mod.E11Trial(n=200),
    trials_mod.E12Trial(n=200, k=4, weight_spread=10.0, epsilon=0.5),
    trials_mod.E13Trial(n=200, k=4),
    trials_mod.E14Trial(n=200, k=4),
    trials_mod.E15Trial(n=200, k=4, variant="maximum+exact"),
    trials_mod.E16Trial(n=200, noise_degree=3.0),
    trials_mod.E17Trial(n=200, k=4, opt_bound=8),
    trials_mod.E18Trial(n=200, k=4, family="gnp"),
    trials_mod.E19Trial(n=200, k=4),
    trials_mod.E20Trial(n=200, k=4),
    trials_mod.E21Trial(n=200, avg_degree=8.0, executor="serial"),
    trials_mod.E22Trial(workload="ba", k=4, summarizer="greedy"),
    trials_mod.E23Trial(k=4, u=60, v=240),
]


class TestRegistryResolution:
    def test_all_ids_registered_in_paper_order(self):
        assert experiment_ids() == EXPECTED_IDS

    def test_ids_unique_and_resolvable(self):
        specs = all_experiments()
        assert len({s.id for s in specs}) == len(specs)
        for exp_id in experiment_ids():
            spec = get_experiment(exp_id)
            assert isinstance(spec, ExperimentSpec)
            assert spec.id == exp_id
            assert spec.title.upper().startswith(exp_id.upper() + ":")
            assert spec.columns and spec.grid and "n_trials" in spec.grid

    def test_lookup_is_case_insensitive(self):
        assert get_experiment("E1") is get_experiment("e1")

    def test_unknown_id_raises(self):
        with pytest.raises(UnknownExperimentError, match="e99"):
            get_experiment("e99")

    def test_duplicate_id_rejected(self):
        with pytest.raises(DuplicateExperimentError, match="'e1'"):
            @experiment("e1", title="dup", description="d", columns=["a"],
                        grid={"n_trials": 1}, seed=0)
            def _dup(spec, *, n_trials, seed, executor):  # pragma: no cover
                raise AssertionError

    def test_unknown_parameter_rejected(self):
        with pytest.raises(UnknownParameterError, match="nope"):
            get_experiment("e1").run(nope=3)

    def test_override_coercion_follows_default_types(self):
        spec = get_experiment("e1")
        assert spec.coerce("n_values", "600,1200") == (600, 1200)
        assert spec.coerce("n_trials", "5") == 5
        assert spec.coerce("general_graphs", "true") is True
        e5 = get_experiment("e5")
        assert e5.coerce("budget_factors", "0.5,2") == (0.5, 2.0)
        e15 = get_experiment("e15")
        assert e15.coerce("variants", "send-everything") == ("send-everything",)
        with pytest.raises(UnknownParameterError):
            spec.coerce("bogus", "1")

    def test_decorator_returns_the_builder(self):
        from repro.experiments import tables

        spec = get_experiment("e11")
        assert spec.build is tables.e11_induced_matching
        assert not hasattr(tables.e11_induced_matching, "spec")
        assert tables.__all__ == []
        t = spec.run(n_values=(400,), n_trials=1, seed=3)
        assert t.rows and t.name.startswith("E11")


class TestTrialPickling:
    def test_every_trial_round_trips_through_pickle(self):
        for trial in ALL_TRIALS:
            clone = pickle.loads(pickle.dumps(trial))
            assert clone == trial, type(trial).__name__

    def test_trial_params_are_plain_data(self):
        for trial in ALL_TRIALS:
            params = trial.params()
            assert isinstance(params, dict) and params


# --------------------------------------------------------------------- #
# process-level fan-out: bit-identical and genuinely parallel
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class PidTrial(Trial):
    """Report the worker's PID (with a pause so several workers drain)."""

    sleep_s: float = 0.2

    def __call__(self, seed):
        time.sleep(self.sleep_s)
        return {"pid": float(os.getpid())}


class TestProcessFanOut:
    def test_e1_processes_bit_identical_to_serial(self):
        spec = get_experiment("e1")
        serial = spec.run(n_values=(400,), k_values=(4,), n_trials=3,
                          executor="serial")
        procs = spec.run(n_values=(400,), k_values=(4,), n_trials=3,
                         executor="processes")
        assert serial.rows == procs.rows

    def test_e8_processes_bit_identical_to_serial(self):
        spec = get_experiment("e8")
        serial = spec.run(n=400, n_trials=2, executor="serial")
        procs = spec.run(n=400, n_trials=2, executor="processes")
        assert serial.rows == procs.rows

    def test_trials_run_in_multiple_worker_processes(self):
        m = run_trials(PidTrial(), 8, seed=0,
                       executor=ProcessExecutor(max_workers=4))
        pids = set(m["pid"].astype(int).tolist())
        assert os.getpid() not in pids  # never the parent process
        assert len(pids) > 1  # distinct worker PIDs

    def test_closure_trials_still_fine_on_serial(self):
        m = run_trials(lambda s: {"x": 1.0}, 2, seed=0, executor="serial")
        assert m["x"].tolist() == [1.0, 1.0]
