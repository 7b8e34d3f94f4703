"""Experiment harness: trial running, aggregation, and the declarative
E1–E23 registry that regenerates every quantitative claim of the paper.

The public surface is the registry (``get_experiment("e1").run(...)``);
importing ``tables`` registers every spec, and ``trials`` holds the
picklable per-trial dataclasses.  See ``docs/EXPERIMENTS_API.md``.
"""

from repro.experiments.harness import ExperimentTable, run_trials
from repro.experiments.registry import (
    ExperimentSpec,
    Trial,
    all_experiments,
    experiment,
    experiment_ids,
    get_experiment,
)
from repro.experiments import tables

__all__ = [
    "ExperimentSpec",
    "ExperimentTable",
    "Trial",
    "all_experiments",
    "experiment",
    "experiment_ids",
    "get_experiment",
    "run_trials",
    "tables",
]
