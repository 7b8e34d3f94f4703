"""Trial running and table formatting for the experiment suite.

Every registered experiment (:mod:`repro.experiments.trials`) produces an
:class:`ExperimentTable` — a named list of dict rows with aligned text
rendering and a JSON form — so benchmark output looks like the rows a paper
would print, EXPERIMENTS.md can be regenerated mechanically, and
``repro experiment e1 --json -`` emits machine-readable results.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict

import numpy as np

from repro.dist.executor import (
    Executor,
    ExecutorSpec,
    resolve_executor,
    serial_inner_engines,
)
from repro.utils.jsonable import jsonable
from repro.utils.rng import RandomState, spawn_seeds

__all__ = ["ExperimentTable", "run_trials"]


@dataclass
class ExperimentTable:
    """A named table of result rows.

    ``trial_metrics`` optionally carries the *per-trial* metric lists the
    aggregated rows were computed from — one entry per grid cell, in row
    order (a cell fills one row, except E8's and E16's, which fill
    several).  :meth:`repro.experiments.registry.ExperimentSpec.run` fills
    it, and run artifacts serialize it so variance across trials stays
    plottable after the run.
    """

    name: str
    description: str
    columns: list[str]
    rows: list[dict[str, Any]] = field(default_factory=list)
    trial_metrics: list[dict[str, list[float]]] = field(default_factory=list)

    def add_row(self, **values: Any) -> None:
        missing = [c for c in self.columns if c not in values]
        if missing:
            raise ValueError(f"row missing columns {missing}")
        self.rows.append({c: values[c] for c in self.columns})

    # ------------------------------------------------------------------ #
    def format(self) -> str:
        """Aligned text rendering (monospace table)."""

        def fmt(v: Any) -> str:
            if isinstance(v, float):
                return f"{v:.4g}"
            return str(v)

        header = list(self.columns)
        body = [[fmt(r[c]) for c in header] for r in self.rows]
        widths = [
            max(len(h), *(len(row[i]) for row in body)) if body else len(h)
            for i, h in enumerate(header)
        ]
        lines = [f"== {self.name} ==", self.description]
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in body:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        return "\n".join(lines)

    def column(self, name: str) -> list[Any]:
        return [r[name] for r in self.rows]

    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready dict: name, description, columns, and plain rows."""
        return {
            "name": self.name,
            "description": self.description,
            "columns": list(self.columns),
            "rows": [
                {c: jsonable(r[c]) for c in self.columns} for r in self.rows
            ],
        }

    def to_json(self, indent: int | None = 2) -> str:
        """The table as a strict JSON document (see :meth:`to_dict`)."""
        return json.dumps(self.to_dict(), indent=indent, allow_nan=False)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.format()


@dataclass(frozen=True)
class _OnWorker:
    """A trial whose inner engines run serially when ``outer`` fans trials
    out of process (:func:`~repro.dist.executor.serial_inner_engines`)."""

    trial: Callable[[Any], Dict[str, float]]
    outer: str

    def __call__(self, seed: Any) -> Dict[str, float]:
        with serial_inner_engines(self.outer):
            return self.trial(seed)


def run_trials(
    fn: Callable[[np.random.SeedSequence], dict[str, float]],
    n_trials: int,
    seed: RandomState = None,
    executor: ExecutorSpec = None,
) -> dict[str, np.ndarray]:
    """Run ``fn`` on ``n_trials`` independent child seeds; stack the per-trial
    scalar dicts into arrays keyed by metric name.

    ``executor`` follows the :data:`~repro.dist.executor.ExecutorSpec`
    convention shared by every engine: ``None`` resolves from
    ``$REPRO_EXECUTOR`` (default ``serial``), a name picks a backend, an
    :class:`~repro.dist.executor.Executor` instance is used as-is.  Worker
    counts are validated by the executor module — there is exactly one
    place (:func:`repro.dist.executor.validate_workers`) that owns that
    rule.

    Results are collected in seed order regardless of completion order, so
    tables are bit-identical across backends for the same seed.

    Trials destined for the ``processes`` or ``remote`` backend must be
    *picklable*: module-level callables or
    :class:`~repro.experiments.registry.Trial` dataclasses (the E1–E23
    trials in :mod:`repro.experiments.trials` all qualify), never closures
    or lambdas.  When trials do fan out across processes, the engines
    *inside* each trial are pinned to the serial backend — trial-level
    fan-out is the coarser, better grain, and nesting a process pool per
    trial would oversubscribe the machine.
    """
    if n_trials < 1:
        raise ValueError(f"need at least one trial, got {n_trials}")
    backend = resolve_executor(executor)
    seeds = spawn_seeds(seed, n_trials)
    try:
        outputs = backend.map(_OnWorker(fn, backend.name), seeds)
    finally:
        # An executor resolved here (by name or from $REPRO_EXECUTOR) is
        # owned by this call and its pool is released at the barrier; a
        # passed-in Executor instance stays open so one pool can amortize
        # across many run_trials calls (docs/PARALLELISM.md §6).
        if not isinstance(executor, Executor):
            backend.close()
    keys = outputs[0].keys()
    for out in outputs[1:]:
        if out.keys() != keys:
            raise ValueError("trials returned inconsistent metric sets")
    return {k: np.asarray([out[k] for out in outputs], dtype=np.float64)
            for k in keys}
