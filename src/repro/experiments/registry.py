"""The declarative experiment API: specs, trials, and the registry.

Every reproduced claim (E1–E23) is one :class:`Trial` subclass in
:mod:`repro.experiments.trials`, registered by the :func:`experiment`
decorator with its id, title, one-line description, table columns,
default parameter grid, and seed.  A trial is a frozen, *picklable*,
module-level dataclass: its fields are the parameters of one grid cell and
``__call__(seed)`` returns one dict of scalar metrics.  Beside that the
class says how its table is laid out — ``cells(**grid)`` lists the
table's trials in row order, ``row(metrics)`` turns one cell's stacked
metrics into its row(s), and ``describe(**params)`` words the table
description where it depends on the parameters.  :meth:`ExperimentSpec.run`
owns the one loop over the cells.  Because trials are data, not closures,
the trial harness (:func:`repro.experiments.harness.run_trials`) can fan
them out across worker *processes*, and the CLI can override any grid
parameter from the command line
(``repro experiment e1 --set n_values=2000,4000``).

Consumers resolve experiments through this module::

    from repro.experiments.registry import get_experiment

    spec = get_experiment("e1")
    table = spec.run(n_values=(2000,), n_trials=5, executor="processes")

The registry preserves registration order (E1 first), which is also the
paper's presentation order; :func:`experiment_ids` and
:func:`all_experiments` iterate in that order.

See ``docs/EXPERIMENTS_API.md`` for the full surface and the recipe for
adding a new experiment.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, Iterable, List, Mapping, Tuple, Type, Union,
)

import numpy as np

from repro.experiments.harness import ExperimentTable, run_trials
from repro.utils.rng import RandomState

__all__ = [
    "DuplicateExperimentError",
    "ExperimentSpec",
    "Trial",
    "UnknownExperimentError",
    "UnknownParameterError",
    "all_experiments",
    "experiment",
    "experiment_ids",
    "get_experiment",
]

#: One cell's metrics stacked over its trials: name -> one value per trial.
Metrics = Mapping[str, np.ndarray]
#: One table row: column name -> value.
Row = Dict[str, Any]


class UnknownExperimentError(LookupError):
    """No experiment is registered under the requested id."""


class UnknownParameterError(ValueError):
    """An override names a parameter the experiment's grid does not have."""


class DuplicateExperimentError(ValueError):
    """Two specs tried to claim the same experiment id."""


class Trial:
    """Base class for one grid cell of an experiment.

    Subclasses are frozen dataclasses defined at module level (in
    :mod:`repro.experiments.trials`): the fields hold every parameter the
    trial body needs, and ``__call__(seed)`` runs one independent trial and
    returns a flat ``dict[str, float]`` of metrics.  That shape is what
    makes a trial picklable, and therefore shippable to a worker process
    by the ``processes`` executor backend.

    A registered trial also lays out its table: :meth:`cells` builds the
    table's trials from the grid, :meth:`row` turns one cell's metrics
    into rows, and :meth:`describe` words the table description.
    """

    def __call__(self, seed: RandomState) -> Dict[str, float]:
        raise NotImplementedError

    def params(self) -> Dict[str, Any]:
        """The trial's parameters as a plain dict (dataclass fields)."""
        return dataclasses.asdict(self)

    @classmethod
    def cells(cls, **grid: Any) -> Iterable["Trial"]:
        """The table's trials, in row order, from the grid minus
        ``n_trials``."""
        raise NotImplementedError

    def row(self, m: Metrics) -> Union[Row, List[Row]]:
        """This cell's table row from its metrics stacked over the trials
        (``m[name]`` holds one value per trial); a list for a cell that
        fills several rows."""
        raise NotImplementedError

    @classmethod
    def describe(cls, **params: Any) -> str | None:
        """The table description for ``params``; ``None`` keeps the
        registered one."""
        return None


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment: metadata, defaults, and its trial class.

    ``grid`` maps parameter names to their default values; any key can be
    overridden per run.  ``trial`` is the registered :class:`Trial`
    subclass.  ``fan_out=False`` marks an experiment that times the
    backends itself, so its trials always run serially.
    """

    id: str
    title: str
    description: str
    columns: Tuple[str, ...]
    grid: Mapping[str, Any]
    seed: int
    trial: Type[Trial]
    fan_out: bool = True

    # ------------------------------------------------------------------ #
    def resolve_params(self, overrides: Mapping[str, Any]) -> Dict[str, Any]:
        """Merge ``overrides`` into the default grid, rejecting unknown keys."""
        unknown = sorted(set(overrides) - set(self.grid))
        if unknown:
            raise UnknownParameterError(
                f"experiment {self.id!r} has no parameter(s) "
                f"{', '.join(unknown)}; settable parameters: "
                f"{', '.join(sorted(self.grid))}"
            )
        return {**self.grid, **overrides}

    def coerce(self, key: str, text: str) -> Any:
        """Parse a command-line override string for grid parameter ``key``.

        The target type comes from the default value: tuples parse as
        comma-separated lists of their element type, scalars as their own
        type, and ``None`` defaults accept ``none`` / int / float / text.
        """
        if key not in self.grid:
            # Same complaint as resolve_params, so the CLI error is uniform.
            self.resolve_params({key: text})
        return _coerce(self.grid[key], text)

    def run(
        self,
        *,
        seed: RandomState = None,
        executor: Any = None,
        archive_dir: Any = None,
        **overrides: Any,
    ) -> ExperimentTable:
        """Build the experiment table: defaults + ``overrides``.

        Every cell of the grid runs its ``n_trials`` through
        :func:`~repro.experiments.harness.run_trials` from the same
        ``seed``, which defaults to the spec's registered seed.
        ``executor`` follows the :data:`repro.dist.executor.ExecutorSpec`
        convention (``None`` resolves from ``$REPRO_EXECUTOR``) and selects
        the backend that fans the *trials* out.  The raw per-trial metrics
        of each cell land in ``table.trial_metrics``, one entry per cell.

        ``archive_dir`` (a directory path, or ``True`` for the default
        ``benchmarks/results/``) persists the run as a schema-versioned
        JSON artifact — id, resolved params, seed, rows, and per-trial
        metrics — via :mod:`repro.experiments.artifacts`, so
        ``repro report --diff`` can compare runs across commits.  The
        created path is attached to the returned table as
        ``table.artifact_path``.
        """
        from repro.dist.executor import resolve_executor

        params = self.resolve_params(overrides)
        effective_seed = self.seed if seed is None else seed
        table = ExperimentTable(
            name=self.title,
            description=self.trial.describe(**params) or self.description,
            columns=list(self.columns),
        )
        grid = {k: v for k, v in params.items() if k != "n_trials"}
        # Resolve the executor once for the whole table, so one worker
        # pool serves every cell (docs/PARALLELISM.md §6).  Ownership
        # follows the substrate rule: a spec resolved here (by name or
        # from $REPRO_EXECUTOR) is closed here; a caller-passed Executor
        # instance stays open.
        backend = resolve_executor(executor if self.fan_out else "serial")
        try:
            for cell in self.trial.cells(**grid):
                m = run_trials(cell, params["n_trials"], effective_seed,
                               executor=backend)
                table.trial_metrics.append(
                    {k: v.tolist() for k, v in m.items()})
                rows = cell.row(m)
                for row in [rows] if isinstance(rows, dict) else rows:
                    table.add_row(**row)
        finally:
            if backend is not executor:
                backend.close()
        if archive_dir:
            from repro.experiments.artifacts import save_run_artifact

            table.artifact_path = save_run_artifact(
                table,
                experiment=self.id,
                params=params,
                seed=effective_seed,
                directory=None if archive_dir is True else archive_dir,
            )
        return table


_REGISTRY: Dict[str, ExperimentSpec] = {}


def experiment(
    exp_id: str,
    *,
    title: str,
    description: str,
    columns: list[str] | tuple[str, ...],
    grid: Mapping[str, Any],
    seed: int,
    fan_out: bool = True,
) -> Callable[[Type[Trial]], Type[Trial]]:
    """Register a :class:`Trial` subclass as experiment ``exp_id``.

    The decorator registers the spec and returns the class unchanged;
    ``get_experiment(exp_id).run`` is the one way to run it.
    """
    key = exp_id.strip().lower()

    def decorate(trial: Type[Trial]) -> Type[Trial]:
        if key in _REGISTRY:
            raise DuplicateExperimentError(
                f"experiment id {key!r} is already registered "
                f"(by {_REGISTRY[key].trial.__name__})"
            )
        _REGISTRY[key] = ExperimentSpec(
            id=key,
            title=title,
            description=description,
            columns=tuple(columns),
            grid=dict(grid),
            seed=seed,
            trial=trial,
            fan_out=fan_out,
        )
        return trial

    return decorate


def _ensure_registered() -> None:
    # Specs live in trials.py and register on import; make lookups work
    # even when the caller imported only this module.
    import repro.experiments.trials  # noqa: F401


def get_experiment(exp_id: str) -> ExperimentSpec:
    """Look up a spec by id (case-insensitive, e.g. ``"e1"`` or ``"E1"``)."""
    _ensure_registered()
    key = exp_id.strip().lower()
    if key not in _REGISTRY:
        raise UnknownExperimentError(
            f"unknown experiment {exp_id!r}; available: "
            f"{', '.join(experiment_ids())}"
        )
    return _REGISTRY[key]


def experiment_ids() -> list[str]:
    """All registered ids, in registration (paper) order."""
    _ensure_registered()
    return list(_REGISTRY)


def all_experiments() -> list[ExperimentSpec]:
    """All registered specs, in registration (paper) order."""
    _ensure_registered()
    return list(_REGISTRY.values())


# --------------------------------------------------------------------- #
# command-line override coercion
# --------------------------------------------------------------------- #
_TRUE = {"true", "1", "yes", "on"}
_FALSE = {"false", "0", "no", "off"}


def _coerce(default: Any, text: str) -> Any:
    if isinstance(default, tuple):
        parts = [p.strip() for p in text.split(",") if p.strip()]
        element = default[0] if default else None
        return tuple(_coerce_scalar(element, p) for p in parts)
    return _coerce_scalar(default, text)


def _coerce_scalar(default: Any, text: str) -> Any:
    text = text.strip()
    if isinstance(default, bool):
        lowered = text.lower()
        if lowered in _TRUE:
            return True
        if lowered in _FALSE:
            return False
        raise ValueError(f"expected a boolean, got {text!r}")
    if isinstance(default, int):
        return int(text)
    if isinstance(default, float):
        return float(text)
    if isinstance(default, str):
        return text
    # No default to learn a type from (e.g. ``workers=None``): guess.
    if text.lower() in {"none", "null"}:
        return None
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text
