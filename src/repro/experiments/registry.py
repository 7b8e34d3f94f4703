"""The declarative experiment API: specs, trials, and the registry.

Every reproduced claim (E1–E23) is described by an :class:`ExperimentSpec`
— id, title, one-line description, table columns, default parameter grid,
and seed — registered once via the :func:`experiment` decorator in
:mod:`repro.experiments.tables`.  The imperative half of an experiment is a
:class:`Trial`: a frozen, *picklable*, module-level dataclass whose fields
are the parameters of one grid cell and whose ``__call__(seed)`` returns
one dict of scalar metrics.  Because trials are data, not closures, the
trial harness (:func:`repro.experiments.harness.run_trials`) can fan them
out across worker *processes*, and the CLI can override any grid parameter
from the command line (``repro experiment e1 --set n_values=2000,4000``).

Consumers resolve experiments through this module; the builders in
``tables`` are never called directly::

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
from typing import Any, Callable, Dict, Mapping, Tuple

from repro.experiments.harness import ExperimentTable
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
    returns a flat ``dict[str, float]`` of metrics.  That shape is the
    whole contract — it is what makes a trial picklable, and therefore
    shippable to a worker process by the ``processes`` executor backend.
    """

    def __call__(self, seed: RandomState) -> Dict[str, float]:
        raise NotImplementedError

    def params(self) -> Dict[str, Any]:
        """The trial's parameters as a plain dict (dataclass fields)."""
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment: metadata, defaults, and the builder.

    ``grid`` maps parameter names to their default values; any key can be
    overridden per run.  ``build`` is the module-level builder function
    that instantiates :class:`Trial` objects over the grid, runs them, and
    aggregates the metrics into table rows.
    """

    id: str
    title: str
    description: str
    columns: Tuple[str, ...]
    grid: Mapping[str, Any]
    seed: int
    build: Callable[..., ExperimentTable]

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

    def new_table(self, description: str | None = None) -> ExperimentTable:
        """An empty :class:`ExperimentTable` carrying this spec's identity."""
        return ExperimentTable(
            name=self.title,
            description=self.description if description is None else description,
            columns=list(self.columns),
        )

    def run(
        self,
        *,
        seed: RandomState = None,
        executor: Any = None,
        archive_dir: Any = None,
        **overrides: Any,
    ) -> ExperimentTable:
        """Build the experiment table: defaults + ``overrides``.

        ``seed`` defaults to the spec's registered seed; ``executor``
        follows the :data:`repro.dist.executor.ExecutorSpec` convention
        (``None`` resolves from ``$REPRO_EXECUTOR``) and selects the
        backend that fans the *trials* out.

        ``archive_dir`` (a directory path, or ``True`` for the default
        ``benchmarks/results/``) persists the run as a schema-versioned
        JSON artifact — id, resolved params, seed, and rows — via
        :mod:`repro.experiments.artifacts`, so ``repro report --diff``
        can compare runs across commits.  The created path is attached to
        the returned table as ``table.artifact_path``.
        """
        from repro.dist.executor import Executor, resolve_executor
        from repro.experiments.harness import collect_trial_metrics

        params = self.resolve_params(overrides)
        effective_seed = self.seed if seed is None else seed
        # Resolve the executor once for the whole table: multi-cell grids
        # then amortize a single worker pool across every run_trials call
        # (docs/PARALLELISM.md §6) instead of paying pool start-up per
        # cell.  Ownership follows the substrate rule — a spec resolved
        # here (by name or from $REPRO_EXECUTOR) is closed here; a
        # caller-passed Executor instance stays open.
        backend = resolve_executor(executor)
        try:
            with collect_trial_metrics() as trial_log:
                table = self.build(
                    self,
                    seed=effective_seed,
                    executor=backend,
                    **params,
                )
        finally:
            if not isinstance(executor, Executor):
                backend.close()
        # The raw per-trial numbers behind the aggregated rows: one entry
        # per run_trials call, in build order.  Run artifacts serialize
        # them so variance plots don't require re-running the sweep.
        table.trial_metrics = trial_log
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
) -> Callable[[Callable[..., ExperimentTable]], Callable[..., ExperimentTable]]:
    """Register a builder function as experiment ``exp_id``.

    The decorated builder receives ``(spec, *, seed, executor, **params)``
    and returns an :class:`ExperimentTable`.  The decorator registers the
    spec and returns the builder unchanged; ``get_experiment(exp_id).run``
    is the one way to run it.
    """
    key = exp_id.strip().lower()

    def decorate(build: Callable[..., ExperimentTable]):
        if key in _REGISTRY:
            raise DuplicateExperimentError(
                f"experiment id {key!r} is already registered "
                f"(by {_REGISTRY[key].build.__name__})"
            )
        spec = ExperimentSpec(
            id=key,
            title=title,
            description=description,
            columns=tuple(columns),
            grid=dict(grid),
            seed=seed,
            build=build,
        )
        _REGISTRY[key] = spec
        return build

    return decorate


def _ensure_registered() -> None:
    # Specs live in tables.py and register on import; make lookups work
    # even when the caller imported only this module.
    import repro.experiments.tables  # noqa: F401


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
