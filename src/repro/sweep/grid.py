"""Grid planning for ``repro sweep``: axes → cells → content-hash ids.

A sweep is declared the same way a single run is, with one semantic
twist: in ``repro experiment``, ``--set n_values=2000,4000`` assigns the
whole tuple to one run, while in ``repro sweep`` every comma-separated
value becomes its *own* grid cell — ``--set k_values=4,8`` is an axis
with two points, and two axes cross-product into four cells.  Values are
coerced exactly as the single-run CLI coerces them
(:meth:`~repro.experiments.registry.ExperimentSpec.coerce`), so a
tuple-typed parameter like ``n_values`` receives a one-element tuple per
cell; ``;`` builds multi-element tuple values (``n_values=600;1200`` is
the single axis point ``(600, 1200)``).

A sweep may span several experiments (``repro sweep e1 e8``).  An
unqualified axis applies to every experiment in the sweep — and must be a
grid parameter of each, so a typo cannot silently shrink the grid — while
``e1.n_values=600`` scopes the axis to one experiment.  ``--seeds`` is
one more axis, crossed against everything else.

Each cell is identified by a **content hash** of
``(experiment_id, overrides, seed)`` — twelve hex chars of the SHA-256 of
the canonical-JSON form.  The hash is what makes sweeps resumable: the
cell's artifact file is named by it, so re-planning the same grid finds
the same filenames, and any change to the cell's inputs changes the id
and therefore forces a fresh run instead of serving a stale artifact.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.utils.jsonable import jsonable

__all__ = ["GridCell", "GridError", "cell_id", "parse_set_args", "plan_grid"]


class GridError(ValueError):
    """A sweep grid cannot be built from the given arguments."""


def cell_id(experiment: str, overrides: Dict[str, Any],
            seed: Optional[int]) -> str:
    """The content hash identifying one grid cell.

    Canonical JSON (sorted keys, no whitespace, numpy coerced to plain
    python) of ``(experiment, overrides, seed)``, SHA-256, first 12 hex
    chars.  Stable across processes and CLI argument order; sensitive to
    every input that affects the cell's output.
    """
    # Numpy values reach jsonable through the default hook; plain floats
    # never do, so NaN and the infinities keep distinct tokens here
    # instead of all hashing as null.
    payload = json.dumps(
        {
            "experiment": experiment,
            "overrides": {k: overrides[k] for k in sorted(overrides)},
            "seed": seed,
        },
        sort_keys=True,
        separators=(",", ":"),
        default=jsonable,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True)
class GridCell:
    """One planned cell: experiment id, coerced overrides, root seed.

    ``overrides`` is a tuple of ``(key, value)`` pairs (insertion order of
    the CLI axes) so the cell is hashable and picklable; ``seed=None``
    means the experiment's registered default seed.
    """

    experiment: str
    overrides: Tuple[Tuple[str, Any], ...]
    seed: Optional[int]

    @property
    def cell_id(self) -> str:
        return cell_id(self.experiment, dict(self.overrides), self.seed)

    def overrides_dict(self) -> Dict[str, Any]:
        return dict(self.overrides)

    def describe(self) -> str:
        """One human-readable line: id, seed, and the override assignment."""
        sets = ", ".join(f"{k}={v!r}" for k, v in self.overrides)
        seed = "default" if self.seed is None else self.seed
        return (f"{self.experiment}[{self.cell_id}] seed={seed}"
                + (f" {{{sets}}}" if sets else ""))


def parse_set_args(
    experiments: Sequence[str], set_args: Sequence[str]
) -> Dict[str, Dict[str, List[Any]]]:
    """Parse ``--set`` axes into per-experiment ``{key: [value, ...]}``.

    Keys keep their CLI order (it becomes the cross-product nesting
    order); a repeated key replaces the earlier axis.  Raises
    :class:`GridError` on malformed items, unknown parameters, values
    that fail coercion, or a qualifier naming an experiment outside the
    sweep.
    """
    from repro.experiments.registry import (
        UnknownParameterError,
        get_experiment,
    )

    axes: Dict[str, Dict[str, List[Any]]] = {exp: {} for exp in experiments}
    for item in set_args:
        key, sep, text = item.partition("=")
        key = key.strip()
        if not sep or not key:
            raise GridError(
                f"--set expects [EXP.]KEY=VALUE[,VALUE...], got {item!r}")
        targets: Sequence[str] = experiments
        if "." in key:
            prefix, _, bare = key.partition(".")
            prefix, bare = prefix.strip().lower(), bare.strip()
            if not bare:
                raise GridError(
                    f"--set expects [EXP.]KEY=VALUE[,VALUE...], got {item!r}")
            if prefix not in experiments:
                raise GridError(
                    f"--set {item!r} qualifies experiment {prefix!r}, which "
                    f"is not part of this sweep "
                    f"({', '.join(experiments)})")
            targets, key = (prefix,), bare
        values_text = [v.strip() for v in text.split(",") if v.strip()]
        if not values_text:
            raise GridError(f"--set {item!r} lists no values")
        for exp in targets:
            spec = get_experiment(exp)
            coerced: List[Any] = []
            for value_text in values_text:
                try:
                    # ';' is the in-value tuple separator; the single-run
                    # coercer's separator is ',' — translate.
                    coerced.append(
                        spec.coerce(key, value_text.replace(";", ",")))
                except UnknownParameterError as exc:
                    raise GridError(f"--set {item!r}: {exc}") from exc
                except ValueError as exc:
                    raise GridError(
                        f"--set {item!r}: bad value {value_text!r} for "
                        f"{exp}.{key}: {exc}") from exc
            axes[exp][key] = coerced
    return axes


def plan_grid(
    experiments: Sequence[str],
    set_args: Sequence[str] = (),
    seeds: Optional[Sequence[int]] = None,
) -> List[GridCell]:
    """Cross-product the axes into the ordered list of cells to run.

    Cells are ordered experiment-by-experiment (in the given order), then
    by the cross product of that experiment's axes (first axis outermost),
    then by seed — a deterministic order the manifest and the progress
    output both follow.
    """
    from repro.experiments.registry import (
        UnknownExperimentError,
        get_experiment,
    )

    if not experiments:
        raise GridError("a sweep needs at least one experiment id")
    exps = [e.strip().lower() for e in experiments]
    duplicates = {e for e in exps if exps.count(e) > 1}
    if duplicates:
        raise GridError(
            f"experiment(s) listed twice: {', '.join(sorted(duplicates))}")
    for exp in exps:
        try:
            get_experiment(exp)
        except UnknownExperimentError as exc:
            raise GridError(str(exc)) from exc

    axes = parse_set_args(exps, set_args)
    seed_axis: List[Optional[int]] = (
        list(seeds) if seeds else [None]
    )
    if len(set(seed_axis)) != len(seed_axis):
        raise GridError(f"--seeds lists a duplicate seed: {seed_axis}")

    cells: List[GridCell] = []
    for exp in exps:
        keys = list(axes[exp])
        pools = [axes[exp][k] for k in keys]
        for combo in itertools.product(*pools):
            overrides = tuple(zip(keys, combo))
            for seed in seed_axis:
                cells.append(GridCell(exp, overrides, seed))
    return cells
