"""Structured, schema-versioned experiment-run artifacts.

``benchmarks/results/*.txt`` archives what a table *looked like*; this
module archives what a run *was*: one JSON document per
:meth:`~repro.experiments.registry.ExperimentSpec.run` invocation carrying
the experiment id, the fully-resolved parameter grid, the seed, and the
table rows — enough to diff two runs of the same experiment across
commits (``repro report --diff``) or to re-issue the exact run later.

Schema (``schema_version`` 3)::

    {
      "schema_version": 3,
      "kind": "experiment_run",
      "experiment": "e1",
      "title": "E1: matching coreset approximation (Theorem 1)",
      "seed": 11,
      "params": {"n_values": [2000, 6000], ...},
      "created_at": "2026-07-27T12:00:00+00:00",
      "host": {"python": ..., "platform": ..., "cpu_count": ...},
      "git_commit": "2161572...",          # null outside a checkout
      "git_dirty": false,
      "table": {"name": ..., "description": ..., "columns": [...],
                "rows": [{...}, ...]},
      "per_trial": [{"ratio": [1.02, 1.11, ...], ...}, ...]
    }

``per_trial`` (added in version 2) carries the raw per-trial metric lists
behind each aggregated row — one entry per ``run_trials`` call, in build
order — so variance plots are possible without re-running the sweep.
Version 3 adds the shared provenance stamp
(:func:`repro.utils.provenance.provenance_stamp`): ``host`` plus
``git_commit`` / ``git_dirty``, which is what lets the trend engine
(:mod:`repro.sweep.trend`) key per-metric series on the commit that
produced each run.  Version-1 (no ``per_trial``) and version-2 (no
provenance) artifacts still load; the trend engine files them under
commit ``"unknown"``.

Artifacts live under ``benchmarks/results/`` next to the text archives,
named ``<experiment>-run-<UTC timestamp>.json`` so consecutive runs never
overwrite each other.  ``schema_version`` gates forward compatibility:
consumers must reject versions they do not understand rather than guess.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

from repro.experiments.harness import ExperimentTable
from repro.utils.jsonable import jsonable
from repro.utils.provenance import provenance_stamp

__all__ = [
    "ARTIFACT_SCHEMA_VERSION",
    "ArtifactError",
    "diff_artifacts",
    "load_artifact",
    "run_artifact_doc",
    "save_run_artifact",
]

ARTIFACT_SCHEMA_VERSION = 3

#: Older schema versions this build still understands when *loading* (new
#: artifacts are always written at ARTIFACT_SCHEMA_VERSION).  Version 1
#: lacks the ``per_trial`` section; version 2 lacks the provenance fields
#: (``host``, ``git_commit``, ``git_dirty``).
_READABLE_SCHEMA_VERSIONS = frozenset({1, 2, 3})

_DEFAULT_DIR = Path("benchmarks") / "results"


class ArtifactError(ValueError):
    """An artifact file is malformed or from an unknown schema version."""


def run_artifact_doc(
    table: ExperimentTable,
    *,
    experiment: str,
    params: Mapping[str, Any],
    seed: Any,
) -> Dict[str, Any]:
    """The JSON-ready artifact document for one experiment run."""
    return {
        "schema_version": ARTIFACT_SCHEMA_VERSION,
        "kind": "experiment_run",
        "experiment": str(experiment),
        "title": table.name,
        "seed": _seed_repr(seed),
        "params": jsonable(dict(params)),
        **provenance_stamp(),
        "table": table.to_dict(),
        "per_trial": jsonable(table.trial_metrics),
    }


def save_run_artifact(
    table: ExperimentTable,
    *,
    experiment: str,
    params: Mapping[str, Any],
    seed: Any,
    directory: str | Path | None = None,
) -> Path:
    """Write one run's artifact; returns the created path.

    Filenames embed a UTC timestamp (``e1-run-20260727T120000Z.json``)
    plus a disambiguating counter when two runs land in the same second,
    so every run of the sweep keeps its own file.
    """
    directory = _DEFAULT_DIR if directory is None else Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    doc = run_artifact_doc(
        table, experiment=experiment, params=params, seed=seed
    )
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    base = f"{doc['experiment']}-run-{stamp}"
    path = directory / f"{base}.json"
    counter = 1
    while path.exists():
        path = directory / f"{base}-{counter}.json"
        counter += 1
    path.write_text(json.dumps(doc, indent=2, allow_nan=False) + "\n")
    return path


def load_artifact(path: str | Path) -> Dict[str, Any]:
    """Load and validate one artifact document."""
    path = Path(path)
    # ValueError covers both truncated/garbled JSON (JSONDecodeError) and
    # files that are not UTF-8 text at all (UnicodeDecodeError): any way a
    # file on disk can be unreadable maps to one typed ArtifactError.
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ArtifactError(f"cannot read artifact {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ArtifactError(f"artifact {path} is not a JSON object")
    version = doc.get("schema_version")
    if version not in _READABLE_SCHEMA_VERSIONS:
        raise ArtifactError(
            f"artifact {path} has schema_version {version!r}; this build "
            f"understands versions "
            f"{sorted(_READABLE_SCHEMA_VERSIONS)} — refusing to guess at a "
            f"different layout"
        )
    for key in ("experiment", "table"):
        if key not in doc:
            raise ArtifactError(f"artifact {path} is missing {key!r}")
    return doc


# --------------------------------------------------------------------- #
# diffing
# --------------------------------------------------------------------- #
def diff_artifacts(
    old: Mapping[str, Any], new: Mapping[str, Any]
) -> str:
    """Render the row-by-row numeric deltas between two run artifacts.

    Rows are aligned positionally (experiment grids are deterministic, so
    row i of two runs of the same experiment describes the same grid
    cell); non-numeric cells are compared for equality, numeric cells get
    an absolute and relative delta.  Diffing artifacts of two *different*
    experiments is refused — that comparison means nothing.
    """
    if old.get("experiment") != new.get("experiment"):
        raise ArtifactError(
            f"cannot diff artifacts of different experiments: "
            f"{old.get('experiment')!r} vs {new.get('experiment')!r}"
        )
    exp = old.get("experiment")
    old_rows: List[Dict[str, Any]] = list(old["table"].get("rows", []))
    new_rows: List[Dict[str, Any]] = list(new["table"].get("rows", []))
    # The union of both column sets (new order first): a column dropped by
    # the newer run still diffs (as value -> None) instead of vanishing.
    columns = list(new["table"].get("columns", []))
    columns += [c for c in old["table"].get("columns", [])
                if c not in columns]

    lines = [
        f"# diff: {exp} — {old.get('created_at', '?')} → "
        f"{new.get('created_at', '?')}",
        f"seeds: {old.get('seed')} → {new.get('seed')}",
    ]
    if old.get("params") != new.get("params"):
        lines.append(f"params changed: {old.get('params')} → "
                     f"{new.get('params')}")
    if len(old_rows) != len(new_rows):
        lines.append(
            f"row count changed: {len(old_rows)} → {len(new_rows)} "
            f"(diffing the common prefix)"
        )
    changed = 0
    for i, (a, b) in enumerate(zip(old_rows, new_rows)):
        cell_diffs = []
        for col in columns:
            va, vb = a.get(col), b.get(col)
            if _is_number(va) and _is_number(vb):
                if va != vb:
                    delta = vb - va
                    rel = f" ({delta / va:+.2%})" if va else ""
                    cell_diffs.append(
                        f"{col}: {va:.6g} → {vb:.6g} [{delta:+.6g}{rel}]"
                    )
            elif va != vb:
                cell_diffs.append(f"{col}: {va!r} → {vb!r}")
        if cell_diffs:
            changed += 1
            lines.append(f"row {i}: " + "; ".join(cell_diffs))
    if not changed:
        lines.append("no row-level differences")
    else:
        lines.append(f"{changed}/{min(len(old_rows), len(new_rows))} "
                     f"rows differ")
    return "\n".join(lines)


def _seed_repr(seed: Any) -> Any:
    """A JSON-safe record of the seed (ints stay ints, exotica stringify)."""
    if seed is None:
        return None
    coerced = jsonable(seed)
    if isinstance(coerced, (int, float)) and not isinstance(coerced, bool):
        return coerced
    return str(coerced)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)
