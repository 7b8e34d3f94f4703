"""The resumable sweep runner: planned cells → archived artifacts.

Execution goes through the same two seams everything else in the repo
uses: each cell runs via
:meth:`~repro.experiments.registry.ExperimentSpec.run` with
``archive_dir`` staging, and cells fan out across workers through the
executor seam (:func:`repro.dist.executor.resolve_executor`) — under the
``processes``/``remote`` backends whole cells ship to workers (the jobs
are frozen picklable dataclasses, like trials), with the engines *inside*
each cell pinned serial so a cell never nests a second pool
(:func:`repro.dist.executor.serial_inner_engines`, the rule
:func:`repro.experiments.harness.run_trials` applies too).

Resume semantics
----------------
A cell's artifact lands at ``DIR/cells/<experiment>-<cell_id>.json``,
where ``cell_id`` is the content hash of ``(experiment, overrides,
seed)``.  Before executing, the runner checks that path: an artifact that
exists *and loads cleanly* means the cell is served from cache
(``status="skipped"``); a missing, truncated, or corrupt artifact means
the cell runs.  Artifacts are written atomically (full temp file, then
``os.replace``), so a sweep killed mid-cell leaves either a complete
artifact or none — never a half-written file that would poison a resume.

Failure isolation
-----------------
A raising cell is recorded as ``status="failed"`` with the exception text
and the sweep *continues*; :attr:`SweepResult.exit_code` is 1 when any
cell failed, so CI still goes red, but one diverging grid corner cannot
abort the other cells' work.  Failed cells write no artifact, so the next
invocation retries exactly them.

``retry_failed=N`` (CLI ``--retry-failed N``) additionally re-runs a
raising cell up to N extra times *within* the invocation before recording
it failed — for transient faults (a broken worker pool, a flaky
filesystem) that would succeed on the spot.  Every executed record
carries ``attempts`` (how many runs the cell took), which flows into the
manifest verbatim.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.sweep.grid import GridCell
from repro.sweep.manifest import (
    ManifestError,
    build_manifest,
    load_manifest,
    save_manifest,
)
from repro.utils.jsonable import jsonable

__all__ = ["SweepResult", "cell_artifact_path", "run_sweep"]


def cell_artifact_path(directory: str | Path, cell: GridCell) -> Path:
    """The deterministic artifact path of one cell in a sweep directory."""
    return Path(directory) / "cells" / f"{cell.experiment}-{cell.cell_id}.json"


@dataclass(frozen=True)
class _CellJob:
    """One cell's execution order — frozen and picklable, like a Trial."""

    experiment: str
    overrides: Tuple[Tuple[str, Any], ...]
    seed: Optional[int]
    cell_id: str
    out_path: str
    artifact_rel: str
    #: The backend that ships the cell (it decides the inner engines' pin).
    outer: str
    #: Extra runs allowed after a raise before the cell is recorded failed.
    retries: int = 0


def _execute_cell(job: _CellJob) -> Dict[str, Any]:
    """Run one cell; never raises — failures become ``status="failed"``.

    Module-level so the ``processes`` backend can pickle it.  The run
    archives into a private staging directory first; the artifact is then
    amended with the cell's identity (``sweep_cell``) and moved to its
    content-addressed final path in one ``os.replace``.  A raising run is
    repeated up to ``job.retries`` extra times (transient-fault cover);
    the returned record's ``attempts`` counts every run taken.
    """
    from repro.dist.executor import serial_inner_engines
    from repro.experiments.registry import get_experiment

    start = time.perf_counter()
    record: Dict[str, Any] = {
        "cell_id": job.cell_id,
        "experiment": job.experiment,
        "overrides": jsonable(dict(job.overrides)),
        "seed": job.seed,
        "artifact": None,
        "error": None,
    }
    staging = Path(f"{job.out_path}.staging-{os.getpid()}")
    attempts = 0
    last_error: Optional[str] = None
    try:
        with serial_inner_engines(job.outer):
            for attempt in range(1 + max(0, job.retries)):
                attempts = attempt + 1
                try:
                    spec = get_experiment(job.experiment)
                    table = spec.run(seed=job.seed, archive_dir=staging,
                                     **dict(job.overrides))
                    doc = json.loads(Path(table.artifact_path).read_text())
                    doc["sweep_cell"] = {
                        "cell_id": job.cell_id,
                        "overrides": jsonable(dict(job.overrides)),
                        "seed": job.seed,
                    }
                    tmp = Path(f"{job.out_path}.tmp-{os.getpid()}")
                    tmp.write_text(
                        json.dumps(doc, indent=2, allow_nan=False) + "\n")
                    os.replace(tmp, job.out_path)
                    record.update(
                        status="done",
                        artifact=job.artifact_rel,
                        seed_resolved=doc.get("seed"),
                        rows=len(doc.get("table", {}).get("rows", [])),
                    )
                    last_error = None
                    break
                except Exception as exc:  # noqa: BLE001 — isolation contract
                    last_error = f"{type(exc).__name__}: {exc}"
                    shutil.rmtree(staging, ignore_errors=True)
        if last_error is not None:
            record.update(status="failed", error=last_error)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    record["attempts"] = attempts
    record["wall_time_s"] = round(time.perf_counter() - start, 6)
    return record


@dataclass
class SweepResult:
    """The outcome of one :func:`run_sweep` invocation."""

    directory: Path
    manifest_path: Path
    manifest: Dict[str, Any]
    #: Records of cells executed this invocation (``done`` or ``failed``),
    #: in plan order.
    executed: List[Dict[str, Any]] = field(default_factory=list)
    #: Records of cells served from their cached artifact, in plan order.
    skipped: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def failed(self) -> List[Dict[str, Any]]:
        return [r for r in self.executed if r["status"] == "failed"]

    @property
    def done(self) -> List[Dict[str, Any]]:
        return [r for r in self.executed if r["status"] == "done"]

    @property
    def exit_code(self) -> int:
        """0 when every cell is done or cached; 1 when any cell failed."""
        return 1 if self.failed else 0

    def summary(self) -> str:
        total = len(self.executed) + len(self.skipped)
        return (f"{total} cells: {len(self.done)} executed, "
                f"{len(self.skipped)} skipped (cached), "
                f"{len(self.failed)} failed")


def run_sweep(
    cells: Sequence[GridCell],
    directory: str | Path,
    *,
    executor: Any = None,
    force: bool = False,
    retry_failed: int = 0,
    grid_args: Optional[Mapping[str, Any]] = None,
) -> SweepResult:
    """Execute a planned grid into ``directory``, resuming past work.

    ``executor`` follows the :data:`repro.dist.executor.ExecutorSpec`
    convention (``None`` resolves from ``$REPRO_EXECUTOR``) and selects
    the backend that fans whole *cells* out; a resolved backend is closed
    here, a caller-passed instance stays open (the substrate ownership
    rule).  ``force=True`` re-executes every cell regardless of cached
    artifacts.  ``retry_failed=N`` re-runs a raising cell up to N extra
    times before recording it failed (the record's ``attempts`` counts
    the runs).  ``grid_args`` is recorded verbatim in the manifest as the
    grid's declaration (the CLI passes its raw arguments).
    """
    from repro.dist.executor import Executor, resolve_executor
    from repro.experiments.artifacts import ArtifactError, load_artifact

    if retry_failed < 0:
        raise ValueError(f"retry_failed must be >= 0, got {retry_failed}")
    directory = Path(directory)
    cells_dir = directory / "cells"
    cells_dir.mkdir(parents=True, exist_ok=True)

    # Duplicate cells (e.g. two identical --set axes) collapse to one run.
    unique: Dict[str, GridCell] = {}
    for cell in cells:
        unique.setdefault(cell.cell_id, cell)

    backend = resolve_executor(executor)

    skipped: List[Dict[str, Any]] = []
    jobs: List[_CellJob] = []
    for cell in unique.values():
        out_path = cell_artifact_path(directory, cell)
        artifact_rel = str(out_path.relative_to(directory))
        cached = False
        if not force and out_path.exists():
            try:
                doc = load_artifact(out_path)
                cached = True
            except ArtifactError:
                cached = False  # corrupt cache entry: self-heal by re-running
        if cached:
            skipped.append({
                "cell_id": cell.cell_id,
                "experiment": cell.experiment,
                "overrides": jsonable(cell.overrides_dict()),
                "seed": cell.seed,
                "status": "skipped",
                "artifact": artifact_rel,
                "seed_resolved": doc.get("seed"),
                "error": None,
                "attempts": 0,
                "wall_time_s": 0.0,
            })
        else:
            jobs.append(_CellJob(
                experiment=cell.experiment,
                overrides=cell.overrides,
                seed=cell.seed,
                cell_id=cell.cell_id,
                out_path=str(out_path),
                artifact_rel=artifact_rel,
                outer=backend.name,
                retries=retry_failed,
            ))

    try:
        executed = backend.map(_execute_cell, jobs) if jobs else []
    finally:
        if not isinstance(executor, Executor):
            backend.close()

    previous = None
    manifest_path = directory / "manifest.json"
    if manifest_path.exists():
        try:
            previous = load_manifest(manifest_path)
        except ManifestError:
            previous = None  # unreadable prior manifest: rebuild from scratch
    grid_info = dict(grid_args) if grid_args is not None else {
        "experiments": sorted({c.experiment for c in unique.values()}),
    }
    grid_info.setdefault("cells_planned", len(unique))
    manifest = build_manifest(skipped + list(executed), grid=grid_info,
                              previous=previous)
    save_manifest(manifest, manifest_path)
    return SweepResult(
        directory=directory,
        manifest_path=manifest_path,
        manifest=manifest,
        executed=list(executed),
        skipped=skipped,
    )
