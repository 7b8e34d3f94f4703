"""Longitudinal perf/quality trend tracking across commits.

The registry archives runs (:mod:`repro.experiments.artifacts`) and the
bench writes ``BENCH_*.json`` snapshots (:mod:`repro.experiments.bench`),
both stamped with git provenance.  This module turns a directory of those
files — accumulated across commits, by CI uploads or a committed results
directory — into per-metric *series* keyed by ``(experiment, metric,
commit)``, and evaluates the newest commit against the previous one under
configurable thresholds: a **perf** metric (wall-clock seconds) that got
more than ``perf_tol`` slower, or a **quality** metric (approximation
ratio, where higher is further from optimal) that got more than
``quality_tol`` worse, is flagged.  ``repro report --trend DIR --check``
exits 1 when anything is flagged, which is what makes the trajectory a CI
gate rather than a chart.

Metric classification is by name, one rule for every producer:

- ``perf`` — the metric's last path component ends in ``_s`` /
  ``_seconds`` or contains ``wall`` or ``time`` (``per_round_s``,
  ``wall_s``, ``optimized_s``, ...).  Regression = increase.
- ``quality`` — the last component contains ``ratio`` (``ratio_mean``,
  ``weight_ratio``, ...; every ratio in this repo is opt-vs-achieved or
  reference-vs-protocol, so higher means further from optimal).
  Regression = increase.
- ``info`` — everything else: tracked and rendered, never flagged.

Artifacts of one experiment whose *params* differ (different sweep cells,
say) are split into separate series labelled ``e1@<params-digest>``, so a
grid never averages apples into oranges; files older than the provenance
schemas (artifact v2, bench v3) still load and trend under commit
``"unknown"``.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "TrendFlag",
    "TrendPoint",
    "TrendSeries",
    "TrendThresholds",
    "build_series",
    "classify_metric",
    "collect_trend_docs",
    "evaluate_trends",
    "render_trend",
]

#: Bench schema versions the trend engine understands (v3 predates the
#: git provenance fields; it trends under commit "unknown").
_READABLE_BENCH_VERSIONS = frozenset({3, 4})


@dataclass(frozen=True)
class TrendThresholds:
    """Relative tolerances for the latest-vs-previous commit comparison."""

    #: Flag a perf metric more than this fraction slower (0.20 = +20%).
    perf_tol: float = 0.20
    #: Flag a quality ratio more than this fraction worse (0.05 = +5%).
    quality_tol: float = 0.05


@dataclass(frozen=True)
class TrendPoint:
    """One commit's value of one metric (mean when a commit has several)."""

    commit: str
    created_at: str
    value: float
    n_sources: int


@dataclass
class TrendSeries:
    """One metric's trajectory across commits, oldest first."""

    experiment: str
    metric: str
    kind: str  # "perf" | "quality" | "info"
    points: List[TrendPoint] = field(default_factory=list)

    @property
    def key(self) -> Tuple[str, str]:
        return (self.experiment, self.metric)


@dataclass(frozen=True)
class TrendFlag:
    """One threshold violation: the newest commit regressed this metric."""

    experiment: str
    metric: str
    kind: str
    previous: float
    latest: float
    rel_change: float
    message: str


def classify_metric(metric: str) -> str:
    """``perf`` / ``quality`` / ``info`` from the metric name alone."""
    last = metric.rsplit(".", 1)[-1]
    if (last.endswith("_s") or last.endswith("_seconds")
            or "wall" in last or "time" in last):
        return "perf"
    if "ratio" in last:
        return "quality"
    return "info"


# --------------------------------------------------------------------- #
# ingestion
# --------------------------------------------------------------------- #
def collect_trend_docs(directory: str | Path) -> List[Dict[str, Any]]:
    """Load every trendable JSON document under ``directory`` (recursive).

    Run artifacts (``kind="experiment_run"``) are validated by the
    artifact loader, bench files (``kind="substrate_bench"``) by the bench
    schema gate; sweep manifests are recognized and passed over silently.
    Anything malformed, truncated, or foreign-schema is skipped with a
    :class:`UserWarning` naming the file — one bad file must not take the
    whole trend down.  Raises :class:`FileNotFoundError` when
    ``directory`` does not exist.
    """
    from repro.experiments.artifacts import ArtifactError, load_artifact

    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(
            f"trend directory {directory} does not exist")
    docs: List[Dict[str, Any]] = []
    for path in sorted(directory.rglob("*.json")):
        try:
            raw = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            warnings.warn(f"trend: skipping unreadable {path}: {exc}",
                          stacklevel=2)
            continue
        if not isinstance(raw, dict):
            warnings.warn(f"trend: skipping {path}: not a JSON object",
                          stacklevel=2)
            continue
        kind = raw.get("kind")
        if kind == "sweep_manifest":
            continue  # an index, not a measurement
        if kind == "substrate_bench":
            if raw.get("schema_version") not in _READABLE_BENCH_VERSIONS:
                warnings.warn(
                    f"trend: skipping {path}: bench schema_version "
                    f"{raw.get('schema_version')!r} not understood",
                    stacklevel=2)
                continue
            doc = raw
        else:
            # Everything else must be a loadable run artifact; the loader
            # owns the schema gate and the error text.
            try:
                doc = load_artifact(path)
            except ArtifactError as exc:
                warnings.warn(f"trend: skipping {path}: {exc}",
                              stacklevel=2)
                continue
        doc["_path"] = str(path)
        docs.append(doc)
    return docs


# --------------------------------------------------------------------- #
# series construction
# --------------------------------------------------------------------- #
def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _params_digest(doc: Mapping[str, Any]) -> str:
    payload = json.dumps(doc.get("params", {}), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:8]


def _run_metrics(doc: Mapping[str, Any]) -> Dict[str, float]:
    """Per-metric value of one run artifact: mean over the table's rows."""
    table = doc.get("table", {})
    rows = table.get("rows", [])
    out: Dict[str, float] = {}
    for col in table.get("columns", []):
        values = [row[col] for row in rows
                  if isinstance(row, dict) and _is_number(row.get(col))]
        if values:
            out[col] = float(sum(values)) / len(values)
    return out


def _bench_metrics(doc: Mapping[str, Any]) -> Dict[str, float]:
    """Flatten one bench document into dotted per-variant perf metrics."""
    out: Dict[str, float] = {}
    for row in doc.get("pool_lifecycle", []):
        out[f"pool_lifecycle.{row['scenario']}.{row['variant']}"
            f".per_round_s"] = row["per_round_s"]
    for row in doc.get("solver_facade", []):
        out[f"solver_facade.{row['solver']}.wall_s"] = row["wall_s"]
    for row in doc.get("remote_exec", []):
        out[f"remote_exec.{row['scenario']}.{row['variant']}"
            f".per_round_s"] = row["per_round_s"]
    return out


def build_series(docs: Sequence[Mapping[str, Any]]) -> List[TrendSeries]:
    """Group the documents' metrics into per-commit series.

    Within a series, commits are ordered by the earliest ``created_at``
    that produced them and a commit's repeated measurements are averaged.
    Run artifacts contribute their table columns under their experiment
    id (suffixed ``@<digest>`` when one experiment appears with several
    distinct param sets); bench files contribute their flattened sections
    under the pseudo-experiment ``bench``.
    """
    # Distinguishing label: plain experiment id when params are uniform.
    digests: Dict[str, set] = {}
    for doc in docs:
        if doc.get("kind") != "substrate_bench":
            exp = str(doc.get("experiment"))
            digests.setdefault(exp, set()).add(_params_digest(doc))

    raw: Dict[Tuple[str, str], List[Tuple[str, str, float]]] = {}
    for doc in docs:
        commit = doc.get("git_commit")
        commit = commit if isinstance(commit, str) and commit else "unknown"
        created = str(doc.get("created_at", ""))
        if doc.get("kind") == "substrate_bench":
            label, metrics = "bench", _bench_metrics(doc)
        else:
            exp = str(doc.get("experiment"))
            label = (exp if len(digests.get(exp, set())) <= 1
                     else f"{exp}@{_params_digest(doc)}")
            metrics = _run_metrics(doc)
        for metric, value in metrics.items():
            raw.setdefault((label, metric), []).append(
                (created, commit, value))

    series: List[TrendSeries] = []
    for (label, metric), samples in sorted(raw.items()):
        by_commit: Dict[str, List[Tuple[str, float]]] = {}
        for created, commit, value in samples:
            by_commit.setdefault(commit, []).append((created, value))
        ordered = sorted(
            by_commit.items(),
            key=lambda item: (min(c for c, _ in item[1]), item[0]))
        points = [
            TrendPoint(
                commit=commit,
                created_at=min(c for c, _ in values),
                value=float(sum(v for _, v in values)) / len(values),
                n_sources=len(values),
            )
            for commit, values in ordered
        ]
        series.append(TrendSeries(experiment=label, metric=metric,
                                  kind=classify_metric(metric),
                                  points=points))
    return series


# --------------------------------------------------------------------- #
# evaluation and rendering
# --------------------------------------------------------------------- #
def evaluate_trends(
    series: Sequence[TrendSeries],
    thresholds: TrendThresholds = TrendThresholds(),
) -> List[TrendFlag]:
    """Latest-vs-previous commit per series; violations become flags."""
    flags: List[TrendFlag] = []
    for s in series:
        if s.kind == "info" or len(s.points) < 2:
            continue
        prev, latest = s.points[-2], s.points[-1]
        if prev.value <= 0:
            continue  # no meaningful relative change from a <=0 baseline
        rel = (latest.value - prev.value) / prev.value
        tol = (thresholds.perf_tol if s.kind == "perf"
               else thresholds.quality_tol)
        if rel > tol:
            noun = "slower" if s.kind == "perf" else "worse"
            flags.append(TrendFlag(
                experiment=s.experiment,
                metric=s.metric,
                kind=s.kind,
                previous=prev.value,
                latest=latest.value,
                rel_change=rel,
                message=(
                    f"{s.experiment} {s.metric}: {prev.value:.6g} → "
                    f"{latest.value:.6g} ({rel:+.1%} {noun} than commit "
                    f"{_short(prev.commit)}, tolerance +{tol:.0%})"),
            ))
    flags.sort(key=lambda f: -f.rel_change)
    return flags


def _short(commit: str) -> str:
    return commit[:9] if commit and commit != "unknown" else commit


def render_trend(
    series: Sequence[TrendSeries],
    flags: Sequence[TrendFlag],
    thresholds: TrendThresholds = TrendThresholds(),
) -> str:
    """The trend report: one aligned line per series, then the verdict."""
    commits: List[str] = []
    for s in series:
        for p in s.points:
            if p.commit not in commits:
                commits.append(p.commit)
    lines = [
        f"# trend: {len(series)} series across {len(commits)} commit(s)"
        + (f" ({' → '.join(_short(c) for c in commits)})" if commits else ""),
        "",
    ]
    if not series:
        lines.append("*(no run artifacts or bench files found)*")
    else:
        flagged = {(f.experiment, f.metric) for f in flags}
        rows = []
        for s in series:
            first, last = s.points[0], s.points[-1]
            if len(s.points) > 1 and first.value != 0:
                step = (last.value - s.points[-2].value) / s.points[-2].value \
                    if s.points[-2].value else float("nan")
                trajectory = (f"{first.value:.6g} → {last.value:.6g} "
                              f"({step:+.1%} last step)")
            else:
                trajectory = f"{last.value:.6g}"
            marker = "REGRESSION" if s.key in flagged else ""
            rows.append((s.experiment, s.metric, s.kind,
                         str(len(s.points)), trajectory, marker))
        headers = ("experiment", "metric", "kind", "pts",
                   "first → latest", "")
        widths = [max(len(h), *(len(r[i]) for r in rows))
                  for i, h in enumerate(headers)]
        lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths))
                     .rstrip())
        lines.append("  ".join("-" * w for w in widths).rstrip())
        for row in rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths))
                         .rstrip())
    lines.append("")
    if flags:
        lines.append(f"{len(flags)} regression(s) flagged "
                     f"(perf tol +{thresholds.perf_tol:.0%}, "
                     f"quality tol +{thresholds.quality_tol:.0%}):")
        for f in flags:
            lines.append(f"  REGRESSION [{f.kind}] {f.message}")
    else:
        lines.append(f"no regressions flagged "
                     f"(perf tol +{thresholds.perf_tol:.0%}, "
                     f"quality tol +{thresholds.quality_tol:.0%})")
    return "\n".join(lines)
