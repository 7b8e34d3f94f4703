"""Tests for the trend engine, the shared provenance stamp, and the
hardened artifact ingestion (malformed files warn-and-skip)."""

import json

import pytest

from repro.cli import main
from repro.experiments.artifacts import (
    ARTIFACT_SCHEMA_VERSION,
    ArtifactError,
    load_artifact,
)
from repro.experiments.bench import BENCH_SCHEMA_VERSION
from repro.experiments.report import collect_artifacts
from repro.sweep.trend import (
    TrendThresholds,
    build_series,
    classify_metric,
    collect_trend_docs,
    evaluate_trends,
    render_trend,
)
from repro.utils.provenance import git_state, provenance_stamp

COMMIT_A = "a" * 40
COMMIT_B = "b" * 40


def _run_doc(experiment="e1", commit=COMMIT_A,
             created="2026-01-01T00:00:00+00:00", wall=1.0, ratio=1.10,
             params=None, schema_version=ARTIFACT_SCHEMA_VERSION):
    doc = {
        "schema_version": schema_version,
        "kind": "experiment_run",
        "experiment": experiment,
        "seed": 0,
        "params": dict(params or {"n": 100}),
        "created_at": created,
        "table": {
            "name": "t", "description": "",
            "columns": ["wall_s", "ratio_mean", "n"],
            "rows": [{"wall_s": wall, "ratio_mean": ratio, "n": 100}],
        },
        "per_trial": [],
    }
    if schema_version >= 3:
        doc["host"] = {}
        doc["git_commit"] = commit
        doc["git_dirty"] = False
    return doc


def _write(path, doc):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc) + "\n")


def _two_generations(directory, wall_b=1.0):
    """One e1 run per commit; generation B's wall_s is configurable."""
    _write(directory / "gen-a.json", _run_doc(commit=COMMIT_A, wall=1.0))
    _write(directory / "gen-b.json",
           _run_doc(commit=COMMIT_B, wall=wall_b,
                    created="2026-01-02T00:00:00+00:00"))


class TestClassifyMetric:
    @pytest.mark.parametrize("metric,kind", [
        ("wall_s", "perf"),
        ("per_round_s", "perf"),
        ("elapsed_seconds", "perf"),
        ("wall_clock", "perf"),
        ("time_per_piece", "perf"),
        ("solver_facade.greedy.wall_s", "perf"),
        ("ratio_mean", "quality"),
        ("weight_ratio", "quality"),
        ("e1.ratio_max", "quality"),
        ("n", "info"),
        ("rounds", "info"),
        ("ratio.count", "info"),  # last component rules, not the path
    ])
    def test_by_name(self, metric, kind):
        assert classify_metric(metric) == kind


class TestCollect:
    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            collect_trend_docs(tmp_path / "absent")

    def test_malformed_files_warned_and_skipped(self, tmp_path):
        _write(tmp_path / "good.json", _run_doc())
        (tmp_path / "truncated.json").write_text('{"schema_version": 3, "ki')
        (tmp_path / "binary.json").write_bytes(b"\xff\xfe\x00garbage")
        (tmp_path / "list.json").write_text("[1, 2, 3]")
        (tmp_path / "alien.json").write_text(
            '{"schema_version": 99, "kind": "experiment_run"}')
        with pytest.warns(UserWarning, match="skipping"):
            docs = collect_trend_docs(tmp_path)
        assert [d["experiment"] for d in docs] == ["e1"]

    def test_sweep_manifest_skipped_silently(self, tmp_path):
        _write(tmp_path / "manifest.json",
               {"schema_version": 1, "kind": "sweep_manifest", "cells": []})
        _write(tmp_path / "cells" / "run.json", _run_doc())
        docs = collect_trend_docs(tmp_path)  # recursive, no warning
        assert len(docs) == 1

    def test_bench_schema_gate(self, tmp_path):
        _write(tmp_path / "BENCH_old.json",
               {"schema_version": 2, "kind": "substrate_bench"})
        _write(tmp_path / "BENCH_new.json",
               {"schema_version": BENCH_SCHEMA_VERSION,
                "kind": "substrate_bench", "git_commit": COMMIT_A,
                "created_at": "2026-01-01T00:00:00+00:00",
                "solver_facade": [{"solver": "greedy", "wall_s": 0.5}]})
        with pytest.warns(UserWarning, match="bench schema_version"):
            docs = collect_trend_docs(tmp_path)
        assert len(docs) == 1


class TestBuildSeries:
    def test_keyed_by_experiment_and_metric(self, tmp_path):
        _two_generations(tmp_path)
        series = build_series(collect_trend_docs(tmp_path))
        keys = {s.key for s in series}
        assert ("e1", "wall_s") in keys and ("e1", "ratio_mean") in keys

    def test_commits_ordered_by_created_at(self, tmp_path):
        # Write generation B first: file order must not decide commit order.
        _write(tmp_path / "a-later-name.json",
               _run_doc(commit=COMMIT_B, wall=2.0,
                        created="2026-01-02T00:00:00+00:00"))
        _write(tmp_path / "z-earlier-name.json",
               _run_doc(commit=COMMIT_A, wall=1.0))
        (s,) = [s for s in build_series(collect_trend_docs(tmp_path))
                if s.metric == "wall_s"]
        assert [p.commit for p in s.points] == [COMMIT_A, COMMIT_B]
        assert [p.value for p in s.points] == [1.0, 2.0]

    def test_same_commit_measurements_averaged(self, tmp_path):
        _write(tmp_path / "r1.json", _run_doc(wall=1.0))
        _write(tmp_path / "r2.json", _run_doc(wall=3.0))
        (s,) = [s for s in build_series(collect_trend_docs(tmp_path))
                if s.metric == "wall_s"]
        (point,) = s.points
        assert point.value == 2.0 and point.n_sources == 2

    def test_differing_params_split_series(self, tmp_path):
        _write(tmp_path / "p1.json", _run_doc(params={"k": 4}))
        _write(tmp_path / "p2.json", _run_doc(params={"k": 8}))
        series = build_series(collect_trend_docs(tmp_path))
        labels = {s.experiment for s in series}
        assert len(labels) == 2
        assert all(label.startswith("e1@") for label in labels)

    def test_uniform_params_keep_plain_label(self, tmp_path):
        _two_generations(tmp_path)
        assert {s.experiment
                for s in build_series(collect_trend_docs(tmp_path))} == {"e1"}

    def test_pre_provenance_schema_trends_as_unknown(self, tmp_path):
        _write(tmp_path / "old.json", _run_doc(schema_version=2))
        (s, *_) = build_series(collect_trend_docs(tmp_path))
        assert s.points[0].commit == "unknown"

    def test_bench_docs_become_bench_series(self, tmp_path):
        _write(tmp_path / "BENCH_substrate.json",
               {"schema_version": BENCH_SCHEMA_VERSION,
                "kind": "substrate_bench", "git_commit": COMMIT_A,
                "created_at": "2026-01-01T00:00:00+00:00",
                "solver_facade": [{"solver": "greedy", "wall_s": 0.5}],
                "pool_lifecycle": [{"scenario": "e1-small",
                                    "variant": "serial",
                                    "per_round_s": 0.02}]})
        series = build_series(collect_trend_docs(tmp_path))
        assert {(s.experiment, s.metric, s.kind) for s in series} == {
            ("bench", "solver_facade.greedy.wall_s", "perf"),
            ("bench", "pool_lifecycle.e1-small.serial.per_round_s", "perf"),
        }


class TestEvaluate:
    def _flags(self, tmp_path, wall_b, thresholds=TrendThresholds()):
        _two_generations(tmp_path, wall_b=wall_b)
        series = build_series(collect_trend_docs(tmp_path))
        return evaluate_trends(series, thresholds)

    def test_perf_regression_beyond_tolerance_flagged(self, tmp_path):
        (flag,) = self._flags(tmp_path, wall_b=1.6)
        assert flag.metric == "wall_s" and flag.kind == "perf"
        assert flag.rel_change == pytest.approx(0.6)
        assert "slower" in flag.message

    def test_within_tolerance_not_flagged(self, tmp_path):
        assert self._flags(tmp_path, wall_b=1.1) == []

    def test_improvement_not_flagged(self, tmp_path):
        assert self._flags(tmp_path, wall_b=0.5) == []

    def test_loosened_tolerance_not_flagged(self, tmp_path):
        assert self._flags(tmp_path, wall_b=1.6,
                           thresholds=TrendThresholds(perf_tol=0.9)) == []

    def test_quality_regression_flagged(self, tmp_path):
        _write(tmp_path / "a.json", _run_doc(commit=COMMIT_A, ratio=1.10))
        _write(tmp_path / "b.json",
               _run_doc(commit=COMMIT_B, ratio=1.30,
                        created="2026-01-02T00:00:00+00:00"))
        (flag,) = evaluate_trends(build_series(collect_trend_docs(tmp_path)))
        assert flag.metric == "ratio_mean" and flag.kind == "quality"
        assert "worse" in flag.message

    def test_single_commit_never_flags(self, tmp_path):
        _write(tmp_path / "only.json", _run_doc(wall=100.0))
        assert evaluate_trends(
            build_series(collect_trend_docs(tmp_path))) == []

    def test_info_metric_never_flags(self, tmp_path):
        # The "n" column triples between commits — info metrics stay quiet.
        _write(tmp_path / "a.json", _run_doc(commit=COMMIT_A))
        doc = _run_doc(commit=COMMIT_B,
                       created="2026-01-02T00:00:00+00:00")
        doc["table"]["rows"][0]["n"] = 300
        _write(tmp_path / "b.json", doc)
        assert [f.metric for f in evaluate_trends(
            build_series(collect_trend_docs(tmp_path)))] == []

    def test_render_marks_regressions(self, tmp_path):
        _two_generations(tmp_path, wall_b=1.6)
        series = build_series(collect_trend_docs(tmp_path))
        flags = evaluate_trends(series)
        text = render_trend(series, flags)
        assert "REGRESSION" in text and "wall_s" in text
        clean = render_trend(series, [])
        assert "no regressions flagged" in clean


class TestTrendCLI:
    def test_report_trend_renders(self, tmp_path, capsys):
        _two_generations(tmp_path)
        assert main(["report", "--trend", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "series across" in out and "wall_s" in out

    def test_check_exits_1_on_regression(self, tmp_path, capsys):
        _two_generations(tmp_path, wall_b=1.6)
        assert main(["report", "--trend", str(tmp_path), "--check"]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_check_exits_0_when_clean(self, tmp_path):
        _two_generations(tmp_path, wall_b=1.05)
        assert main(["report", "--trend", str(tmp_path), "--check"]) == 0

    def test_tolerance_flags_loosen_the_gate(self, tmp_path):
        _two_generations(tmp_path, wall_b=1.6)
        assert main(["report", "--trend", str(tmp_path), "--check",
                     "--perf-tol", "0.9"]) == 0

    def test_missing_directory_exits_2(self, tmp_path, capsys):
        assert main(["report", "--trend", str(tmp_path / "absent")]) == 2
        assert "does not exist" in capsys.readouterr().err


class TestProvenance:
    def test_stamp_shape(self):
        stamp = provenance_stamp()
        assert set(stamp) == {"created_at", "host", "git_commit",
                              "git_dirty"}
        assert set(stamp["host"]) == {"python", "platform", "cpu_count"}

    def test_git_state_in_checkout(self):
        commit, dirty = git_state()
        # The test tree is a git checkout, so both fields resolve.
        assert isinstance(commit, str) and len(commit) == 40
        assert int(commit, 16) >= 0
        assert isinstance(dirty, bool)

    def test_git_state_outside_checkout(self, tmp_path):
        assert git_state(tmp_path) == (None, None)

    def test_run_artifacts_carry_provenance(self, tmp_path):
        from repro.experiments.registry import get_experiment

        table = get_experiment("e1").run(
            n_values=(200,), k_values=(2,), n_trials=1,
            archive_dir=tmp_path)
        doc = load_artifact(table.artifact_path)
        assert doc["schema_version"] == ARTIFACT_SCHEMA_VERSION == 3
        assert len(doc["git_commit"]) == 40
        assert isinstance(doc["git_dirty"], bool)
        assert set(doc["host"]) == {"python", "platform", "cpu_count"}

    def test_bench_schema_is_provenance_generation(self):
        assert BENCH_SCHEMA_VERSION == 4


class TestHardenedReportIngestion:
    """Satellite: report.collect_artifacts survives malformed files."""

    def test_collect_artifacts_skips_bad_files_with_warning(self, tmp_path):
        _write(tmp_path / "e1-run-1.json", _run_doc())
        (tmp_path / "truncated.json").write_text(
            '{"schema_version": 3, "experiment": "e1", "tab')
        (tmp_path / "binary.json").write_bytes(b"\x80\x81\x82")
        (tmp_path / "list.json").write_text("[]")
        (tmp_path / "future.json").write_text(
            '{"schema_version": 42, "kind": "experiment_run", '
            '"experiment": "e1", "table": {}}')
        with pytest.warns(UserWarning, match="skipping unreadable"):
            docs = collect_artifacts(tmp_path)
        assert [d["experiment"] for d in docs] == ["e1"]

    def test_load_artifact_rejects_non_utf8(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe not json")
        with pytest.raises(ArtifactError, match="cannot read"):
            load_artifact(path)
