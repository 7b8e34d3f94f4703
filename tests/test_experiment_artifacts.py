"""Tests for structured run artifacts: save/load/diff and the registry
``archive_dir`` hook."""

import json

import numpy as np
import pytest

from repro.experiments.artifacts import (
    ARTIFACT_SCHEMA_VERSION,
    ArtifactError,
    diff_artifacts,
    load_artifact,
    run_artifact_doc,
    save_run_artifact,
)
from repro.experiments.harness import ExperimentTable


def _table(ratio=1.5, label="a"):
    t = ExperimentTable(
        name="T", description="d", columns=["graph", "n", "ratio"])
    t.add_row(graph=label, n=100, ratio=ratio)
    t.add_row(graph=label + "2", n=200, ratio=ratio * 2)
    return t


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        path = save_run_artifact(
            _table(), experiment="e1",
            params={"n_values": (100, 200), "n_trials": 3},
            seed=11, directory=tmp_path)
        doc = load_artifact(path)
        assert doc["schema_version"] == ARTIFACT_SCHEMA_VERSION
        assert doc["experiment"] == "e1"
        assert doc["seed"] == 11
        assert doc["params"]["n_values"] == [100, 200]
        assert doc["table"]["rows"][0]["ratio"] == 1.5
        assert "created_at" in doc

    def test_numpy_values_are_jsonable(self, tmp_path):
        t = ExperimentTable(name="T", description="d", columns=["x"])
        t.add_row(x=np.float64(2.25))
        path = save_run_artifact(
            t, experiment="e9", params={"k": np.int64(4)},
            seed=np.random.SeedSequence(3), directory=tmp_path)
        doc = json.loads(path.read_text())
        assert doc["params"]["k"] == 4
        assert doc["table"]["rows"][0]["x"] == 2.25

    def test_same_second_runs_get_distinct_files(self, tmp_path):
        paths = {
            save_run_artifact(_table(), experiment="e1", params={},
                              seed=1, directory=tmp_path)
            for _ in range(3)
        }
        assert len(paths) == 3

    def test_unknown_schema_version_rejected(self, tmp_path):
        path = save_run_artifact(_table(), experiment="e1", params={},
                                 seed=1, directory=tmp_path)
        doc = json.loads(path.read_text())
        doc["schema_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ArtifactError, match="schema_version"):
            load_artifact(path)

    def test_malformed_file_rejected(self, tmp_path):
        bad = tmp_path / "x.json"
        bad.write_text("not json {")
        with pytest.raises(ArtifactError, match="cannot read"):
            load_artifact(bad)


class TestDiff:
    def test_numeric_deltas_reported(self):
        old = run_artifact_doc(_table(1.5), experiment="e1",
                               params={}, seed=1)
        new = run_artifact_doc(_table(1.8), experiment="e1",
                               params={}, seed=1)
        text = diff_artifacts(old, new)
        assert "1.5 → 1.8" in text
        assert "+0.3" in text
        assert "rows differ" in text

    def test_identical_runs_report_no_diff(self):
        doc = run_artifact_doc(_table(), experiment="e1", params={}, seed=1)
        assert "no row-level differences" in diff_artifacts(doc, doc)

    def test_different_experiments_refused(self):
        a = run_artifact_doc(_table(), experiment="e1", params={}, seed=1)
        b = run_artifact_doc(_table(), experiment="e2", params={}, seed=1)
        with pytest.raises(ArtifactError, match="different experiments"):
            diff_artifacts(a, b)


class TestRegistryHook:
    def test_spec_run_archives(self, tmp_path):
        from repro.experiments.registry import get_experiment

        spec = get_experiment("e1")
        table = spec.run(n_values=(200,), k_values=(2,), n_trials=1,
                         archive_dir=tmp_path)
        path = table.artifact_path
        assert path.exists()
        doc = load_artifact(path)
        assert doc["experiment"] == "e1"
        assert doc["params"]["n_values"] == [200]
        assert doc["params"]["k_values"] == [2]
        assert len(doc["table"]["rows"]) == len(table.rows)

    def test_no_archive_by_default(self):
        from repro.experiments.registry import get_experiment

        table = get_experiment("e1").run(
            n_values=(200,), k_values=(2,), n_trials=1)
        assert not hasattr(table, "artifact_path")


class TestPerTrialMetrics:
    def test_spec_run_attaches_and_artifact_serializes(self, tmp_path):
        from repro.experiments.registry import get_experiment

        table = get_experiment("e1").run(
            n_values=(200, 400), k_values=(2,), n_trials=3,
            archive_dir=tmp_path,
        )
        # One run_trials call per grid cell, aligned with the rows.
        assert len(table.trial_metrics) == len(table.rows) == 2
        for row, metrics in zip(table.rows, table.trial_metrics):
            assert len(metrics["ratio"]) == 3
            assert row["ratio_mean"] == pytest.approx(
                float(np.mean(metrics["ratio"]))
            )
        doc = load_artifact(table.artifact_path)
        assert doc["schema_version"] == ARTIFACT_SCHEMA_VERSION
        assert doc["per_trial"] == table.trial_metrics

    def test_v1_artifact_without_per_trial_still_loads(self, tmp_path):
        path = save_run_artifact(
            _table(), experiment="e1", params={}, seed=1,
            directory=tmp_path,
        )
        doc = json.loads(path.read_text())
        doc["schema_version"] = 1
        del doc["per_trial"]
        path.write_text(json.dumps(doc))
        loaded = load_artifact(path)
        assert loaded["schema_version"] == 1
        assert "per_trial" not in loaded
        # And v1-vs-v2 runs of the same experiment still diff.
        other = save_run_artifact(
            _table(ratio=2.0), experiment="e1", params={}, seed=2,
            directory=tmp_path,
        )
        assert "ratio" in diff_artifacts(loaded, load_artifact(other))

    def test_diff_reports_columns_dropped_by_new_run(self, tmp_path):
        old = save_run_artifact(
            _table(), experiment="e1", params={}, seed=1,
            directory=tmp_path,
        )
        new_table = ExperimentTable(
            name="T", description="d", columns=["graph", "n"])
        new_table.add_row(graph="a", n=100)
        new_table.add_row(graph="a2", n=200)
        new = save_run_artifact(
            new_table, experiment="e1", params={}, seed=2,
            directory=tmp_path,
        )
        text = diff_artifacts(load_artifact(old), load_artifact(new))
        # "ratio" exists only in the old run; the diff must surface it.
        assert "ratio" in text

    def test_unknown_schema_version_rejected(self, tmp_path):
        path = save_run_artifact(
            _table(), experiment="e1", params={}, seed=1,
            directory=tmp_path,
        )
        doc = json.loads(path.read_text())
        doc["schema_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ArtifactError, match="schema_version"):
            load_artifact(path)


def _strict_loads(text):
    """json.loads that refuses NaN and Infinity, as jq does."""
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


class TestStrictJson:
    def test_jsonable_maps_non_finite_floats_to_none(self):
        from repro.utils.jsonable import jsonable

        doc = {"a": float("nan"), "b": np.float32("inf"),
               "c": np.array([1.5, -np.inf]), "d": (np.int64(2), True)}
        assert jsonable(doc) == {"a": None, "b": None, "c": [1.5, None],
                                 "d": [2, True]}

    def test_table_json_writes_nan_as_null(self):
        t = ExperimentTable(name="T", description="d", columns=["x"])
        t.add_row(x=float("nan"))
        assert _strict_loads(t.to_json())["rows"] == [{"x": None}]

    # numpy warns that a one-value sample has no std; that NaN is the point.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_one_trial_experiment_prints_and_archives_strict_json(
            self, tmp_path, capsys):
        from repro.cli import main

        # The std of a one-trial sample is NaN.
        assert main(["experiment", "e20", "--trials", "1", "--set",
                     "n_values=500", "--json", "-",
                     "--archive", str(tmp_path)]) == 0
        doc = _strict_loads(capsys.readouterr().out)
        assert doc["rows"][0]["ratio_std"] is None
        (path,) = tmp_path.glob("e20-run-*.json")
        artifact = _strict_loads(path.read_text())
        assert artifact["table"]["rows"][0]["ratio_std"] is None


class TestReportIntegration:
    def test_collect_and_render(self, tmp_path):
        from repro.experiments.report import collect_artifacts, render_report

        save_run_artifact(_table(), experiment="e1", params={}, seed=1,
                          directory=tmp_path)
        (tmp_path / "e1_x.txt").write_text("== T ==\nbody\n")
        docs = collect_artifacts(tmp_path)
        assert len(docs) == 1
        from repro.experiments.report import collect_results

        text = render_report(collect_results(tmp_path), artifacts=docs)
        assert "## Run artifacts" in text
        assert "`e1`" in text

    def test_render_diff_via_cli(self, tmp_path, capsys):
        from repro.cli import main

        a = save_run_artifact(_table(1.5), experiment="e1", params={},
                              seed=1, directory=tmp_path)
        b = save_run_artifact(_table(1.8), experiment="e1", params={},
                              seed=1, directory=tmp_path)
        assert main(["report", "--diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "1.5 → 1.8" in out

    def test_cli_diff_rejects_mismatched_experiments(self, tmp_path, capsys):
        from repro.cli import main

        a = save_run_artifact(_table(), experiment="e1", params={},
                              seed=1, directory=tmp_path)
        b = save_run_artifact(_table(), experiment="e2", params={},
                              seed=1, directory=tmp_path)
        assert main(["report", "--diff", str(a), str(b)]) == 2
