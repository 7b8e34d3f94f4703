"""Tests for the sweep subsystem: grid planning, content-hash cell ids,
resumable execution, manifest bookkeeping, and failure isolation."""

import json

import pytest

from repro.cli import main
from repro.experiments.artifacts import load_artifact
from repro.sweep import (
    GridCell,
    GridError,
    ManifestError,
    SweepResult,
    build_manifest,
    cell_artifact_path,
    load_manifest,
    plan_grid,
    run_sweep,
    save_manifest,
)

TINY_E1 = ["n_values=200", "k_values=2", "n_trials=1"]


def _tiny_cells(extra=(), seeds=None):
    return plan_grid(["e1"], TINY_E1 + list(extra), seeds)


class TestGridPlanning:
    def test_cross_product_counts(self):
        cells = plan_grid(
            ["e1"], ["n_values=200,400", "k_values=2,4", "n_trials=1"],
            seeds=[0, 1])
        assert len(cells) == 2 * 2 * 2
        assert len({c.cell_id for c in cells}) == len(cells)

    def test_values_coerced_like_single_run_cli(self):
        (cell,) = _tiny_cells()
        overrides = cell.overrides_dict()
        # Tuple-typed params get one-element tuples, ints stay ints.
        assert overrides["n_values"] == (200,)
        assert overrides["k_values"] == (2,)
        assert overrides["n_trials"] == 1

    def test_semicolon_builds_tuple_axis_values(self):
        (cell,) = plan_grid(
            ["e1"], ["n_values=200;400", "k_values=2", "n_trials=1"])
        assert cell.overrides_dict()["n_values"] == (200, 400)

    def test_cell_id_stable_across_set_order(self):
        a = plan_grid(["e1"], TINY_E1)
        b = plan_grid(["e1"], list(reversed(TINY_E1)))
        assert {c.cell_id for c in a} == {c.cell_id for c in b}

    def test_cell_id_sensitive_to_every_input(self):
        base = _tiny_cells()[0]
        other_seed = _tiny_cells(seeds=[7])[0]
        other_value = plan_grid(
            ["e1"], ["n_values=400", "k_values=2", "n_trials=1"])[0]
        other_exp = plan_grid(["e8"], ["n=200", "n_trials=1"])[0]
        ids = {base.cell_id, other_seed.cell_id, other_value.cell_id,
               other_exp.cell_id}
        assert len(ids) == 4
        # Non-finite values keep ids of their own, though strict JSON
        # writes each of them as null.
        tails = plan_grid(["e20"], ["ratio_threshold=inf,-inf,nan,1.5",
                                    "n_trials=1"])
        assert len({c.cell_id for c in tails}) == 4

    def test_qualified_axis_scopes_to_one_experiment(self):
        cells = plan_grid(
            ["e1", "e8"],
            ["n_trials=1", "e1.n_values=200", "e1.k_values=2", "e8.n=200"])
        by_exp = {c.experiment: c.overrides_dict() for c in cells}
        assert len(cells) == 2
        assert by_exp["e1"]["n_values"] == (200,)
        assert "n_values" not in by_exp["e8"]
        assert by_exp["e8"]["n"] == 200

    def test_qualifier_outside_sweep_rejected(self):
        with pytest.raises(GridError, match="not part of this sweep"):
            plan_grid(["e1"], ["e8.n=200"])

    def test_unqualified_key_must_exist_everywhere(self):
        # n_values is an E1 parameter only; applying it sweep-wide to
        # e1+e8 must fail loudly instead of silently shrinking the grid.
        with pytest.raises(GridError, match="no parameter"):
            plan_grid(["e1", "e8"], ["n_values=200"])

    def test_unknown_parameter_rejected(self):
        with pytest.raises(GridError, match="bogus"):
            plan_grid(["e1"], ["bogus=1"])

    def test_bad_value_rejected(self):
        with pytest.raises(GridError, match="bad value"):
            plan_grid(["e1"], ["k_values=nope"])

    def test_malformed_set_rejected(self):
        with pytest.raises(GridError, match="KEY=VALUE"):
            plan_grid(["e1"], ["n_values"])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(GridError, match="unknown experiment"):
            plan_grid(["e99"], [])

    def test_duplicate_experiment_rejected(self):
        with pytest.raises(GridError, match="twice"):
            plan_grid(["e1", "e1"], [])

    def test_duplicate_seed_rejected(self):
        with pytest.raises(GridError, match="duplicate seed"):
            plan_grid(["e1"], TINY_E1, seeds=[3, 3])

    def test_no_axes_is_one_default_cell(self):
        cells = plan_grid(["e1"], [])
        assert len(cells) == 1
        assert cells[0].overrides == ()
        assert cells[0].seed is None


class TestManifest:
    def _record(self, cell_id="abc", status="done"):
        return {"cell_id": cell_id, "experiment": "e1", "overrides": {},
                "seed": None, "status": status, "artifact": None,
                "error": None, "wall_time_s": 0.1}

    def test_round_trip(self, tmp_path):
        doc = build_manifest([self._record()], grid={"experiments": ["e1"]})
        path = save_manifest(doc, tmp_path / "manifest.json")
        loaded = load_manifest(path)
        assert loaded["kind"] == "sweep_manifest"
        assert loaded["counts"] == {"done": 1}
        assert loaded["cells"][0]["cell_id"] == "abc"
        assert "git_commit" in loaded and "created_at" in loaded

    def test_merge_keeps_cells_outside_current_grid(self):
        previous = build_manifest(
            [self._record("old", "done")], grid={})
        doc = build_manifest([self._record("new", "failed")], grid={},
                             previous=previous)
        assert {c["cell_id"] for c in doc["cells"]} == {"old", "new"}
        assert doc["counts"] == {"done": 1, "failed": 1}

    def test_merge_replaces_rerun_cells(self):
        previous = build_manifest([self._record("x", "failed")], grid={})
        doc = build_manifest([self._record("x", "done")], grid={},
                             previous=previous)
        assert [c["status"] for c in doc["cells"]] == ["done"]

    def test_unknown_schema_version_rejected(self, tmp_path):
        doc = build_manifest([], grid={})
        doc["schema_version"] = 99
        path = save_manifest(doc, tmp_path / "m.json")
        with pytest.raises(ManifestError, match="schema_version"):
            load_manifest(path)

    def test_malformed_rejected(self, tmp_path):
        bad = tmp_path / "m.json"
        bad.write_text("truncated {")
        with pytest.raises(ManifestError, match="cannot read"):
            load_manifest(bad)
        bad.write_text('{"kind": "something_else", "schema_version": 1}')
        with pytest.raises(ManifestError, match="not a sweep manifest"):
            load_manifest(bad)


class TestRunner:
    def test_first_run_executes_everything(self, tmp_path):
        cells = _tiny_cells()
        result = run_sweep(cells, tmp_path)
        assert isinstance(result, SweepResult)
        assert result.exit_code == 0
        assert len(result.done) == 1 and not result.skipped
        artifact = cell_artifact_path(tmp_path, cells[0])
        assert artifact.exists()
        doc = load_artifact(artifact)
        assert doc["sweep_cell"]["cell_id"] == cells[0].cell_id
        assert doc["experiment"] == "e1"
        manifest = load_manifest(result.manifest_path)
        (entry,) = manifest["cells"]
        assert entry["status"] == "done"
        assert entry["artifact"] == f"cells/{artifact.name}"
        assert entry["wall_time_s"] > 0

    def test_rerun_executes_zero_cells(self, tmp_path):
        cells = _tiny_cells()
        run_sweep(cells, tmp_path)
        again = run_sweep(cells, tmp_path)
        assert again.executed == []
        assert len(again.skipped) == len(cells)
        assert again.exit_code == 0
        assert load_manifest(again.manifest_path)["counts"] == {"skipped": 1}

    def test_deleted_cell_reruns_bit_identical(self, tmp_path):
        cells = plan_grid(
            ["e1"], ["n_values=200", "k_values=2,4", "n_trials=2"],
            seeds=[5])
        run_sweep(cells, tmp_path)
        paths = [cell_artifact_path(tmp_path, c) for c in cells]
        first_pass = [json.loads(p.read_text()) for p in paths]
        paths[0].unlink()

        again = run_sweep(cells, tmp_path)
        # Exactly the deleted cell re-executed; its twin stayed cached.
        assert [r["cell_id"] for r in again.executed] == [cells[0].cell_id]
        assert [r["cell_id"] for r in again.skipped] == [cells[1].cell_id]
        second = json.loads(paths[0].read_text())
        # Bit-identical per seed: everything except the wall-clock stamp.
        for key in ("table", "per_trial", "seed", "params", "sweep_cell"):
            assert second[key] == first_pass[0][key], key

    def test_corrupt_artifact_self_heals(self, tmp_path):
        cells = _tiny_cells()
        run_sweep(cells, tmp_path)
        path = cell_artifact_path(tmp_path, cells[0])
        path.write_text(path.read_text()[:40])  # truncate mid-document
        again = run_sweep(cells, tmp_path)
        assert len(again.done) == 1 and not again.skipped
        assert load_artifact(path)["experiment"] == "e1"

    def test_force_reruns_cached_cells(self, tmp_path):
        cells = _tiny_cells()
        run_sweep(cells, tmp_path)
        again = run_sweep(cells, tmp_path, force=True)
        assert len(again.done) == 1 and not again.skipped

    def test_failing_cell_isolated(self, tmp_path):
        # n_trials=0 raises inside run_trials: the cell must fail alone.
        cells = plan_grid(
            ["e1"], ["n_values=200", "k_values=2", "n_trials=0,1"])
        result = run_sweep(cells, tmp_path)
        assert result.exit_code == 1
        assert len(result.failed) == 1 and len(result.done) == 1
        (failure,) = result.failed
        assert "ValueError" in failure["error"]
        assert failure["artifact"] is None
        # The failed cell left no artifact, so a rerun retries exactly it
        # (and fails again: same inputs), while the good cell is cached.
        again = run_sweep(cells, tmp_path)
        assert [r["cell_id"] for r in again.executed] == [failure["cell_id"]]
        assert len(again.skipped) == 1
        statuses = {c["cell_id"]: c["status"]
                    for c in load_manifest(result.manifest_path)["cells"]}
        assert sorted(statuses.values()) == ["failed", "skipped"]

    @staticmethod
    def _flaky_runs(monkeypatch, fail_first):
        """Patch ExperimentSpec.run to raise on the first N calls."""
        from repro.experiments.registry import get_experiment

        spec_cls = type(get_experiment("e1"))
        real_run = spec_cls.run
        calls = {"n": 0}

        def run(self, **kwargs):
            calls["n"] += 1
            if calls["n"] <= fail_first:
                raise RuntimeError(f"transient fault #{calls['n']}")
            return real_run(self, **kwargs)

        monkeypatch.setattr(spec_cls, "run", run)
        return calls

    def test_retry_failed_recovers_a_transient_fault(self, tmp_path,
                                                     monkeypatch):
        calls = self._flaky_runs(monkeypatch, fail_first=1)
        result = run_sweep(_tiny_cells(), tmp_path, executor="serial",
                           retry_failed=2)
        assert result.exit_code == 0
        (record,) = result.executed
        assert record["status"] == "done"
        assert record["attempts"] == 2  # one raise, one success — not 3
        assert record["error"] is None
        assert calls["n"] == 2
        assert (tmp_path / record["artifact"]).exists()
        # The attempt count flows into the manifest verbatim.
        (entry,) = load_manifest(result.manifest_path)["cells"]
        assert entry["attempts"] == 2 and entry["status"] == "done"

    def test_retry_failed_exhausted_records_the_last_error(
            self, tmp_path, monkeypatch):
        self._flaky_runs(monkeypatch, fail_first=99)  # never recovers
        result = run_sweep(_tiny_cells(), tmp_path, executor="serial",
                           retry_failed=1)
        assert result.exit_code == 1
        (record,) = result.executed
        assert record["status"] == "failed"
        assert record["attempts"] == 2  # the initial run + 1 retry
        assert "transient fault #2" in record["error"]  # last, not first
        assert record["artifact"] is None

    def test_default_is_a_single_attempt(self, tmp_path, monkeypatch):
        calls = self._flaky_runs(monkeypatch, fail_first=1)
        result = run_sweep(_tiny_cells(), tmp_path, executor="serial")
        assert result.exit_code == 1
        (record,) = result.executed
        assert record["attempts"] == 1
        assert calls["n"] == 1
        # ...and cached cells report attempts=0 on resume (nothing ran).
        again = run_sweep(_tiny_cells(), tmp_path, executor="serial",
                          retry_failed=2)
        assert again.exit_code == 0
        assert again.done[0]["attempts"] == 1  # recovered on first try
        cached = run_sweep(_tiny_cells(), tmp_path, executor="serial")
        assert cached.skipped[0]["attempts"] == 0

    def test_negative_retry_failed_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="retry_failed"):
            run_sweep(_tiny_cells(), tmp_path, retry_failed=-1)

    def test_manifest_accumulates_across_grids(self, tmp_path):
        run_sweep(_tiny_cells(), tmp_path)
        second = plan_grid(
            ["e1"], ["n_values=200", "k_values=4", "n_trials=1"])
        result = run_sweep(second, tmp_path)
        manifest = load_manifest(result.manifest_path)
        assert len(manifest["cells"]) == 2  # old cell retained, new added

    def test_processes_backend_bit_identical_to_serial(self, tmp_path):
        cells = plan_grid(
            ["e1"], ["n_values=200", "k_values=2,4", "n_trials=2"])
        run_sweep(cells, tmp_path / "serial", executor="serial")
        run_sweep(cells, tmp_path / "procs", executor="processes")
        for cell in cells:
            a = json.loads(
                cell_artifact_path(tmp_path / "serial", cell).read_text())
            b = json.loads(
                cell_artifact_path(tmp_path / "procs", cell).read_text())
            for key in ("table", "per_trial", "seed", "params"):
                assert a[key] == b[key], (cell.cell_id, key)


class TestSweepCLI:
    ARGS = ["sweep", "e1", "--set", "n_values=200", "--set", "k_values=2",
            "--set", "n_trials=1"]

    def test_run_then_resume(self, tmp_path, capsys):
        assert main(self.ARGS + ["--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "1 executed, 0 skipped" in out
        assert main(self.ARGS + ["--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "0 executed, 1 skipped" in out

    def test_dry_run_executes_nothing(self, tmp_path, capsys):
        assert main(self.ARGS + ["--dir", str(tmp_path), "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "1 cells planned" in out
        assert not (tmp_path / "manifest.json").exists()

    def test_failed_cell_exits_nonzero(self, tmp_path, capsys):
        assert main(["sweep", "e1", "--set", "n_values=200",
                     "--set", "k_values=2", "--set", "n_trials=0",
                     "--dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "1 failed" in out and "ValueError" in out

    def test_retry_failed_flag_rides_through(self, tmp_path, capsys,
                                             monkeypatch):
        TestRunner._flaky_runs(monkeypatch, fail_first=1)
        assert main(self.ARGS + ["--dir", str(tmp_path),
                                 "--retry-failed", "2"]) == 0
        out = capsys.readouterr().out
        assert "1 executed" in out and "0 failed" in out

    def test_negative_retry_failed_exits_2(self, tmp_path, capsys):
        assert main(self.ARGS + ["--dir", str(tmp_path),
                                 "--retry-failed", "-1"]) == 2
        assert "--retry-failed" in capsys.readouterr().err

    def test_bad_inputs_exit_2(self, tmp_path, capsys):
        base = ["--dir", str(tmp_path)]
        assert main(["sweep", "e99"] + base) == 2
        assert main(["sweep", "e1", "--set", "bogus=1"] + base) == 2
        assert main(["sweep", "e1", "--seeds", "x"] + base) == 2
        assert main(["sweep", "e1", "--seeds", ","] + base) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err and "bogus" in err
