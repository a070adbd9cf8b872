"""Command-line interface tests: sweeps, history round-trip, exit codes."""

import csv
import json

import numpy as np
import pytest

from nlschwarz.cli import emit_history, main, run_point

BASE = {"problem": "diffusion", "subdomains": [2, 2], "hh": 6, "overlap": 2,
        "variant": "hybrid", "coarse": "rgdsw", "modified": True}


def write_config(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestRun:
    def test_single_run(self, tmp_path):
        cfg = dict(BASE, out=str(tmp_path / "out"))
        rc = main(["run", write_config(tmp_path, cfg)])
        assert rc == 0
        records = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert len(records) == 1
        rec = records[0]
        assert rec["converged"]
        assert rec["num_subdomains"] == 4
        assert rec["label"] == f"{rec['total_gmres']} ({rec['outer_iterations']})"
        assert (tmp_path / "out" / rec["history_file"]).exists()

    def test_sweep_isolation(self, tmp_path):
        cfg = dict(BASE, variant=["raspen", "hybrid", "nks"],
                   out=str(tmp_path / "out"))
        rc = main(["run", write_config(tmp_path, cfg)])
        assert rc == 0
        records = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert [r["variant"] for r in records] == ["raspen", "hybrid", "nks"]
        assert all(r["converged"] for r in records)
        files = {r["history_file"] for r in records}
        assert len(files) == 3
        for r in records:
            assert (tmp_path / "out" / r["history_file"]).exists()
        # one-level raspen records no coarse space
        assert records[0]["coarse"] is None

    def test_flag_overrides(self, tmp_path):
        cfg = dict(BASE, out=str(tmp_path / "o1"))
        rc = main(["run", write_config(tmp_path, cfg),
                   "--variant", "aspen", "--subdomains", "2x2",
                   "--hh", "4", "--out", str(tmp_path / "o2")])
        assert rc == 0
        assert not (tmp_path / "o1").exists()
        records = json.loads((tmp_path / "o2" / "summary.json").read_text())
        assert records[0]["variant"] == "aspen"
        assert records[0]["hh"] == 4

    def test_solver_failure_recorded_exit_zero(self, tmp_path):
        cfg = dict(BASE, variant="raspen", out=str(tmp_path / "out"),
                   solver={"outer": {"rel_tol": 1e-15, "abs_tol": 0.0,
                                     "max_iter": 1}})
        rc = main(["run", write_config(tmp_path, cfg)])
        assert rc == 0
        records = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert not records[0]["converged"]
        assert records[0]["reason"]

    def test_failing_point_recorded_sweep_continues(self, tmp_path):
        cfg = dict(BASE, coarse=["bogus", "rgdsw"], out=str(tmp_path / "out"))
        rc = main(["run", write_config(tmp_path, cfg)])
        assert rc == 0
        records = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert len(records) == 2
        assert not records[0]["converged"]
        assert records[0]["reason"] == ("ValueError: unknown coarse space "
                                        "kind 'bogus'")
        assert records[0]["point"]["coarse"] == "bogus"
        assert records[1]["converged"]

    def test_invalid_config_nonzero_exit(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"re": 10.0}))
        assert main(["run", str(path)]) != 0
        path.write_text("not json {")
        assert main(["run", str(path)]) != 0
        assert main(["run", str(tmp_path / "missing.json")]) != 0

    def test_unknown_problem_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"problem": "heat"}))
        assert main(["run", str(path)]) != 0


class TestHistory:
    def test_round_trip(self, tmp_path):
        record, rep = run_point(dict(BASE), {})
        path = tmp_path / "hist.csv"
        emit_history(rep, path)
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
        assert [float(r["rel_residual"]) for r in rows] == rep.residuals
        steps = rows[1:]
        assert [float(r["precond_residual"]) for r in steps] == \
            rep.precond_residuals
        assert [int(r["gmres_its"]) for r in steps] == rep.gmres_iterations
        assert [float(r["inner_avg"]) for r in steps] == rep.inner_iterations
        assert [int(r["coarse_its"]) for r in steps] == rep.coarse_iterations
        assert [int(r["line_search_steps"]) for r in steps] == \
            rep.line_search_steps
        times = ("t_inner", "t_coarse", "t_gmres", "t_other")
        assert [tuple(float(r[c]) for c in times) for r in steps] == \
            rep.timing_history

    def test_row_zero_is_initial_residual(self, tmp_path):
        record, rep = run_point(dict(BASE), {})
        path = tmp_path / "hist.csv"
        emit_history(rep, path)
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
        assert int(rows[0]["iteration"]) == 0
        assert float(rows[0]["rel_residual"]) == 1.0
        assert int(rows[0]["gmres_its"]) == 0
        assert len(rows) == rep.outer_iterations + 1


class TestExportCoarse:
    def test_export(self, tmp_path):
        cfg = dict(BASE, out=str(tmp_path / "out"))
        rc = main(["export-coarse", write_config(tmp_path, cfg),
                   "--entity", "0"])
        assert rc == 0
        path = tmp_path / "out" / "coarse_entity_0.csv"
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) > 0
        vals = np.array([float(r["u"]) for r in rows])
        assert vals.min() >= -1e-12 and vals.max() <= 1.0 + 1e-12
        assert vals.max() > 0.5  # the entity peaks somewhere

    def test_entity_out_of_range(self, tmp_path):
        cfg = dict(BASE, out=str(tmp_path / "out"))
        rc = main(["export-coarse", write_config(tmp_path, cfg),
                   "--entity", "999"])
        assert rc != 0
