"""Command-line interface tests: sweeps, history round-trip, exit codes."""

import argparse
import csv
import json

import numpy as np
import pytest

from nlschwarz import cli
from nlschwarz import coarse as crs
from nlschwarz import mesh as msh
from nlschwarz.cli import HISTORY_COLUMNS, emit_history, main, run_point

SUBDOMAINS_ERROR = ("config key subdomains must be a [px, py] pair of "
                    "positive integers or a non-empty list of such pairs")
VARIANT_ERROR = ("config key variant must be one of aspen, raspen, additive, "
                 "hybrid, nks or a non-empty list of such")
COARSE_ERROR = ("config key coarse must be one of gdsw, rgdsw, msfem or a "
                "non-empty list of such")
RE_ERROR = ("config key re must be a finite number above 0 or a non-empty "
            "list of such")
FY_ERROR = "config key fy must be a finite number or a non-empty list of such"

BASE = {"problem": "diffusion", "subdomains": [2, 2], "hh": 6, "overlap": 2,
        "variant": "hybrid", "coarse": "rgdsw", "modified": True}


def write_config(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def unread(key):
    return f"config key {key} is read by no point of the sweep"


# for each config key that only some points read: the settings of a sweep
# whose every point leaves it unread, and of the smallest sweep in which one
# point reads it; both are laid over SWEEP, which sets no such key
SWEEP = {"problem": "diffusion", "subdomains": [2, 2], "hh": 4}
UNREAD_AND_READ = {
    "re": ({"re": 100}, {"problem": "ldc", "re": 100}),
    "fy": ({"problem": "ldc", "fy": 1.0}, {"problem": "beam", "fy": 1.0}),
    "coefficient": ({"problem": "ldc", "coefficient": "constant"},
                    {"coefficient": "constant"}),
    "coarse": ({"variant": "raspen", "coarse": "gdsw"},
               {"variant": ["raspen", "hybrid"], "coarse": "gdsw"}),
    "modified": ({"variant": ["raspen", "hybrid"], "coarse": "gdsw",
                  "modified": True},
                 {"coarse": ["gdsw", "rgdsw"], "modified": True}),
    "tangent": ({"variant": "nks", "tangent": "aspin"},
                {"variant": ["nks", "raspen"], "tangent": "aspin"}),
    "solver.inner": ({"variant": "nks", "solver": {"inner": {"max_iter": 1}}},
                     {"variant": ["nks", "aspen"],
                      "solver": {"inner": {"max_iter": 1}}}),
    "solver.coarse": ({"variant": ["raspen", "nks"],
                       "solver": {"coarse": {"max_iter": 1}}},
                      {"variant": ["nks", "additive"],
                       "solver": {"coarse": {"max_iter": 1}}}),
}


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
                   "--variant", "additive", "--subdomains", "2x2",
                   "--hh", "4", "--out", str(tmp_path / "o2")])
        assert rc == 0
        assert not (tmp_path / "o1").exists()
        records = json.loads((tmp_path / "o2" / "summary.json").read_text())
        assert records[0]["variant"] == "additive"
        assert records[0]["hh"] == 4

    def test_solver_failure_recorded_exit_zero(self, tmp_path):
        cfg = dict(BASE, variant="raspen", out=str(tmp_path / "out"),
                   solver={"outer": {"rel_tol": 1e-15, "abs_tol": 0.0,
                                     "max_iter": 1}})
        del cfg["coarse"], cfg["modified"]
        rc = main(["run", write_config(tmp_path, cfg)])
        assert rc == 0
        records = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert not records[0]["converged"]
        assert records[0]["reason"]

    def test_failing_point_recorded_sweep_continues(self, tmp_path):
        cfg = dict(BASE, subdomains=[[1, 1], [2, 2]],
                   out=str(tmp_path / "out"))
        rc = main(["run", write_config(tmp_path, cfg)])
        assert rc == 0
        records = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert len(records) == 2
        assert not records[0]["converged"]
        assert records[0]["reason"] == (
            "ValueError: no coarse column: the decomposition has no "
            "interface off the Dirichlet boundary")
        assert records[0]["point"]["subdomains"] == [1, 1]
        assert records[1]["converged"]

    @pytest.mark.parametrize("variants,coarse,points", [
        (["raspen", "aspen"], ["gdsw", "rgdsw", "msfem"], None),
        (["raspen", "hybrid"], ["gdsw", "rgdsw"],
         [("raspen", None), ("hybrid", "gdsw"), ("hybrid", "rgdsw")])],
        ids=["one-level", "mixed"])
    def test_one_level_points_not_multiplied_by_coarse(self, tmp_path, capsys,
                                                       variants, coarse,
                                                       points):
        """A one-level point has no coarse space, so the coarse values
        give it no further points, and a sweep of one-level points only
        reads none of them."""
        cfg = dict(BASE, variant=variants, coarse=coarse, modified=False,
                   hh=4, out=str(tmp_path / "out"))
        if points is None:
            assert main(["run", write_config(tmp_path, cfg)]) == 2
            assert capsys.readouterr().err == f"error: {unread('coarse')}\n"
            return
        assert main(["run", write_config(tmp_path, cfg)]) == 0
        records = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert [(r["variant"], r["coarse"]) for r in records] == points
        assert all(r["converged"] for r in records)
        assert all("coarse" not in r["point"]
                   for r in records if r["coarse"] is None)

    @pytest.mark.parametrize("tangent", ["exact", "aspin"])
    def test_record_names_tangent(self, tmp_path, tangent):
        """Each point's record names its tangent mode, and an NKS point,
        which reads none, records None; a sweep that mixes NKS with a
        nonlinear Schwarz variant runs both."""
        cfg = dict(BASE, variant=["raspen", "nks"], tangent=tangent, hh=4,
                   out=str(tmp_path / "out"))
        assert main(["run", write_config(tmp_path, cfg)]) == 0
        records = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert [(r["variant"], r["tangent"]) for r in records] == [
            ("raspen", tangent), ("nks", None)]
        assert all(r["converged"] for r in records)

    @pytest.mark.parametrize("variant", ["hybrid", "nks"])
    def test_one_subdomain_recorded(self, tmp_path, capfd, variant):
        """A single subdomain has no coarse space: the point fails with that
        reason before any factorization of an empty coarse matrix."""
        cfg = dict(BASE, subdomains=[1, 1], variant=variant,
                   out=str(tmp_path / "out"))
        assert main(["run", write_config(tmp_path, cfg)]) == 0
        records = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert not records[0]["converged"]
        assert records[0]["reason"] == (
            "ValueError: no coarse column: the decomposition has no "
            "interface off the Dirichlet boundary")
        assert "DGETRF" not in capfd.readouterr().out

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

    @pytest.mark.parametrize("value", ["2by2", "0x2", "2x0", "2x", "x2", "2",
                                       "-1x2", "2x2x2"])
    def test_malformed_subdomains_is_config_error(self, tmp_path, capsys,
                                                  value):
        cfg = dict(BASE, out=str(tmp_path / "out"))
        assert main(["run", write_config(tmp_path, cfg),
                     f"--subdomains={value}"]) == 2
        assert capsys.readouterr().err.startswith("error: --subdomains")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("extra,error", [
        ({"subdomain": [3, 3]}, "unknown config keys: subdomain"),
        ({"domain": [0.0, 2.0, 0.0, 1.0]}, "unknown config keys: domain"),
        ({"seed": 1}, "unknown config keys: seed"),
        ({"solver": {"gmress": {"restart": 10}}},
         "unknown config keys: solver.gmress"),
        ({"solver": {"outer": {"tol": 1e-3}}},
         "unknown config keys: solver.outer.tol"),
        ({"solver": {"outer": 5}}, "config key solver must map each level"),
        ({"solver": 5}, "config key solver must map each level"),
        ({"solver": {"gmres": {"max_iter": 0}}},
         "solver.gmres.max_iter must be an integer of at least 1, got 0"),
        ({"solver": {"gmres": {"max_iter": None}}},
         "solver.gmres.max_iter must be an integer of at least 1, got None"),
        ({"solver": {"gmres": {"restart": -1}}},
         "solver.gmres.restart must be an integer of at least 0, got -1"),
        ({"subdomains": 4}, SUBDOMAINS_ERROR + ", got 4"),
        ({"subdomains": []}, SUBDOMAINS_ERROR + ", got []"),
        ({"subdomains": [[2, 2], [2, 0]]},
         SUBDOMAINS_ERROR + ", got [[2, 2], [2, 0]]"),
        ({"subdomains": [2, True]}, SUBDOMAINS_ERROR + ", got [2, True]"),
        ({"subdomains": [2, 2, 2]}, SUBDOMAINS_ERROR + ", got [2, 2, 2]"),
        ({"variant": []}, VARIANT_ERROR + ", got []"),
        ({"coarse": []}, COARSE_ERROR + ", got []"),
        ({"re": []}, RE_ERROR + ", got []"),
        ({"variant": "bogus"}, VARIANT_ERROR + ", got 'bogus'"),
        ({"variant": ["hybrid", "bogus"]},
         VARIANT_ERROR + ", got ['hybrid', 'bogus']"),
        ({"variant": "aspen", "coarse": "bogus"},
         COARSE_ERROR + ", got 'bogus'"),
        ({"variant": ["raspen", "aspen"], "coarse": ["rgdsw", "bogus"]},
         COARSE_ERROR + ", got ['rgdsw', 'bogus']"),
        ({"variant": "nks", "tangent": "bogus"},
         "config key tangent must be one of exact, aspin, got 'bogus'"),
        ({"coefficient": "bogus"},
         "config key coefficient must be one of constant, nonlinear, "
         "got 'bogus'"),
        ({"coefficient": ["constant", "nonlinear"]},
         "config key coefficient must be one of constant, nonlinear, "
         "got ['constant', 'nonlinear']"),
        ({"out": 5}, "config key out must be a string, got 5"),
        ({"problem": "ldc", "re": -5}, RE_ERROR + ", got -5"),
        ({"problem": "ldc", "re": 0}, RE_ERROR + ", got 0"),
        ({"problem": "ldc", "re": "abc"}, RE_ERROR + ", got 'abc'"),
        ({"problem": "ldc", "re": [100, float("inf")]},
         RE_ERROR + ", got [100, inf]"),
        ({"problem": "beam", "fy": float("nan")}, FY_ERROR + ", got nan"),
        ({"problem": "beam", "fy": [1.0, "x"]}, FY_ERROR + ", got [1.0, 'x']"),
        ({"solver": {"gmres": {"rel_tol": -1}}},
         "solver.gmres.rel_tol must be a finite number of at least 0, got -1"),
        ({"solver": {"outer": {"rel_tol": "x"}}},
         "solver.outer.rel_tol must be a finite number of at least 0, "
         "got 'x'"),
        ({"solver": {"outer": {"abs_tol": float("nan")}}},
         "solver.outer.abs_tol must be a finite number of at least 0, "
         "got nan"),
        ({"solver": {"coarse": {"rel_tol": True}}},
         "solver.coarse.rel_tol must be a finite number of at least 0, "
         "got True"),
        ({"solver": {"inner": {"max_iter": 0}}},
         "solver.inner.max_iter must be an integer of at least 1, got 0"),
        ({"solver": {"outer": {"max_iter": 2.5}}},
         "solver.outer.max_iter must be an integer of at least 1, got 2.5"),
        ({"solver": {"inner": {"line_search": "yes"}}},
         "solver.inner.line_search must be a bool, got 'yes'"),
        ({"modified": "false"},
         "config key modified must be a bool, got 'false'"),
        ({"hh": 3.9}, "config key hh must be an integer of at least 1, got 3.9"),
        ({"hh": True},
         "config key hh must be an integer of at least 1, got True"),
        ({"overlap": True},
         "config key overlap must be an integer of at least 0, got True"),
        ({"overlap": -1},
         "config key overlap must be an integer of at least 0, got -1"),
        ({"re": [100, 400]}, unread("re")),
        ({"fy": 1.0}, unread("fy")),
        ({"problem": "ldc", "coefficient": "constant"}, unread("coefficient")),
        ({"variant": "nks", "tangent": "aspin"}, unread("tangent")),
        ({"variant": ["nks"], "tangent": "exact"}, unread("tangent")),
        ({"coarse": "gdsw"}, unread("modified"))],
        ids=["subdomain", "domain", "seed", "solver.gmress", "solver.outer.tol",
             "solver.outer-number", "solver-number", "gmres.max_iter-0",
             "gmres.max_iter-null", "gmres.restart-negative",
             "subdomains-number", "subdomains-empty", "subdomains-zero",
             "subdomains-bool", "subdomains-triple", "variant-empty",
             "coarse-empty", "re-empty", "variant-bogus", "variant-list-bogus",
             "coarse-bogus-aspen", "coarse-list-bogus-raspen",
             "tangent-bogus-nks", "coefficient-bogus", "coefficient-list",
             "out-number", "re-negative", "re-zero", "re-string",
             "re-list-inf", "fy-nan", "fy-list-string",
             "gmres.rel_tol-negative",
             "outer.rel_tol-string", "outer.abs_tol-nan", "coarse.rel_tol-bool",
             "inner.max_iter-0", "outer.max_iter-float",
             "inner.line_search-string", "modified-string", "hh-float",
             "hh-bool", "overlap-bool", "overlap-negative", "re-diffusion",
             "fy-diffusion", "coefficient-ldc", "tangent-aspin-nks",
             "tangent-exact-nks-list", "modified-gdsw-hybrid"])
    def test_unknown_key_is_config_error(self, tmp_path, capsys, extra, error):
        cfg = {**BASE, "out": str(tmp_path / "out"), **extra}
        assert main(["run", write_config(tmp_path, cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {error}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", UNREAD_AND_READ)
    def test_key_read_by_no_point_is_config_error(self, tmp_path, capsys,
                                                  key):
        """A key that no point of the sweep reads ends the command at load,
        before the output directory is made."""
        cfg = {**SWEEP, "out": str(tmp_path / "out"),
               **UNREAD_AND_READ[key][0]}
        assert main(["run", write_config(tmp_path, cfg)]) == 2
        assert capsys.readouterr().err == f"error: {unread(key)}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", UNREAD_AND_READ)
    def test_key_read_by_one_point_is_accepted(self, tmp_path, key):
        path = write_config(tmp_path, {**SWEEP, **UNREAD_AND_READ[key][1]})
        cfg = cli._load_config(path, argparse.Namespace())
        cli._check_points(cfg)

    @pytest.mark.parametrize("flag", ["--coarse=gdsw", "--modified"])
    def test_flag_read_by_no_point_is_config_error(self, tmp_path, capsys,
                                                   flag):
        cfg = dict(SWEEP, variant="raspen", out=str(tmp_path / "out"))
        assert main(["run", write_config(tmp_path, cfg), flag]) == 2
        key = flag[2:].split("=")[0]
        assert capsys.readouterr().err == f"error: {unread(key)}\n"
        assert not (tmp_path / "out").exists()

    def test_modified_gdsw_nks_sweep_runs(self, tmp_path):
        """`modified` is read at the NKS point with rgdsw, not at the
        raspen point nor at the gdsw one, which record None."""
        cfg = dict(BASE, variant=["raspen", "nks"], coarse=["rgdsw", "gdsw"],
                   hh=4, out=str(tmp_path / "out"))
        assert main(["run", write_config(tmp_path, cfg)]) == 0
        records = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert [(r["variant"], r["coarse"], r["modified"]) for r in records] \
            == [("raspen", None, None), ("nks", "rgdsw", True),
                ("nks", "gdsw", None)]
        assert all(r["converged"] for r in records)

    def test_beam_gdsw_runs_unmodified(self, tmp_path):
        """The beam modifies its reduced coarse spaces by default; gdsw does
        not read that, so one config sweeps the beam over all three coarse
        spaces and its gdsw point builds the plain space."""
        cfg = {"problem": "beam", "subdomains": [2, 2], "hh": 4, "fy": 1000,
               "variant": ["raspen", "hybrid"],
               "coarse": ["msfem", "rgdsw", "gdsw"],
               "out": str(tmp_path / "out")}
        assert main(["run", write_config(tmp_path, cfg)]) == 0
        records = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert [(r["variant"], r["coarse"], r["modified"]) for r in records] \
            == [("raspen", None, None), ("hybrid", "msfem", True),
                ("hybrid", "rgdsw", True), ("hybrid", "gdsw", None)]
        assert all(r["converged"] for r in records)

    @pytest.mark.parametrize("problem,key,value", [
        ("ldc", "re", 100.0), ("beam", "fy", 1.0),
        ("diffusion", "coefficient", "nonlinear")])
    def test_record_names_problem_key(self, problem, key, value):
        """Each record holds the key its problem reads, and None for the
        other problems' keys."""
        record, _ = run_point({"problem": problem, "subdomains": [2, 2],
                               "hh": 4, "variant": "raspen"}, {})
        assert {k: record[k] for k in ("re", "fy", "coefficient")} == {
            k: value if k == key else None
            for k in ("re", "fy", "coefficient")}

    @pytest.mark.parametrize("cfg", [5, [1, 2], "ldc", None],
                             ids=["number", "list", "string", "null"])
    def test_non_object_config_is_config_error(self, tmp_path, capsys, cfg):
        assert main(["run", write_config(tmp_path, cfg)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: config must be a JSON object")

    @pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5"])
    def test_malformed_workers_is_an_error(self, tmp_path, capsys,
                                           monkeypatch, value):
        monkeypatch.setenv("NLSCHWARZ_WORKERS", value)
        cfg = dict(BASE, out=str(tmp_path / "out"))
        assert main(["run", write_config(tmp_path, cfg)]) == 2
        assert capsys.readouterr().err == (
            "error: NLSCHWARZ_WORKERS must be a positive integer, "
            f"got {value!r}\n")
        assert not (tmp_path / "out").exists()


def read_history(rep, tmp_path):
    path = tmp_path / "hist.csv"
    emit_history(rep, path)
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        rows = list(reader)
    assert reader.fieldnames == HISTORY_COLUMNS
    return rows


class TestHistory:
    def test_round_trip(self, tmp_path):
        record, rep = run_point(dict(BASE), {})
        rows = read_history(rep, tmp_path)
        assert [float(r["rel_residual"]) for r in rows] == rep.residuals
        steps = rows[1:]
        assert len(steps) == len(rep.steps)
        for r, st in zip(steps, rep.steps):
            assert float(r["precond_residual"]) == st.precond_residual
            assert int(r["gmres_its"]) == st.gmres_its
            assert float(r["inner_avg"]) == st.inner_avg
            assert int(r["coarse_its"]) == st.coarse_its
            assert int(r["line_search_steps"]) == st.line_search_steps
            for c in ("t_inner", "t_coarse", "t_gmres", "t_other"):
                assert float(r[c]) == getattr(st, c)
            assert r["gmres_converged"] == str(st.gmres_converged)
            assert r["corrections_converged"] == \
                str(st.corrections_converged)

    def test_nks_precond_cells_empty(self, tmp_path):
        record, rep = run_point(dict(BASE, variant="nks"), {})
        rows = read_history(rep, tmp_path)
        assert len(rows) == rep.outer_iterations + 1 > 1
        assert [r["precond_residual"] for r in rows] == [""] * len(rows)

    def test_row_zero_is_initial_residual(self, tmp_path):
        record, rep = run_point(dict(BASE), {})
        rows = read_history(rep, tmp_path)
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

    @pytest.mark.parametrize("cfg", [
        dict(BASE, coarse="gdsw"),
        {"problem": "ldc", "subdomains": [2, 1], "hh": 4, "coarse": "rgdsw"},
        dict(BASE, subdomains=[1, 1])],
        ids=["gdsw-modified", "ldc-rgdsw-2x1", "one-subdomain"])
    def test_unbuildable_coarse_space_exits_2(self, tmp_path, capsys, cfg):
        cfg = dict(cfg, out=str(tmp_path / "out"))
        assert main(["export-coarse", write_config(tmp_path, cfg),
                     "--entity", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        cfg = dict(BASE, subdomains=4, out=str(tmp_path / "out"))
        assert main(["export-coarse", write_config(tmp_path, cfg),
                     "--entity", "0"]) == 2
        assert capsys.readouterr().err == (
            f"error: {SUBDOMAINS_ERROR}, got 4\n")
        assert not (tmp_path / "out").exists()

    def test_sweep_of_many_points_exits_2(self, tmp_path, capsys):
        """The export writes one point's entity; a sweep of four ends it
        with the swept keys named, before its output exists."""
        cfg = {"problem": "diffusion", "subdomains": [[2, 2], [3, 3]],
               "hh": 4, "coarse": ["gdsw", "rgdsw"],
               "out": str(tmp_path / "out")}
        assert main(["export-coarse", write_config(tmp_path, cfg),
                     "--entity", "0"]) == 2
        assert capsys.readouterr().err == (
            "error: export-coarse exports one point, but the sweep has 4: "
            "it sweeps coarse, subdomains\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cfg", [
        dict(BASE, variant="raspen"),
        {"problem": "beam", "subdomains": [4, 1], "hh": 4, "coarse": "gdsw"}],
        ids=["one-level", "beam-gdsw"])
    def test_exports(self, tmp_path, cfg):
        """The export reads a config as hybrid: a one-level config exports
        its coarse values, and the beam's gdsw space is built unmodified."""
        cfg = dict(cfg, out=str(tmp_path / "out"))
        assert main(["export-coarse", write_config(tmp_path, cfg),
                     "--entity", "0"]) == 0
        assert (tmp_path / "out" / "coarse_entity_0.csv").exists()

    def test_beam_modes_write_both_components(self, tmp_path):
        cfg = {"problem": "beam", "subdomains": [4, 1], "hh": 4,
               "out": str(tmp_path / "out")}
        rc = main(["export-coarse", write_config(tmp_path, cfg),
                   "--entity", "0"])
        assert rc == 0
        with open(tmp_path / "out" / "coarse_entity_0.csv", newline="") as f:
            reader = csv.DictReader(f)
            rows = list(reader)
        assert reader.fieldnames == ["node", "x", "y", "tx_ux", "tx_uy",
                                     "ty_ux", "ty_uy", "rot_ux", "rot_uy"]
        prob, mesh, dofmap, px, py = cli._build_case(cfg, {})
        dec = cli._decompose(mesh, px, py, 2, nks=False)
        ent = crs.interface_functions(mesh, msh.interface_skeleton(dec, mesh),
                                      "msfem", modified=True)[0]
        anchor = rows[ent.anchor]
        assert int(anchor["node"]) == ent.anchor
        assert float(anchor["tx_ux"]) == float(anchor["ty_uy"]) == 1.0
        assert float(anchor["tx_uy"]) == float(anchor["ty_ux"]) == 0.0
