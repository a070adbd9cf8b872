"""Outer Newton driver tests for nonlinear Schwarz and NKS."""

import numpy as np
import pytest

from nlschwarz import assembly as asm
from nlschwarz import cli
from nlschwarz import coarse as crs
from nlschwarz import mesh as msh
from nlschwarz.outer import (GmresParams, SolverConfig, beam_config,
                             ldc_config, solve_nks, solve_nonlinear_schwarz)
from nlschwarz.schwarz import NewtonParams, SchwarzOperator
from nlschwarz.sparse import SingularMatrixError, factorize

TIGHT = NewtonParams(rel_tol=1e-12, abs_tol=1e-14, max_iter=30)


def diffusion_case(nx=16, px=2, overlap=2):
    prob = asm.diffusion_problem()
    m = msh.build_structured_mesh(nx, nx, problem_kind="diffusion")
    dm = asm.build_dofmap(prob, m)
    dec = msh.partition_structured(m, px, px)
    msh.extend_overlap(dec, msh.dual_graph(m), overlap)
    msh.ghost_layer(dec, msh.nodal_graph(m), mesh=m)
    return prob, m, dm, dec


def coarse_space(prob, m, dm, dec, kind="rgdsw", modified=True):
    skel = msh.interface_skeleton(dec, m)
    u0 = asm.initial_iterate(prob, dm)
    A0 = asm.assemble_tangent(prob, m, dm, u0)
    P0, _, _ = crs.build_coarse_space(prob, m, dm, skel, A0, kind, modified,
                                      decomp=dec)
    return P0


def newton_reference(prob, m, dm, tol=1e-12):
    u = asm.initial_iterate(prob, dm)
    for _ in range(50):
        r = asm.assemble_residual(prob, m, dm, u)
        if np.linalg.norm(r) < tol:
            return u
        A = asm.assemble_tangent(prob, m, dm, u)
        u = u - factorize(A).solve(r)
    raise AssertionError("reference Newton did not converge")


class TestConfigs:
    def test_ldc_defaults(self):
        cfg = ldc_config()
        assert cfg.outer.rel_tol == 1e-6
        assert cfg.gmres.restart == 500
        assert cfg.outer.line_search

    def test_beam_defaults(self):
        cfg = beam_config()
        assert not cfg.outer.line_search
        assert not cfg.inner.line_search
        assert cfg.coarse_kind == "msfem"
        assert cfg.modified
        assert cfg.gmres.restart is None

    def test_overrides(self):
        cfg = ldc_config(variant="aspen", modified=True)
        assert cfg.variant == "aspen"
        assert cfg.modified
        cfg = beam_config(coarse_kind="rgdsw", gmres=GmresParams())
        assert cfg.coarse_kind == "rgdsw"
        assert cfg.gmres == GmresParams()
        assert cfg.modified

    @pytest.mark.parametrize("preset", [ldc_config, beam_config])
    def test_misspelt_override_raises(self, preset):
        with pytest.raises(TypeError):
            preset(varaint="aspen")


class TestNonlinearSchwarz:
    def test_matches_newton(self):
        prob, m, dm, dec = diffusion_case()
        u_ref = newton_reference(prob, m, dm)
        cfg = SolverConfig(outer=NewtonParams(rel_tol=1e-10, abs_tol=1e-12,
                                              max_iter=20),
                           inner=TIGHT, variant="raspen",
                           gmres=GmresParams(rel_tol=1e-10, max_iter=400))
        u, rep = solve_nonlinear_schwarz(prob, m, dm, dec, cfg)
        assert rep.converged
        assert np.abs(u - u_ref).max() < 1e-8

    def test_report_bookkeeping(self):
        prob, m, dm, dec = diffusion_case()
        cfg = SolverConfig(variant="raspen")
        u, rep = solve_nonlinear_schwarz(prob, m, dm, dec, cfg)
        assert rep.converged
        n = rep.outer_iterations
        assert n == len(rep.steps) > 0
        assert rep.residuals == [1.0] + [st.rel_residual for st in rep.steps]
        assert all(st.precond_residual > 0 for st in rep.steps)
        assert list(rep.timings) == ["Inner solve", "Coarse solve", "GMRES",
                                     "Other"]
        assert rep.total_gmres == sum(st.gmres_its for st in rep.steps)
        # per-step times sum to the category totals, and all of them to the
        # solve's wall time
        for cat, name in (("Inner solve", "t_inner"),
                          ("Coarse solve", "t_coarse"), ("GMRES", "t_gmres")):
            tot = sum(getattr(st, name) for st in rep.steps)
            assert abs(rep.timings[cat] - tot) < 1e-9
        assert sum(st.t_other for st in rep.steps) <= rep.timings["Other"]
        assert abs(sum(rep.timings.values()) - rep.wall_s) < 1e-9

    def test_iteration_limit_reported(self):
        prob, m, dm, dec = diffusion_case()
        cfg = SolverConfig(outer=NewtonParams(rel_tol=1e-14, abs_tol=0.0,
                                              max_iter=1), variant="raspen")
        u, rep = solve_nonlinear_schwarz(prob, m, dm, dec, cfg)
        assert not rep.converged
        assert "limit" in rep.reason

    def test_monotone_decrease_with_line_search(self):
        prob, m, dm, dec = diffusion_case()
        P0 = coarse_space(prob, m, dm, dec)
        cfg = SolverConfig(variant="hybrid")
        u, rep = solve_nonlinear_schwarz(prob, m, dm, dec, cfg, P0=P0)
        assert rep.converged
        assert all(np.diff(rep.residuals) < 0)

    def test_warm_start(self):
        prob, m, dm, dec = diffusion_case()
        cfg = SolverConfig(variant="raspen")
        u, rep = solve_nonlinear_schwarz(prob, m, dm, dec, cfg)
        u2, rep2 = solve_nonlinear_schwarz(prob, m, dm, dec, cfg, u0=u)
        assert rep2.converged
        assert rep2.outer_iterations == 0


class TestNks:
    def test_matches_newton(self):
        prob, m, dm, dec = diffusion_case()
        u_ref = newton_reference(prob, m, dm)
        P0 = coarse_space(prob, m, dm, dec)
        cfg = SolverConfig(outer=NewtonParams(rel_tol=1e-10, abs_tol=1e-12,
                                              max_iter=20),
                           gmres=GmresParams(rel_tol=1e-10, max_iter=400))
        u, rep = solve_nks(prob, m, dm, dec, cfg, P0=P0)
        assert rep.converged
        assert np.abs(u - u_ref).max() < 1e-8

    def test_one_level_works(self):
        prob, m, dm, dec = diffusion_case()
        cfg = SolverConfig()
        u, rep = solve_nks(prob, m, dm, dec, cfg)
        assert rep.converged

    def test_preconditioning_reduces_iterations(self):
        prob, m, dm, dec = diffusion_case()
        P0 = coarse_space(prob, m, dm, dec)
        cfg = SolverConfig(gmres=GmresParams(rel_tol=1e-8, max_iter=500))
        _, rep_prec = solve_nks(prob, m, dm, dec, cfg, P0=P0)
        assert rep_prec.converged
        # the preconditioned counts must be far below the system size
        assert max(st.gmres_its for st in rep_prec.steps) < dm.n_dofs // 4


def nan_global_residual(monkeypatch, after: int):
    """Make every full-mesh residual after the first `after` calls NaN."""
    original, calls = asm.assemble_residual, [0]

    def patched(*args, **kwargs):
        r = original(*args, **kwargs)
        if kwargs.get("subset") is not None:
            return r
        calls[0] += 1
        return r if calls[0] <= after else np.full_like(r, np.nan)
    monkeypatch.setattr(asm, "assemble_residual", patched)


SOLVERS = {"raspen": solve_nonlinear_schwarz, "nks": solve_nks}


class TestFailuresRecorded:
    """Each failure mode ends the solve with a reason or is flagged in its
    step; none escapes as an exception or ends as the iteration limit."""

    def solve(self, solver, **cfg):
        prob, m, dm, dec = diffusion_case()
        cfg = SolverConfig(variant="raspen", **cfg)
        u, rep = SOLVERS[solver](prob, m, dm, dec, cfg,
                                 P0=coarse_space(prob, m, dm, dec))
        return u, rep, asm.initial_iterate(prob, dm)

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_singular_factorization(self, solver, monkeypatch):
        def singular(*args, **kwargs):
            raise SingularMatrixError("zero pivot at index 0", pivot=0)
        module = "schwarz" if solver == "raspen" else "outer"
        monkeypatch.setattr(f"nlschwarz.{module}.factorize", singular)
        u, rep, u0 = self.solve(solver)
        assert not rep.converged
        assert rep.reason == ("linearization failed: SingularMatrixError: "
                              "zero pivot at index 0")
        assert rep.outer_iterations == 0
        assert np.array_equal(u, u0)

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_nan_initial_residual(self, solver, monkeypatch):
        nan_global_residual(monkeypatch, after=0)
        u, rep, u0 = self.solve(solver)
        assert not rep.converged
        assert rep.reason == "initial residual is not finite"
        assert rep.outer_iterations == 0
        assert np.array_equal(u, u0)

    @pytest.mark.parametrize("line_search", [True, False])
    @pytest.mark.parametrize("solver", SOLVERS)
    def test_nan_at_every_trial_state(self, solver, line_search, monkeypatch):
        nan_global_residual(monkeypatch, after=1)
        u, rep, u0 = self.solve(solver, outer=NewtonParams(
            rel_tol=1e-6, abs_tol=1e-6, line_search=line_search))
        assert not rep.converged
        assert rep.reason == "no trial step has a finite residual"
        assert rep.outer_iterations == 1
        assert rep.steps[0].rel_residual is None
        assert rep.residuals == [1.0]
        assert np.array_equal(u, u0)

    def test_nan_local_residual(self, monkeypatch):
        original = asm.assemble_residual

        def patched(*args, **kwargs):
            r = original(*args, **kwargs)
            return r if kwargs.get("subset") is None else r * np.nan
        monkeypatch.setattr(asm, "assemble_residual", patched)
        u, rep, u0 = self.solve("raspen")
        assert not rep.converged
        assert rep.reason.startswith("linearization failed")
        assert "local correction on subdomain" in rep.reason
        assert "not finite" in rep.reason
        assert np.array_equal(u, u0)

    def test_nan_coarse_residual(self, monkeypatch):
        monkeypatch.setattr(SchwarzOperator, "_project_coarse_residual",
                            lambda self, r: r * np.nan)
        prob, m, dm, dec = diffusion_case()
        u, rep = solve_nonlinear_schwarz(
            prob, m, dm, dec, SolverConfig(variant="hybrid"),
            P0=coarse_space(prob, m, dm, dec))
        assert not rep.converged
        assert "coarse correction" in rep.reason
        assert "not finite" in rep.reason
        assert np.array_equal(u, asm.initial_iterate(prob, dm))

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_gmres_iteration_cap_counted(self, solver):
        u, rep, _ = self.solve(solver, gmres=GmresParams(max_iter=1))
        assert rep.outer_iterations > 0
        assert not any(st.gmres_converged for st in rep.steps)
        assert all(st.corrections_converged for st in rep.steps)

    def test_inner_iteration_cap_counted(self):
        u, rep, _ = self.solve("raspen", inner=NewtonParams(
            rel_tol=1e-12, abs_tol=0.0, max_iter=1))
        assert rep.outer_iterations > 0
        assert not any(st.corrections_converged for st in rep.steps)
        assert all(st.gmres_converged for st in rep.steps)


LDC = {"problem": "ldc", "subdomains": [2, 2], "hh": 6}
BEAM = {"problem": "beam", "fy": 1.0, "subdomains": [4, 1], "hh": 4}
CONVERGED = "residual tolerance reached"
LIMIT = "outer iteration limit reached"


class TestPinnedReports:
    """Per-iteration GMRES counts, line-search steps and reasons of both
    solvers through `run_point`, as measured before the two outer loops were
    merged into one driver."""

    @pytest.mark.parametrize("config,gmres,ls,reason", [
        (dict(LDC, re=100, variant="hybrid"), [15, 13, 14, 14], [0] * 4,
         CONVERGED),
        (dict(LDC, re=100, variant="nks"), [22, 23, 24, 23], [0] * 4,
         CONVERGED),
        (dict(LDC, re=100, variant="raspen"), [17, 17, 17], [0] * 3,
         CONVERGED),
        (dict(LDC, re=100, variant="additive"), [19, 18, 19], [0] * 3,
         CONVERGED),
        (dict(BEAM, variant="hybrid"), [4, 8], [0, 0], CONVERGED),
        (dict(BEAM, variant="nks"), [8, 10], [0, 0], CONVERGED),
        (dict(LDC, re=2000, variant="hybrid"),
         [24, 28, 54, 50, 59, 65, 68, 81, 73, 74], [5] + [6] * 9, LIMIT),
        (dict(LDC, re=2000, variant="nks"),
         [23, 24, 29, 30, 35, 31, 33, 34, 35, 32],
         [1, 4, 6, 1, 5, 4, 3, 3, 6, 3], LIMIT),
    ], ids=["ldc100-hybrid", "ldc100-nks", "ldc100-raspen", "ldc100-additive",
            "beam-hybrid", "beam-nks", "ldc2000-hybrid", "ldc2000-nks"])
    def test_report(self, config, gmres, ls, reason, monkeypatch):
        solutions = []
        for name in ("solve_nonlinear_schwarz", "solve_nks"):
            def keep(*args, fn=getattr(cli, name), **kwargs):
                u, rep = fn(*args, **kwargs)
                solutions.append(u)
                return u, rep
            monkeypatch.setattr(cli, name, keep)
        for _ in range(2):
            record, rep = cli.run_point(config, {})
            assert [st.gmres_its for st in rep.steps] == gmres
            assert [st.line_search_steps for st in rep.steps] == ls
            assert rep.reason == reason
            assert [st.precond_residual is None for st in rep.steps] == \
                [config["variant"] == "nks"] * len(gmres)
            assert record["gmres_unconverged"] == 0
        np.testing.assert_array_equal(solutions[0], solutions[1])
