"""Outer Newton driver tests for nonlinear Schwarz and NKS."""

import multiprocessing

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from nlschwarz import assembly as asm
from nlschwarz import cli
from nlschwarz import coarse as crs
from nlschwarz import mesh as msh
from nlschwarz import outer, owners, schwarz
from nlschwarz.outer import (GmresParams, SolverConfig, beam_config,
                             solve_nks, solve_nonlinear_schwarz)
from nlschwarz.schwarz import NewtonParams, SchwarzOperator, subdomains
from nlschwarz.sparse import SingularMatrixError, factorize

TIGHT = NewtonParams(rel_tol=1e-12, abs_tol=1e-14, max_iter=30)


def diffusion_case(nx=16, px=2, overlap=2):
    prob = asm.diffusion_problem()
    m = msh.build_structured_mesh(nx, nx, problem_kind="diffusion")
    dm = asm.build_dofmap(prob, m)
    dec = msh.partition_structured(m, px, px)
    msh.extend_overlap(dec, msh.dual_graph(m), overlap)
    msh.ghost_layer(dec, m)
    return prob, m, dm, dec


def coarse_space(prob, m, dm, dec, kind="rgdsw", modified=True):
    P0, _, _ = crs.build_coarse_space(prob, m, dm, dec, kind, modified)
    return P0


def newton_reference(prob, m, dm, tol=1e-12):
    u = asm.initial_iterate(prob, dm)
    for _ in range(50):
        r = asm.assemble_residual(prob, m, dm, u)
        if np.linalg.norm(r) < tol:
            return u
        u = u - spla.spsolve(asm.assemble_tangent(prob, m, dm, u), r)
    raise AssertionError("reference Newton did not converge")


class TestConfigs:
    def test_ldc_defaults(self):
        cfg = SolverConfig()
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
        cfg = SolverConfig(variant="aspen", modified=True)
        assert cfg.variant == "aspen"
        assert cfg.modified
        cfg = beam_config(coarse_kind="rgdsw", gmres=GmresParams())
        assert cfg.coarse_kind == "rgdsw"
        assert cfg.gmres == GmresParams()
        assert cfg.modified

    @pytest.mark.parametrize("preset", [SolverConfig, beam_config])
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
    CASES = [{"problem": "ldc", "re": 100, "subdomains": [2, 2], "hh": 6},
             {"problem": "beam", "fy": 1.0, "subdomains": [4, 1], "hh": 4},
             {"problem": "diffusion", "subdomains": [2, 2], "hh": 6}]
    CASE_IDS = ["ldc", "beam", "diffusion"]

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

    def test_operator_matches_loop(self, monkeypatch):
        """GMRES gets M^{-1} F and the operator M^{-1} DF of the 2x2,
        H/h = 6 cavity at Re 100, at the initial iterate.  The operator
        agrees with M^{-1} applied to DF x, and both add the subdomain
        terms, each weighted by its partition of unity, in the order of a
        loop over the subdomains, then the coarse term, to the bit: the
        operator as x_i + A_i^{-1} C_i x_Gamma_i.  The factors are recorded
        in this process, so it owns every subdomain."""
        monkeypatch.setenv("NLSCHWARZ_WORKERS", "1")
        prob, m, dm, px, py = cli._build_case(
            {"problem": "ldc", "re": 100, "subdomains": [2, 2], "hh": 6}, {})
        dec = cli._decompose(m, px, py, 2, nks=True)
        P0, _, _ = crs.build_coarse_space(prob, m, dm, dec)
        factors, coarse, captured = [], [], {}

        def recorded(record, fn):
            def call(*args, **kwargs):
                record.append(fn(*args, **kwargs))
                return record[-1]
            return call

        def first_gmres(apply, b, **kwargs):
            captured.update(apply=apply, rhs=b)
            raise np.linalg.LinAlgError("stop after the first linearization")
        monkeypatch.setattr(schwarz, "factorize", recorded(factors, factorize))
        monkeypatch.setattr(outer.CoarseTangent, "of",
                            recorded(coarse, outer.CoarseTangent.of))
        monkeypatch.setattr(outer, "gmres", first_gmres)
        _, rep = solve_nks(prob, m, dm, dec, SolverConfig(variant="nks"),
                           P0=P0)
        assert rep.reason == ("linearization failed: LinAlgError: "
                              "stop after the first linearization")
        u0 = asm.initial_iterate(prob, dm)
        plan = asm.global_plan(m, dm, prob)
        values = np.empty(plan.nnz)
        DF = asm.assemble_tangent(prob, m, dm, u0, plan=plan, values=values)
        R0 = P0.T.tocsr()
        subs = subdomains(prob, m, dm, dec)
        blocks = outer._LocalBlocks(plan, subs, values)

        def precond(v):
            out = np.zeros_like(v)
            for sub, lu in zip(subs, factors):
                out[sub.dofs_ov] += sub.weight * lu.solve(v[sub.dofs_ov])
            return out + P0 @ sla.lu_solve(coarse[0].lu, R0 @ v)

        np.testing.assert_array_equal(
            captured["rhs"],
            precond(asm.assemble_residual(prob, m, dm, u0)))
        rng = np.random.default_rng(4)
        for _ in range(2):
            x = rng.standard_normal(dm.n_dofs)
            got = captured["apply"](x)
            oracle = precond(DF @ x)
            assert (np.linalg.norm(got - oracle)
                    <= 1e-12 * np.linalg.norm(oracle))
            expect = np.zeros_like(x)
            for i, (sub, lu) in enumerate(zip(subs, factors)):
                d = sub.dofs_ov
                coupling = blocks.cut(i)[:, d.size:]
                expect[d] += sub.weight * (
                    lu.solve(coupling @ x[sub.ghosts]) + x[d])
            expect += P0 @ sla.lu_solve(coarse[0].lu, (R0 @ DF) @ x)
            np.testing.assert_array_equal(got, expect)

    def test_blocks_released_before_the_next_assembly(self, monkeypatch):
        """Each Newton step releases the last step's blocks before it
        assembles DF, and returns the pages of DF's shared values once the
        owners have cut their blocks: at every assembly the caller holds no
        block and the values read as zeros, while through GMRES it holds
        the blocks of its own subdomains, 0, W, 2W, ...."""
        prob, m, dm, dec = diffusion_case()
        P0 = coarse_space(prob, m, dm, dec)
        made, assembled, solved = [], [], []

        class Recorded(outer._LocalBlocks):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        def assemble(*args, _assemble=asm.assemble_tangent, **kwargs):
            assembled.append((sorted(made[0].held),
                              np.count_nonzero(kwargs["values"])))
            return _assemble(*args, **kwargs)

        def gmres(*args, _gmres=outer.gmres, **kwargs):
            solved.append(sorted(made[0].held))
            return _gmres(*args, **kwargs)
        monkeypatch.setattr(outer, "_LocalBlocks", Recorded)
        monkeypatch.setattr(asm, "assemble_tangent", assemble)
        monkeypatch.setattr(outer, "gmres", gmres)
        _, rep = solve_nks(prob, m, dm, dec, SolverConfig(), P0=P0)
        assert rep.converged and rep.outer_iterations >= 2
        assert assembled == [([], 0)] * rep.outer_iterations
        own = list(range(0, len(dec.overlap_elements),
                         owners.workers_from_env()))
        assert solved == [own] * rep.outer_iterations

    def test_builds_no_subdomain_plan(self, monkeypatch):
        """NKS cuts its blocks out of the full-mesh DF and reads each
        block's ghost DOFs without a subdomain plan, which costs about 12 ms
        on a subdomain of the 4x4 cavity: a solve builds no plan that
        assembles rows, while the Schwarz operator builds one per
        subdomain."""
        monkeypatch.setenv("NLSCHWARZ_WORKERS", "1")
        prob, m, dm, dec = diffusion_case()
        P0 = coarse_space(prob, m, dm, dec)
        built = []

        def recorded(plan, *args, _init=asm.AssemblyPlan.__init__,
                     **kwargs):
            built.append(kwargs.get("rows") is not None)
            _init(plan, *args, **kwargs)
        monkeypatch.setattr(asm.AssemblyPlan, "__init__", recorded)
        for solver, variant in ((solve_nks, "nks"),
                                (solve_nonlinear_schwarz, "raspen")):
            built.clear()
            _, rep = solver(prob, m, dm, dec, SolverConfig(variant=variant),
                            P0=P0)
            assert rep.converged
            assert built.count(True) == (0 if variant == "nks"
                                         else len(dec.overlap_elements))

    @pytest.mark.parametrize("config", CASES, ids=CASE_IDS)
    def test_weights_form_partition_of_unity(self, config):
        """The weights of the NKS decomposition add up to 1 on every DOF,
        so the weighted combine of the restrictions x[d_i] returns x."""
        prob, m, dm, px, py = cli._build_case(config, {})
        subs = subdomains(prob, m, dm, cli._decompose(m, px, py, 2, nks=True))
        x = np.random.default_rng(6).standard_normal(dm.n_dofs)
        with owners.OwnerPool([sub.dofs_ov for sub in subs], dm.n_dofs,
                              [sub.weight for sub in subs]) as pool:
            for sub, out in zip(subs, pool.outs):
                out[:] = x[sub.dofs_ov]
            got = pool.combine()
        assert np.linalg.norm(got - x) <= 1e-15 * np.linalg.norm(x)

    @pytest.mark.parametrize("state", ["initial", "perturbed"])
    @pytest.mark.parametrize("config", CASES, ids=CASE_IDS)
    def test_gathered_blocks_equal_cut(self, config, state):
        """Each [A_i | C_i] that `_LocalBlocks` cuts out of DF's values on
        the plan's pattern has, in A_i, the data, indices and pointers of
        the CSC cut DF[d][:, d] and, in the coupling of its `LocalTangent`,
        the entries of DF[d] on the subdomain's ghost DOFs, outside which
        the pattern's rows d have no column.  So it holds also when
        the values of the other state were cut before, and the cut leaves
        the values and the plan's index arrays as they were.  Every problem
        has exact zeros in its blocks at the initial state, and the cavity
        also at the perturbed one (its pressure block)."""
        prob, m, dm, px, py = cli._build_case(config, {})
        dec = cli._decompose(m, px, py, 2, nks=True)
        u0 = asm.initial_iterate(prob, dm)
        rng = np.random.default_rng(5)
        states = {"initial": u0, "perturbed": np.where(
            dm.dirichlet_mask, u0, u0 + 1e-3 * rng.standard_normal(dm.n_dofs))}
        other = "initial" if state == "perturbed" else "perturbed"
        plan = asm.global_plan(m, dm, prob)
        subs = subdomains(prob, m, dm, dec)
        sub_dofs = [sub.dofs_ov for sub in subs]
        values = np.empty(plan.nnz)
        blocks = outer._LocalBlocks(plan, subs, values)
        pattern = sp.csc_matrix((np.ones(plan.nnz), plan.indices, plan.indptr),
                                shape=(plan.n_rows, plan.n))
        for name in (other, state):   # the same values, refilled
            DF = asm.assemble_tangent(prob, m, dm, states[name], plan=plan,
                                      values=values)
            kept = [a.copy() for a in (values, plan.indices, plan.indptr)]
            dropped = 0
            for i, (sub, d) in enumerate(zip(subs, sub_dofs)):
                got = blocks.cut(i)
                ghosts = sub.ghosts
                lead = got[:, :d.size]
                cut = sp.csc_matrix(DF[d][:, d])
                for attr in ("data", "indices", "indptr"):
                    np.testing.assert_array_equal(getattr(lead, attr),
                                                  getattr(cut, attr))
                    assert getattr(lead, attr).dtype == getattr(cut, attr).dtype
                coupling = schwarz.LocalTangent.of(got, ghosts).coupling
                assert (coupling != DF[d][:, ghosts]).nnz == 0
                outside = np.setdiff1d(np.arange(dm.n_dofs),
                                       np.concatenate([d, ghosts]))
                assert pattern[d][:, outside].nnz == 0
                dropped += pattern[d][:, d].nnz - lead.nnz
            for before, after in zip(kept, (values, plan.indices,
                                            plan.indptr)):
                np.testing.assert_array_equal(after, before)
        assert (dropped > 0) == (state == "initial" or prob.kind == "ldc")


class TestDecompositionChecked:
    """Both solvers reject a decomposition without the overlaps or the
    ghost layers that `mesh` adds, naming the missing step, and overlaps
    that leave a DOF out."""

    @pytest.mark.parametrize("step", ["extend_overlap", "ghost_layer"])
    @pytest.mark.parametrize("solver", ["raspen", "nks"])
    def test_missing_layers(self, solver, step):
        prob = asm.diffusion_problem()
        m = msh.build_structured_mesh(8, 8, problem_kind="diffusion")
        dm = asm.build_dofmap(prob, m)
        dec = msh.partition_structured(m, 2, 2)
        if step == "ghost_layer":
            msh.extend_overlap(dec, msh.dual_graph(m), 1)
        with pytest.raises(ValueError, match=f"run mesh.{step} first"):
            SOLVERS[solver](prob, m, dm, dec, SolverConfig(variant=solver))
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("solver", ["raspen", "nks"])
    def test_uncovered_dofs(self, solver):
        prob, m, dm, dec = diffusion_case(nx=8)
        dec.overlap_elements[0] = dec.overlap_elements[0][:0]
        with pytest.raises(ValueError, match="do not cover every DOF"):
            SOLVERS[solver](prob, m, dm, dec, SolverConfig(variant=solver))


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


def nan_local_residual(monkeypatch):
    """Make every subdomain residual NaN."""
    original = asm.assemble_residual

    def patched(*args, **kwargs):
        r = original(*args, **kwargs)
        return r if kwargs.get("subset") is None else r * np.nan
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
            raise SingularMatrixError("zero pivot at index 0")
        monkeypatch.setattr(schwarz, "factorize", singular)
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

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_nonphysical_initial_state(self, solver):
        """A start whose every element is inverted, u_x = -2x with
        det F = -1, is recorded as a non-finite start residual."""
        prob, m, dm, px, py = cli._build_case(
            {"problem": "beam", "subdomains": [2, 1], "hh": 4}, {})
        dec = cli._decompose(m, px, py, 2, nks=solver == "nks")
        P0, _, _ = crs.build_coarse_space(prob, m, dm, dec, "msfem", True)
        u0 = asm.initial_iterate(prob, dm)
        on_x = asm.nullspace_basis(prob, dm)["tx"] == 1.0
        u0[on_x] = -2.0 * dm.dof_coords[on_x, 0]
        u, rep = SOLVERS[solver](prob, m, dm, dec,
                                 beam_config(variant=solver), P0=P0, u0=u0)
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
        nan_local_residual(monkeypatch)
        u, rep, u0 = self.solve("raspen")
        assert not rep.converged
        assert rep.reason.startswith("linearization failed")
        assert "local correction on subdomain" in rep.reason
        assert "not finite" in rep.reason
        assert np.array_equal(u, u0)

    def test_nan_coarse_residual(self, monkeypatch):
        # F(u0) stays finite; the coarse line search then sees only NaN
        # trial residuals, so the coarse `newton` stops with no finite trial,
        # which the coarse correction raises as a non-finite residual
        nan_global_residual(monkeypatch, after=1)
        prob, m, dm, dec = diffusion_case()
        u, rep = solve_nonlinear_schwarz(
            prob, m, dm, dec, SolverConfig(variant="hybrid"),
            P0=coarse_space(prob, m, dm, dec))
        assert not rep.converged
        assert "coarse correction" in rep.reason
        assert "not finite" in rep.reason
        assert np.array_equal(u, asm.initial_iterate(prob, dm))

    @pytest.mark.parametrize("extra,steps,solver", [
        ("zero", 0, "nks"), ("copy", 1, "nks"), ("zero", 0, "additive"),
        ("zero", 0, "hybrid")],
        ids=["zero-0", "copy-1", "zero-0-additive", "zero-0-hybrid"])
    def test_singular_nks_coarse_tangent(self, extra, steps, solver,
                                         monkeypatch):
        # an extra coarse column that is zero makes R0 DF P0 singular at the
        # first linearization, for NKS's coarse term and for the first step
        # of the Schwarz operator's coarse Newton alike; "copy" zeroes one
        # row of NKS's second coarse tangent, which partial-pivoting LU
        # meets as an exactly zero pivot for any rounding of the other
        # entries
        prob, m, dm, px, py = cli._build_case(
            {"problem": "ldc", "re": 100, "subdomains": [2, 2], "hh": 6}, {})
        dec = cli._decompose(m, px, py, 2, nks=solver == "nks")
        P0, _, _ = crs.build_coarse_space(prob, m, dm, dec)
        if extra == "zero":
            P0 = sp.hstack([P0, P0[:, :1] * 0]).tocsr()
        else:
            calls = []

            def zero_row(P0, R0, DF, _of=outer.CoarseTangent.of):
                calls.append(1)
                if len(calls) == 2:
                    keep = np.ones(R0.shape[0])
                    keep[1] = 0.0
                    R0 = sp.diags(keep) @ R0
                return _of(P0, R0, DF)
            monkeypatch.setattr(outer.CoarseTangent, "of", zero_row)
        solve = solve_nks if solver == "nks" else solve_nonlinear_schwarz
        u, rep = solve(prob, m, dm, dec, SolverConfig(variant=solver), P0=P0)
        assert not rep.converged
        assert rep.reason == ("linearization failed: LinAlgError: "
                              "coarse tangent is singular")
        assert rep.outer_iterations == steps
        assert np.array_equal(u, asm.initial_iterate(prob, dm)) == (steps == 0)

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


class TestOwnerProcesses:
    """A solve stops the subdomain owner processes it started, whether it
    converges or fails, and its bits, its report and its failure reason do
    not depend on their number."""

    @staticmethod
    def started(monkeypatch):
        """The `OwnerPool`s that start owner processes from now on."""
        started = []

        def recorded(self, task, _start=owners.OwnerPool._start):
            _start(self, task)
            started.append(self)
        monkeypatch.setattr(owners.OwnerPool, "_start", recorded)
        return started

    def solve(self, solver, workers, monkeypatch):
        monkeypatch.setenv("NLSCHWARZ_WORKERS", str(workers))
        prob, m, dm, dec = diffusion_case(nx=18, px=3)
        solve = solve_nks if solver == "nks" else solve_nonlinear_schwarz
        return solve(prob, m, dm, dec, SolverConfig(variant="hybrid"),
                     P0=coarse_space(prob, m, dm, dec))

    @staticmethod
    def stopped(started, workers):
        assert [len(pool.procs) for pool in started] == [workers - 1]
        assert not any(proc.is_alive() for proc in started[0].procs)
        assert multiprocessing.active_children() == []

    def converged(self, solver, workers, monkeypatch):
        u1, rep1 = self.solve(solver, 1, monkeypatch)
        started = self.started(monkeypatch)
        u, rep = self.solve(solver, workers, monkeypatch)
        assert rep.converged
        np.testing.assert_array_equal(u, u1)
        assert rep.residuals == rep1.residuals
        assert [st.gmres_its for st in rep.steps] == \
            [st.gmres_its for st in rep1.steps]
        self.stopped(started, workers)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_converged_solve(self, workers, monkeypatch):
        self.converged("hybrid", workers, monkeypatch)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_converged_nks_solve(self, workers, monkeypatch):
        self.converged("nks", workers, monkeypatch)

    def test_workers_capped_at_subdomains(self, monkeypatch):
        """Six workers on four subdomains fork three owners, in the
        nonlinear Schwarz operator and in NKS, with the bits of one
        process."""
        prob, m, dm, dec = diffusion_case(nx=8, px=2)
        P0 = coarse_space(prob, m, dm, dec)
        rng = np.random.default_rng(6)
        u = asm.initial_iterate(prob, dm)
        u = np.where(dm.dirichlet_mask, u,
                     u + 0.3 * rng.standard_normal(u.size))
        x = rng.standard_normal(u.size)
        started = self.started(monkeypatch)
        out = []
        for workers in (1, 6):
            monkeypatch.setenv("NLSCHWARZ_WORKERS", str(workers))
            with SchwarzOperator(prob, m, dm, dec, P0=P0) as op:
                ev = op.evaluate(u)
                applied = op.apply_tangent(ev, x)
            u_nks, rep = solve_nks(prob, m, dm, dec,
                                   SolverConfig(variant="nks"), P0=P0)
            assert rep.converged
            out.append((ev.residual, applied, u_nks))
        assert [len(pool.procs) for pool in started] == [3, 3]
        for got, expect in zip(out[1], out[0]):
            np.testing.assert_array_equal(got, expect)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_failed_solve(self, workers, monkeypatch):
        nan_local_residual(monkeypatch)
        started = self.started(monkeypatch)
        u, rep = self.solve("hybrid", workers, monkeypatch)
        assert rep.reason.startswith("linearization failed")
        assert "local correction on subdomain 0" in rep.reason
        self.stopped(started, workers)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_failed_nks_solve(self, workers, monkeypatch):
        """Every block but the corner blocks of the 3 x 3 decomposition is
        singular.  The first singular block is subdomain 1's, which an
        owner process factorizes, while the caller's subdomain 4 fails as
        well; the solve reports the first."""
        prob, m, dm, dec = diffusion_case(nx=18, px=3)
        sizes = [asm.subset_dofs(dm, m, ov).size
                 for ov in dec.overlap_elements]
        assert len({sizes[0], sizes[1], sizes[4]}) == 3

        def singular(A, _factorize=factorize):
            if A.shape[0] != sizes[0]:
                raise SingularMatrixError(f"block of {A.shape[0]} rows")
            return _factorize(A)
        monkeypatch.setattr(schwarz, "factorize", singular)
        started = self.started(monkeypatch)
        u, rep = self.solve("nks", workers, monkeypatch)
        assert rep.reason == ("linearization failed: SingularMatrixError: "
                              f"block of {sizes[1]} rows")
        assert rep.outer_iterations == 0
        np.testing.assert_array_equal(u, asm.initial_iterate(prob, dm))
        if workers > 1:
            self.stopped(started, workers)

class TestBeamLoad:
    def test_gdsw_hybrid_converges_at_large_load(self):
        """With the cantilever's soft bending modes left in the coarse
        correction, hybrid Schwarz with GDSW carries f_y = 3e4."""
        record, rep = cli.run_point(
            {"problem": "beam", "fy": 3e4, "subdomains": [4, 4], "hh": 10,
             "variant": "hybrid", "coarse": "gdsw", "modified": False}, {})
        assert rep.converged, rep.reason
        assert rep.outer_iterations <= 4


LDC = {"problem": "ldc", "subdomains": [2, 2], "hh": 6}
BEAM = {"problem": "beam", "fy": 1.0, "subdomains": [4, 1], "hh": 4}
CONVERGED = "residual tolerance reached"
LIMIT = "outer iteration limit reached"


class TestPinnedReports:
    """Per-iteration GMRES counts, line-search steps and reasons of both
    solvers through `run_point`, as measured before the two outer loops were
    merged into one driver.  `ldc2000-hybrid` diverges, and every rounding
    change in GMRES or the corrections moves its steps after the first; it
    was measured again when SciPy's GMRES replaced the package's own, when
    the two-level tangent began to apply each local term through its ghost
    coupling, when the cavity's Stokes part moved into the assembly plan,
    which changed the order of the sums, and when the coarse Newton began
    to solve through the LU it keeps and the evaluation to sum the local
    corrections before it adds the coarse one, and when the coarse space's
    interior extensions began to factorize in the package's one pivoting
    mode, which moves P0 by rounding.  The NKS cases were measured
    again when NKS began to weight its block solves with the partition of
    unity."""

    @pytest.mark.parametrize("config,gmres,ls,reason", [
        (dict(LDC, re=100, variant="hybrid"), [15, 13, 14, 14], [0] * 4,
         CONVERGED),
        (dict(LDC, re=100, variant="nks"), [18, 18, 19, 18], [0] * 4,
         CONVERGED),
        (dict(LDC, re=100, variant="raspen"), [17, 17, 17], [0] * 3,
         CONVERGED),
        (dict(LDC, re=100, variant="additive"), [19, 18, 19], [0] * 3,
         CONVERGED),
        (dict(BEAM, variant="hybrid"), [4, 8], [0, 0], CONVERGED),
        (dict(BEAM, variant="nks"), [7, 8], [0, 0], CONVERGED),
        (dict(LDC, re=2000, variant="hybrid"),
         [24, 26, 27, 60, 65, 72, 70, 72, 65, 73],
         [5, 6, 6, 6, 6, 6, 6, 6, 6, 6], LIMIT),
        (dict(LDC, re=2000, variant="nks"),
         [18, 20, 23, 24, 27, 24, 27, 28, 26, 27],
         [1, 4, 6, 1, 5, 4, 5, 5, 5, 3], LIMIT),
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
