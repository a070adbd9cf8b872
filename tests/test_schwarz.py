"""SchwarzOperator tests: corrections, variants, tangent consistency."""

import gc
import itertools
import os
import signal
import subprocess
import sys
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from nlschwarz import assembly as asm
from nlschwarz import coarse as crs
from nlschwarz import mesh as msh
from nlschwarz import schwarz
from nlschwarz.assembly import NonPhysicalStateError
from nlschwarz.outer import SolverConfig, solve_nonlinear_schwarz
from nlschwarz.schwarz import (LS_S_MIN, LS_THETA, VARIANTS, NewtonParams,
                               SchwarzOperator, backtracking_step, newton)
from nlschwarz.sparse import SingularMatrixError

TIGHT = NewtonParams(rel_tol=1e-14, abs_tol=1e-14, max_iter=50)


def setup_problem(kind="diffusion", nx=12, px=2, overlap=2, Re=10.0, fy=1.0):
    if kind == "ldc":
        prob = asm.ldc_problem(Re)
        m = msh.build_structured_mesh(nx, nx, problem_kind="ldc")
        py = px
    elif kind == "beam":
        prob = asm.beam_problem(fy)
        m = msh.build_structured_mesh(nx, max(nx // 4, 2),
                                      domain=(0, 5, 0, 1), problem_kind="beam")
        py = 1
    else:
        prob = asm.diffusion_problem()
        m = msh.build_structured_mesh(nx, nx, problem_kind="diffusion")
        py = px
    dm = asm.build_dofmap(prob, m)
    dec = msh.partition_structured(m, px, py)
    msh.extend_overlap(dec, msh.dual_graph(m), overlap)
    msh.ghost_layer(dec, m)
    return prob, m, dm, dec


def coarse_space(prob, m, dm, dec, kind="rgdsw", modified=True):
    P0, _, _ = crs.build_coarse_space(prob, m, dm, dec, kind, modified)
    return P0


class TestBacktracking:
    @staticmethod
    def residual(norm_at):
        """A residual callback whose vector has the norm norm_at(s)."""
        return lambda s: np.array([norm_at(s)])

    def test_full_step_accepted(self):
        p = NewtonParams()
        s, k, r, nrm = backtracking_step(self.residual(lambda s: 1.0 - 0.9 * s),
                                         1.0, p)
        assert (s, k) == (1.0, 0)
        assert r[0] == nrm == 1.0 - 0.9

    def test_damps_on_increase(self):
        p = NewtonParams()
        # residual grows for s > 0.1
        s, k, r, nrm = backtracking_step(
            self.residual(lambda s: abs(s - 0.1) + 0.5), 1.0, p)
        assert s < 1.0
        assert s == LS_THETA ** k
        assert r[0] == nrm == abs(s - 0.1) + 0.5

    def test_stops_at_increment_tolerance(self):
        p = NewtonParams()
        s, k, r, nrm = backtracking_step(self.residual(lambda s: 2.0), 1.0, p)
        assert s * LS_THETA < LS_S_MIN <= s
        assert s == LS_THETA ** k

    def test_nonphysical_counts_as_infinite(self):
        p = NewtonParams()

        def trial(s):
            if s > 0.4:
                raise NonPhysicalStateError("det F <= 0")
            return np.array([0.1])
        s, k, r, nrm = backtracking_step(trial, 1.0, p)
        assert s <= 0.4
        assert s == LS_THETA ** k
        assert np.isfinite(nrm)

    def test_failed_last_trial_returns_no_residual(self):
        p = NewtonParams(line_search=False)

        def trial(s):
            raise NonPhysicalStateError("det F <= 0")
        s, k, r, nrm = backtracking_step(trial, 1.0, p)
        assert (s, k, r, nrm) == (1.0, 0, None, np.inf)


class TestNewton:
    """`newton` on x^2 = 2 and on arctan(x) = 0, scalar toy residuals."""

    @staticmethod
    def square(x):
        return x * x - 2.0

    @staticmethod
    def square_step(x, r):
        return r / (2.0 * x)

    @staticmethod
    def moved(x, s, d):
        return x - s * d

    def run(self, p, residual=None, direction=None, x0=1.0):
        return newton(residual or self.square, direction or self.square_step,
                      self.moved, np.array([x0]), p, backtracking_step)

    def test_converges_in_known_iterations(self):
        # ||r|| goes 1, 0.25, 6.9e-3, 6.0e-6, 4.5e-12: four steps to 1e-10
        x, rec = self.run(NewtonParams(rel_tol=1e-10, abs_tol=0.0,
                                       max_iter=20))
        assert (rec.converged, rec.iterations) == (True, 4)
        assert rec.reason == "residual tolerance reached"
        assert rec.steps[-1][1] == abs(self.square(x)[0]) <= 1e-10

    def test_stops_at_iteration_limit(self):
        x, rec = self.run(NewtonParams(rel_tol=1e-10, abs_tol=0.0,
                                       max_iter=2))
        assert (rec.converged, rec.iterations) == (False, 2)
        assert rec.reason == "iteration limit reached"
        assert rec.steps[-1][1] == abs(self.square(x)[0])

    @pytest.mark.parametrize("failure", ["nan", "nonphysical"])
    def test_nonfinite_start(self, failure):
        def residual(x):
            if failure == "nan":
                return x * np.nan
            raise NonPhysicalStateError("det(F) <= 0 on 1 elements")
        x, rec = self.run(NewtonParams(), residual=residual)
        assert rec.reason == "initial residual is not finite"
        assert (rec.converged, rec.iterations, x[0]) == (False, 0, 1.0)
        with pytest.raises(NonPhysicalStateError,
                           match="^toy: residual is not finite after 0 "
                                 "Newton steps$"):
            rec.raise_failure("toy")

    @pytest.mark.parametrize("line_search", [True, False])
    def test_every_trial_nan(self, line_search):
        def residual(x):
            return self.square(x) if x[0] == 1.0 else x * np.nan
        x, rec = self.run(NewtonParams(line_search=line_search),
                          residual=residual)
        assert rec.reason == "no trial step has a finite residual"
        assert rec.iterations == 1 and not np.isfinite(rec.steps[0][1])
        assert x[0] == 1.0
        with pytest.raises(NonPhysicalStateError,
                           match="after 1 Newton steps$"):
            rec.raise_failure("toy")

    def test_failing_direction(self):
        error = SingularMatrixError("zero pivot at index 0")
        calls = []

        def direction(x, r):
            calls.append(x[0])
            if len(calls) == 2:
                raise error
            return self.square_step(x, r)
        x, rec = self.run(NewtonParams(rel_tol=1e-10, abs_tol=0.0),
                          direction=direction)
        assert rec.reason == ("linearization failed: SingularMatrixError: "
                              "zero pivot at index 0")
        assert rec.iterations == 1 and not rec.converged
        assert x[0] == calls[1] == 1.5
        with pytest.raises(SingularMatrixError) as raised:
            rec.raise_failure("toy")
        assert raised.value is error

    def test_local_level_reraises_the_direction_error(self, monkeypatch):
        error = SingularMatrixError("zero pivot at index 0")

        def singular(*args, **kwargs):
            raise error
        prob, m, dm, dec = setup_problem(nx=8)
        op = SchwarzOperator(prob, m, dm, dec, variant="raspen")
        monkeypatch.setattr(schwarz, "factorize", singular)
        with pytest.raises(SingularMatrixError) as raised:
            op.local_correction(op.subs[0], asm.initial_iterate(prob, dm))
        assert raised.value is error

    def test_local_level_names_a_nonphysical_subdomain(self):
        """An inverted start, u_x = -2x with det F = -1, ends subdomain 1's
        local solve with an error that names it."""
        prob, m, dm, dec = setup_problem("beam", nx=8)
        op = SchwarzOperator(prob, m, dm, dec, variant="raspen")
        u = asm.initial_iterate(prob, dm)
        on_x = asm.nullspace_basis(prob, dm)["tx"] == 1.0
        u[on_x] = -2.0 * dm.dof_coords[on_x, 0]
        with pytest.raises(NonPhysicalStateError,
                           match="^local correction on subdomain 1: residual "
                                 "is not finite after 0 Newton steps$"):
            op.local_correction(op.subs[1], u)

    def test_record_lists_k_and_norm(self):
        """Newton on arctan from x = 2 overshoots: the full step to
        2 - 5 arctan(2) raises |r|, so the first iteration takes s = 1/2."""
        x, rec = self.run(
            NewtonParams(rel_tol=1e-12, abs_tol=0.0, max_iter=20),
            residual=np.arctan, direction=lambda x, r: r * (1.0 + x * x),
            x0=2.0)
        assert rec.converged and rec.iterations == len(rec.steps)
        assert rec.norm0 == np.arctan(2.0)
        assert rec.steps[0] == (1, abs(np.arctan(2.0 - 2.5 * np.arctan(2.0))))
        assert all(k == 0 for k, _ in rec.steps[1:])
        norms = [nrm for _, nrm in rec.steps]
        assert norms == sorted(norms, reverse=True)
        assert norms[-1] == abs(np.arctan(x[0])) <= 1e-12 * rec.norm0


class TestOperatorSetup:
    def test_unknown_variant(self):
        prob, m, dm, dec = setup_problem()
        with pytest.raises(ValueError):
            SchwarzOperator(prob, m, dm, dec, variant="multiplicative")

    def test_two_level_needs_coarse(self):
        prob, m, dm, dec = setup_problem()
        with pytest.raises(ValueError):
            SchwarzOperator(prob, m, dm, dec, variant="hybrid")

    def test_pou_identity(self):
        """sum of P~_i R_i x = x, exact."""
        prob, m, dm, dec = setup_problem(px=3, nx=12)
        op = SchwarzOperator(prob, m, dm, dec, variant="raspen")
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.standard_normal(dm.n_dofs)
            acc = np.zeros_like(x)
            for sub in op.subs:
                acc[sub.dofs_ov] += sub.weight * x[sub.dofs_ov]
            assert np.abs(acc - x).max() < 1e-15


class TestLocalCorrection:
    def test_ghost_layer_identity(self):
        """After the local solve, the global residual vanishes on Omega_i'."""
        prob, m, dm, dec = setup_problem("diffusion", nx=12, px=2)
        op = SchwarzOperator(prob, m, dm, dec, variant="aspen", inner=TIGHT)
        u = asm.initial_iterate(prob, dm)
        sub = op.subs[1]
        st = op.local_correction(sub, u)
        assert st.converged
        v = u.copy()
        v[sub.dofs_ov] -= st.correction
        r = asm.assemble_residual(prob, m, dm, v)
        norm_ref = np.linalg.norm(asm.assemble_residual(prob, m, dm, u))
        assert np.linalg.norm(r[sub.dofs_ov]) < 1e-12 * norm_ref

    def test_correction_zero_at_solution(self):
        prob, m, dm, dec = setup_problem("diffusion", nx=8, px=2)
        from nlschwarz.outer import SolverConfig, solve_nonlinear_schwarz
        cfg = SolverConfig(outer=NewtonParams(rel_tol=1e-12, abs_tol=1e-13,
                                              max_iter=20),
                           inner=TIGHT, variant="aspen")
        u_star, rep = solve_nonlinear_schwarz(prob, m, dm, dec, cfg)
        assert rep.converged
        op = SchwarzOperator(prob, m, dm, dec, variant="aspen", inner=TIGHT)
        st = op.local_correction(op.subs[0], u_star)
        assert np.linalg.norm(st.correction) < 1e-8


class TestLocalTangent:
    def test_matches_dense_operators(self):
        """On every subdomain of the 2x2, H/h = 6 cavity at Re 100, at a
        perturbed state, the tangent of [A_i | C_i] gives A_i^{-1} R_i DF x
        as x_i + apply(x), and A_i^{-1} y as solve(y), against dense solves
        of the rows of the full-mesh DF.  It holds a copy of C_i, not A's
        arrays, and the ghost DOFs it applies on are read without building
        the plan, which numbers them after dofs_ov."""
        prob, m, dm, dec = setup_problem("ldc", nx=12, px=2, Re=100.0)
        rng = np.random.default_rng(17)
        u = asm.initial_iterate(prob, dm)
        u = np.where(dm.dirichlet_mask, u,
                     u + 0.05 * rng.standard_normal(dm.n_dofs))
        DF = asm.assemble_tangent(prob, m, dm, u).toarray()
        x = rng.standard_normal(dm.n_dofs)
        for sub in schwarz.subdomains(prob, m, dm, dec):
            d = sub.dofs_ov
            ghosts = sub.ghosts
            assert "plan" not in vars(sub)
            np.testing.assert_array_equal(ghosts, sub.plan.dofs[d.size:])
            A = sub.tangent(u[sub.plan.dofs])
            t = schwarz.LocalTangent.of(A, ghosts)
            assert not np.shares_memory(t.coupling.data, A.data)
            Ai = DF[np.ix_(d, d)]
            expect = np.linalg.solve(Ai, DF[d] @ x)
            got = x[d] + t.apply(x)
            assert (np.linalg.norm(got - expect)
                    <= 1e-12 * np.linalg.norm(expect))
            y = rng.standard_normal(d.size)
            expect = np.linalg.solve(Ai, y)
            assert (np.linalg.norm(t.solve(y) - expect)
                    <= 1e-12 * np.linalg.norm(expect))


class TestLocalBlocks:
    @pytest.mark.parametrize("state", ["initial", "perturbed"])
    @pytest.mark.parametrize("kind", ["ldc", "beam", "diffusion"])
    def test_blocks_equal_cut_of_extended_tangent(self, kind, state):
        """A_i and C_i come out of the subdomain plan's assembly with the
        bits, indices and pointers of the cut of the tangent assembled on
        every row of the ghost-extended patch: rows dofs_ov, then columns
        dofs_ov and the ghosts, in CSC form.  At the initial iterate the
        cavity's tangent has exact zeros to eliminate."""
        prob, m, dm, dec = setup_problem(kind, nx=16 if kind == "beam" else 12,
                                         Re=100.0)
        op = SchwarzOperator(prob, m, dm, dec, variant="raspen")
        u = asm.initial_iterate(prob, dm)
        if state == "perturbed":
            rng = np.random.default_rng(2)
            scale = 1e-4 if kind == "beam" else 0.05
            u = np.where(dm.dirichlet_mask, u,
                         u + scale * rng.standard_normal(dm.n_dofs))
        for sub in op.subs:
            A = sub.tangent(u[sub.plan.dofs])
            extended = asm.assemble_tangent(prob, m, dm, u,
                                            subset=sub.plan.elems).tocsr()
            dofs = asm.subset_dofs(dm, m, sub.plan.elems)
            rows = extended[np.searchsorted(dofs, sub.dofs_ov)].tocsc()
            n = sub.dofs_ov.size
            for new, cut in (
                    (A[:, :n], rows[:, np.searchsorted(dofs, sub.dofs_ov)]),
                    (schwarz.LocalTangent.of(A, sub.ghosts).coupling,
                     rows[:, np.searchsorted(dofs, sub.ghosts)])):
                assert new.format == "csc" and new.shape == cut.shape
                for name in ("data", "indices", "indptr"):
                    np.testing.assert_array_equal(getattr(new, name),
                                                  getattr(cut, name))


class TestEvaluate:
    def test_aspen_unweighted_sum(self):
        prob, m, dm, dec = setup_problem("diffusion")
        op = SchwarzOperator(prob, m, dm, dec, variant="aspen", inner=TIGHT)
        u = asm.initial_iterate(prob, dm)
        ev = op.evaluate(u)
        expect = np.zeros(dm.n_dofs)
        for sub in op.subs:
            expect[sub.dofs_ov] += op.local_correction(sub, u).correction
        np.testing.assert_allclose(ev.residual, expect, atol=1e-15)

    def test_raspen_weighted_sum(self):
        prob, m, dm, dec = setup_problem("diffusion")
        op = SchwarzOperator(prob, m, dm, dec, variant="raspen", inner=TIGHT)
        u = asm.initial_iterate(prob, dm)
        ev = op.evaluate(u)
        expect = np.zeros(dm.n_dofs)
        for sub in op.subs:
            expect[sub.dofs_ov] += (sub.weight
                                    * op.local_correction(sub, u).correction)
        np.testing.assert_allclose(ev.residual, expect, atol=1e-15)

    def test_additive_adds_coarse(self):
        prob, m, dm, dec = setup_problem("diffusion")
        P0 = coarse_space(prob, m, dm, dec)
        u = asm.initial_iterate(prob, dm)
        op_a = SchwarzOperator(prob, m, dm, dec, variant="additive", P0=P0,
                               inner=TIGHT, coarse=TIGHT)
        op_r = SchwarzOperator(prob, m, dm, dec, variant="raspen", inner=TIGHT)
        ev_a = op_a.evaluate(u)
        ev_r = op_r.evaluate(u)
        coarse_part = P0 @ ev_a.coarse_state.coefficients
        np.testing.assert_allclose(ev_a.residual, ev_r.residual + coarse_part,
                                   atol=1e-12)

    def test_hybrid_locals_at_coarse_corrected_state(self):
        prob, m, dm, dec = setup_problem("diffusion")
        P0 = coarse_space(prob, m, dm, dec)
        u = asm.initial_iterate(prob, dm)
        op_h = SchwarzOperator(prob, m, dm, dec, variant="hybrid", P0=P0,
                               inner=TIGHT, coarse=TIGHT)
        ev_h = op_h.evaluate(u)
        coarse_part = P0 @ ev_h.coarse_state.coefficients
        w = u - coarse_part
        op_r = SchwarzOperator(prob, m, dm, dec, variant="raspen", inner=TIGHT)
        ev_w = op_r.evaluate(w)
        np.testing.assert_allclose(ev_h.residual, coarse_part + ev_w.residual,
                                   atol=1e-12)


class TestTangent:
    def fd_directional(self, op, u, d, eps):
        rp = op.evaluate(u + eps * d).residual
        rm = op.evaluate(u - eps * d).residual
        return (rp - rm) / (2 * eps)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_fd_consistency(self, variant):
        prob, m, dm, dec = setup_problem("diffusion", nx=8, px=2)
        P0 = coarse_space(prob, m, dm, dec) if variant in ("additive",
                                                           "hybrid") else None
        op = SchwarzOperator(prob, m, dm, dec, variant=variant, P0=P0,
                             inner=TIGHT, coarse=TIGHT)
        rng = np.random.default_rng(7)
        u = asm.initial_iterate(prob, dm) + 0.1 * rng.standard_normal(dm.n_dofs)
        u[dm.dirichlet_mask] = asm.initial_iterate(prob, dm)[dm.dirichlet_mask]
        ev = op.evaluate(u)
        d = rng.standard_normal(dm.n_dofs)
        d[dm.dirichlet_mask] = 0.0
        ap = op.apply_tangent(ev, d)  # before the FD evaluations supersede ev
        fd = self.fd_directional(op, u, d, 1e-6)
        err = np.linalg.norm(ap - fd) / np.linalg.norm(fd)
        assert err < 1e-5, err

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_matches_dense_operator(self, variant):
        """In the aspin mode every local tangent is DF at the state w the
        locals start from, so D F_X is known in closed form: with
        Q_i = P_i (R_i DF P_i)^{-1} R_i DF from a freshly assembled DF(w) and
        Q_0 from DF(u - P0 c), the apply must match the dense operator."""
        prob, m, dm, dec = setup_problem("ldc", nx=8, px=2, Re=100.0)
        two_level = variant in ("additive", "hybrid")
        P0 = coarse_space(prob, m, dm, dec) if two_level else None
        op = SchwarzOperator(prob, m, dm, dec, variant=variant, P0=P0,
                             tangent_mode="aspin", inner=TIGHT, coarse=TIGHT)
        rng = np.random.default_rng(5)
        u = asm.initial_iterate(prob, dm)
        u = np.where(dm.dirichlet_mask, u,
                     u + 0.1 * rng.standard_normal(dm.n_dofs))
        ev = op.evaluate(u)
        n = dm.n_dofs

        def q(P, R, DF):
            return P @ np.linalg.solve(R @ DF @ P, R @ DF)

        w, Q0 = u, np.zeros((n, n))
        if two_level:
            P0d = P0.toarray()
            u0 = u - P0 @ ev.coarse_state.coefficients
            DF0 = asm.assemble_tangent(prob, m, dm, u0).toarray()
            Q0 = q(P0d, P0d.T, DF0)
            if variant == "hybrid":
                w = u0
        DF = asm.assemble_tangent(prob, m, dm, w).toarray()
        multiplicity = np.bincount(
            np.concatenate([sub.dofs_ov for sub in op.subs]), minlength=n)
        weight = np.ones(n) if variant == "aspen" else 1.0 / multiplicity
        locals_ = np.zeros((n, n))
        for sub in op.subs:
            P = np.eye(n)[:, sub.dofs_ov]
            locals_ += weight[:, None] * q(P, P.T, DF)
        dense = (locals_ @ (np.eye(n) - Q0) + Q0 if variant == "hybrid"
                 else locals_ + Q0)
        for _ in range(3):
            x = rng.standard_normal(n)
            expect = dense @ x
            err = (np.linalg.norm(op.apply_tangent(ev, x) - expect)
                   / np.linalg.norm(expect))
            assert err < 1e-10, err

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_stacked_apply_matches_loop(self, variant, monkeypatch):
        """The evaluation and the tangent apply add the weighted local
        terms in the order of a loop over the subdomains, then the coarse
        term, to the bit."""
        monkeypatch.setenv("NLSCHWARZ_WORKERS", "1")
        prob, m, dm, dec = setup_problem("ldc", nx=8, px=2, Re=100.0)
        P0 = (coarse_space(prob, m, dm, dec)
              if variant in ("additive", "hybrid") else None)
        op = SchwarzOperator(prob, m, dm, dec, variant=variant, P0=P0)
        rng = np.random.default_rng(11)
        u = asm.initial_iterate(prob, dm)
        u = np.where(dm.dirichlet_mask, u,
                     u + 0.05 * rng.standard_normal(dm.n_dofs))
        ev = op.evaluate(u)
        cs = ev.coarse_state
        weights = [np.ones(sub.dofs_ov.size) if variant == "aspen"
                   else sub.weight for sub in op.subs]

        def summed(terms, coarse):
            out = np.zeros(dm.n_dofs)
            for sub, w in zip(op.subs, weights):
                out[sub.dofs_ov] += w * terms(sub, op._held[sub.index])
            return out if coarse is None else out + coarse

        np.testing.assert_array_equal(ev.residual, summed(
            lambda sub, st: st.correction,
            None if cs is None else P0 @ cs.coefficients))
        for _ in range(2):
            x = rng.standard_normal(dm.n_dofs)
            q0x = None if cs is None else cs.tangent.apply(x)
            v = x - q0x if variant == "hybrid" else x
            expect = summed(lambda sub, st: v[sub.dofs_ov] + st.tangent.solve(
                st.tangent.coupling @ v[sub.ghosts]), q0x)
            np.testing.assert_array_equal(op.apply_tangent(ev, x), expect)

    def test_aspin_mode_factorizes_the_initial_tangent_once(self,
                                                             monkeypatch):
        """In aspin mode, the factor of A_i(u) from the first local Newton
        step is the one the tangent keeps: one factorization fewer per
        subdomain that took a Newton step, and the tangent of a fresh
        factorization of A_i(u), to the bit."""
        case, P0, u, x = perturbed_cavity()
        calls = []

        def counted(*args, _factorize=schwarz.factorize, **kwargs):
            calls.append(1)
            return _factorize(*args, **kwargs)
        monkeypatch.setattr(schwarz, "factorize", counted)
        monkeypatch.setenv("NLSCHWARZ_WORKERS", "1")
        with SchwarzOperator(*case, variant="raspen",
                             tangent_mode="aspin") as op:
            ev = op.evaluate(u)
            its = [n for n, _ in ev.local_results]
            assert max(its) > 0
            assert len(calls) == sum(its) + its.count(0)
            expect = np.zeros_like(x)
            for sub in op.subs:
                t = schwarz.LocalTangent.of(sub.tangent(u[sub.plan.dofs]),
                                            sub.ghosts)
                expect[sub.dofs_ov] += sub.weight * (x[sub.dofs_ov]
                                                     + t.apply(x))
            np.testing.assert_array_equal(op.apply_tangent(ev, x), expect)

    def test_aspin_mode_differs_from_exact(self):
        prob, m, dm, dec = setup_problem("diffusion", nx=8, px=2)
        rng = np.random.default_rng(3)
        u = asm.initial_iterate(prob, dm) + 0.3 * rng.standard_normal(dm.n_dofs)
        u[dm.dirichlet_mask] = asm.initial_iterate(prob, dm)[dm.dirichlet_mask]
        d = rng.standard_normal(dm.n_dofs)
        outs = {}
        for mode in ("exact", "aspin"):
            op = SchwarzOperator(prob, m, dm, dec, variant="aspen",
                                 tangent_mode=mode, inner=TIGHT)
            ev = op.evaluate(u)
            outs[mode] = op.apply_tangent(ev, d)
        assert not np.allclose(outs["exact"], outs["aspin"])


def perturbed_cavity():
    """The 2x2 cavity at Re 100 on an 8x8 mesh, its coarse space, a
    perturbed state and a direction."""
    prob, m, dm, dec = setup_problem("ldc", nx=8, px=2, Re=100.0)
    P0 = coarse_space(prob, m, dm, dec)
    rng = np.random.default_rng(13)
    u = asm.initial_iterate(prob, dm)
    u = np.where(dm.dirichlet_mask, u,
                 u + 0.05 * rng.standard_normal(dm.n_dofs))
    x = np.where(dm.dirichlet_mask, 0.0, rng.standard_normal(dm.n_dofs))
    return (prob, m, dm, dec), P0, u, x


def is_running(pid):
    """Whether process `pid` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] not in "ZX"
    except FileNotFoundError:
        return False


# a caller that starts its owner processes, prints their pids and waits
CALLER = """
import os, sys, time
os.environ["NLSCHWARZ_WORKERS"] = sys.argv[1]
from nlschwarz import assembly as asm, mesh as msh
from nlschwarz.schwarz import SchwarzOperator
prob = asm.diffusion_problem()
m = msh.build_structured_mesh(8, 8, problem_kind="diffusion")
dm = asm.build_dofmap(prob, m)
dec = msh.partition_structured(m, 2, 2)
msh.extend_overlap(dec, msh.dual_graph(m), 2)
msh.ghost_layer(dec, m)
op = SchwarzOperator(prob, m, dm, dec, variant="raspen")
op.evaluate(asm.initial_iterate(prob, dm))
print(*(proc.pid for proc in op._owners.procs), flush=True)
time.sleep(60)
"""


# an NKS solve that prints its owners' pids in fork order at its first
# GMRES call and waits there
NKS_CALLER = """
import multiprocessing, os, sys, time
os.environ["NLSCHWARZ_WORKERS"] = sys.argv[1]
from nlschwarz import assembly as asm, mesh as msh, outer
prob = asm.diffusion_problem()
m = msh.build_structured_mesh(8, 8, problem_kind="diffusion")
dm = asm.build_dofmap(prob, m)
dec = msh.partition_structured(m, 2, 2)
msh.extend_overlap(dec, msh.dual_graph(m), 1)
msh.ghost_layer(dec, m)

def wait(*args, **kwargs):
    print(*sorted(proc.pid for proc in multiprocessing.active_children()),
          flush=True)
    time.sleep(60)
outer.gmres = wait
outer.solve_nks(prob, m, dm, dec, outer.SolverConfig(variant="nks"))
"""


class TestWorkers:
    def test_owner_processes_match_serial(self, monkeypatch):
        """1, 2 and 3 owner processes give the same bits, in every variant
        and tangent mode."""
        prob, m, dm, dec = setup_problem("diffusion", nx=8, px=2)
        u = asm.initial_iterate(prob, dm)
        monkeypatch.setenv("NLSCHWARZ_WORKERS", "1")
        ev1 = SchwarzOperator(prob, m, dm, dec, variant="raspen",
                              inner=TIGHT).evaluate(u)
        monkeypatch.setenv("NLSCHWARZ_WORKERS", "4")
        with SchwarzOperator(prob, m, dm, dec, variant="raspen",
                             inner=TIGHT) as op:
            np.testing.assert_array_equal(op.evaluate(u).residual,
                                          ev1.residual)

        case, P0, u, x = perturbed_cavity()
        for variant in VARIANTS:
            for mode in ("exact", "aspin"):
                out = []
                for workers in (1, 2, 3):
                    monkeypatch.setenv("NLSCHWARZ_WORKERS", str(workers))
                    with SchwarzOperator(*case, variant=variant, P0=P0,
                                         tangent_mode=mode) as op:
                        ev = op.evaluate(u)
                        out.append((ev.residual, op.apply_tangent(ev, x),
                                    ev.local_results))
                for residual, applied, results in out[1:]:
                    np.testing.assert_array_equal(residual, out[0][0])
                    np.testing.assert_array_equal(applied, out[0][1])
                    assert results == out[0][2]

    def test_factors_built_and_released_in_one_process(self, monkeypatch,
                                                        tmp_path):
        """SciPy's SuperLU frees a factor's memory only on the thread that
        built it, so every factor must be built and released in one
        process: the owner of its subdomain, which has one thread.  The
        patch is installed before the fork, and the owners log to a file."""
        log = tmp_path / "factors"
        counter = itertools.count()

        def record(event, key):
            with open(log, "a") as f:
                f.write(f"{event} {key} {os.getpid()}\n")

        def recorded(*args, _factorize=schwarz.factorize, **kwargs):
            lu = _factorize(*args, **kwargs)
            key = f"{os.getpid()}-{next(counter)}"
            record("built", key)
            weakref.finalize(lu, record, "released", key)
            return lu
        monkeypatch.setattr(schwarz, "factorize", recorded)
        case, P0, u, x = perturbed_cavity()
        monkeypatch.setenv("NLSCHWARZ_WORKERS", "3")
        with SchwarzOperator(*case, variant="hybrid", P0=P0) as op:
            for state in (u, 0.5 * u):
                ev = op.evaluate(state)
                op.apply_tangent(ev, x)
            owners = {proc.pid for proc in op._owners.procs}
        del ev
        pid = {"built": {}, "released": {}}
        for line in log.read_text().splitlines():
            event, key, in_pid = line.split()
            pid[event][key] = int(in_pid)
        assert pid["released"] == pid["built"]
        assert set(pid["built"].values()) == owners | {os.getpid()}

    @pytest.mark.parametrize("workers", [2, 3])
    def test_each_plan_built_once_by_its_owner(self, workers, monkeypatch,
                                              tmp_path):
        """Each subdomain's plan is built by its owner alone, in the first
        evaluation: the caller holds the plans of subdomains 0, W, 2W, ...
        only, and later evaluations and applies build none.  The patch is
        installed before the fork, and the owners log to a file."""
        log = tmp_path / "plans"
        prob, m, dm, dec = setup_problem("diffusion", nx=12, px=3)
        # subdomain index by ghost-extended element set
        index = {np.union1d(*pair).tobytes(): i for i, pair in
                 enumerate(zip(dec.overlap_elements, dec.ghost_elements))}

        def recorded(mesh, dofmap, subset, *args, _plan=asm.AssemblyPlan,
                     **kwargs):
            with open(log, "a") as f:
                f.write(f"{index[subset.tobytes()]} {os.getpid()}\n")
            return _plan(mesh, dofmap, subset, *args, **kwargs)
        monkeypatch.setattr(asm, "AssemblyPlan", recorded)
        x = np.where(dm.dirichlet_mask, 0.0, 1.0)
        monkeypatch.setenv("NLSCHWARZ_WORKERS", str(workers))
        with SchwarzOperator(prob, m, dm, dec, variant="raspen") as op:
            ev = op.evaluate(asm.initial_iterate(prob, dm))
            n = len(op.subs)
            assert n == 9
            assert [sub.index for sub in op.subs if "plan" in vars(sub)] \
                == list(range(0, n, workers))
            first = log.read_text()
            op.apply_tangent(ev, x)
            op.apply_tangent(op.evaluate(0.5 * x), x)
            owners = [os.getpid()] + [proc.pid for proc in op._owners.procs]
        assert log.read_text() == first
        built = sorted(tuple(map(int, line.split()))
                       for line in first.splitlines())
        assert built == [(i, owners[i % workers]) for i in range(n)]

    def test_dropped_operator_stops_its_owners(self, monkeypatch):
        """The owner pool holds no reference back to the operator, so
        dropping the last reference to an operator stops its owners, with
        the cyclic garbage collector off."""
        case, P0, u, x = perturbed_cavity()
        monkeypatch.setenv("NLSCHWARZ_WORKERS", "3")
        op = SchwarzOperator(*case, variant="hybrid", P0=P0)
        op.evaluate(u)
        procs = op._owners.procs
        assert all(proc.is_alive() for proc in procs)
        gc.disable()
        try:
            del op
        finally:
            gc.enable()
        assert not any(proc.is_alive() for proc in procs)

    def test_stale_evaluation_rejected(self, monkeypatch):
        case, P0, u, x = perturbed_cavity()
        for workers in (1, 2):
            monkeypatch.setenv("NLSCHWARZ_WORKERS", str(workers))
            with SchwarzOperator(*case, variant="hybrid", P0=P0) as op:
                old = op.evaluate(u)
                new = op.evaluate(0.5 * u)
                with pytest.raises(RuntimeError, match="superseded"):
                    op.apply_tangent(old, x)
                assert np.all(np.isfinite(op.apply_tangent(new, x)))

    @pytest.mark.parametrize("workers", [2, 3])
    def test_call_after_a_raising_call(self, workers, monkeypatch):
        """The caller's share raises at once, while the owners still work;
        their replies must not be read as replies to the next command."""
        case, P0, u, x = perturbed_cavity()
        xs = [x * (1.0 + 0.1 * j) for j in range(5)]
        monkeypatch.setenv("NLSCHWARZ_WORKERS", "1")
        with SchwarzOperator(*case, variant="hybrid", P0=P0) as op:
            ev = op.evaluate(u)
            expect = [ev.residual] + [op.apply_tangent(ev, x) for x in xs]
        caller, failed = os.getpid(), []
        original = SchwarzOperator.local_correction

        def first_fails(self, sub, v):
            if os.getpid() == caller and not failed:
                failed.append(sub.index)
                raise NonPhysicalStateError("injected")
            return original(self, sub, v)
        monkeypatch.setattr(SchwarzOperator, "local_correction", first_fails)
        monkeypatch.setenv("NLSCHWARZ_WORKERS", str(workers))
        with SchwarzOperator(*case, variant="hybrid", P0=P0) as op:
            with pytest.raises(NonPhysicalStateError, match="injected"):
                op.evaluate(0.5 * u)
            ev = op.evaluate(u)
            got = [ev.residual] + [op.apply_tangent(ev, x) for x in xs]
            for a, b in zip(got, expect):
                np.testing.assert_array_equal(a, b)

    @staticmethod
    def gone_within(pids, seconds):
        deadline = time.monotonic() + seconds
        while any(map(is_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        return not any(map(is_running, pids))

    def killed_caller_leaves_no_owner(self, script, workers):
        """Each owner sees the caller exit by itself: with 3 workers, the
        last owner is stopped while the caller is killed, and the first
        must still exit."""
        src = Path(schwarz.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        caller = subprocess.Popen([sys.executable, "-c", script, str(workers)],
                                  stdout=subprocess.PIPE, text=True, env=env)
        pids = []
        try:
            pids = [int(pid) for pid in caller.stdout.readline().split()]
            assert len(pids) == workers - 1
            assert all(is_running(pid) for pid in pids)
            stopped = pids[1:]
            for pid in stopped:
                os.kill(pid, signal.SIGSTOP)
            caller.send_signal(signal.SIGKILL)
            caller.wait(timeout=10)
            assert self.gone_within(pids[:1], 5)
            for pid in stopped:
                os.kill(pid, signal.SIGCONT)
            assert self.gone_within(stopped, 5)
        finally:
            caller.kill()
            caller.wait(timeout=10)
            caller.stdout.close()
            for pid in filter(is_running, pids):
                os.kill(pid, signal.SIGKILL)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_owners_exit_when_the_caller_is_killed(self, workers):
        self.killed_caller_leaves_no_owner(CALLER, workers)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_nks_owners_exit_when_the_caller_is_killed(self, workers):
        self.killed_caller_leaves_no_owner(NKS_CALLER, workers)


class TestLifetimes:
    def test_next_coarse_correction_starts_with_no_local_state(
            self, monkeypatch):
        """An evaluation releases the last one's local states before its
        coarse correction, so the caller holds none when it starts; after
        the evaluation the caller holds the states of its own subdomains,
        0, W, 2W, ..., for the tangent applies."""
        case, P0, u, x = perturbed_cavity()
        held = []
        with SchwarzOperator(*case, variant="hybrid", P0=P0) as op:
            correction = op.coarse_correction

            def recorded(*args):
                held.append(sorted(op._held))
                return correction(*args)
            monkeypatch.setattr(op, "coarse_correction", recorded)
            own = list(range(0, len(op.subs), op.workers))
            for state in (u, 0.5 * u, u):
                ev = op.evaluate(state)
                assert sorted(op._held) == own
                assert np.all(np.isfinite(op.apply_tangent(ev, x)))
        assert held == [[], [], []]


class TestCoarseTangent:
    """`CoarseTangent` on the 2x2, H/h = 6 cavity at Re 100."""

    @staticmethod
    def case():
        prob, m, dm, dec = setup_problem("ldc", nx=12, px=2, Re=100.0)
        P0 = coarse_space(prob, m, dm, dec)
        rng = np.random.default_rng(8)
        u = asm.initial_iterate(prob, dm)
        u = np.where(dm.dirichlet_mask, u,
                     u + 0.05 * rng.standard_normal(dm.n_dofs))
        return P0, asm.assemble_tangent(prob, m, dm, u), rng

    def test_apply_matches_dense_q0(self):
        P0, DF, rng = self.case()
        q0 = schwarz.CoarseTangent.of(P0, P0.T.tocsr(), DF)
        P, A = P0.toarray(), DF.toarray()
        for _ in range(3):
            x = rng.standard_normal(DF.shape[0])
            expect = P @ np.linalg.solve(P.T @ A @ P, P.T @ A @ x)
            err = np.linalg.norm(q0.apply(x) - expect) / np.linalg.norm(expect)
            assert err < 1e-12, err

    @pytest.mark.parametrize("defect", ["zero row", "nan"])
    def test_singular_raises(self, defect):
        """A zero row of A_0 = R_0 DF P_0, here from a zero row of R_0, is an
        exactly zero pivot; a NaN entry of DF on the support of P_0 reaches
        A_0.  Both raise."""
        P0, DF, _ = self.case()
        R0 = P0.T.tocsr()
        if defect == "zero row":
            keep = np.ones(P0.shape[1])
            keep[1] = 0.0
            R0 = sp.diags(keep) @ R0
        else:
            bump = np.zeros(DF.shape[0])
            bump[np.flatnonzero(np.diff(P0.indptr))[0]] = np.nan
            DF = DF + sp.diags(bump)
        with pytest.raises(np.linalg.LinAlgError,
                           match="^coarse tangent is singular$"):
            schwarz.CoarseTangent.of(P0, R0, DF)


class TestHeldMemory:
    def test_evaluation_holds_little_beyond_its_arrays(self, monkeypatch):
        """What one hybrid evaluation keeps, as tracemalloc sees it, is
        about the bytes of the arrays it returns: the 4 held SuperLU factors
        add no numpy copies of their L and U (see `sparse.Factorization`).
        Each local coupling covers only the subdomain's ghost columns, the
        overlap block living on in the factor alone, and the coarse level
        keeps R0 DF, not DF."""
        prob, m, dm, dec = setup_problem("ldc", nx=12, px=2, Re=100.0)
        P0 = coarse_space(prob, m, dm, dec)
        monkeypatch.setenv("NLSCHWARZ_WORKERS", "1")
        op = SchwarzOperator(prob, m, dm, dec, variant="hybrid", P0=P0)
        u = asm.initial_iterate(prob, dm)
        for sub in op.subs:   # built once, outside the window
            sub.plan, sub.ghosts
        tracemalloc.start()
        try:
            ev = op.evaluate(u)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

        def nbytes(a):
            if sp.issparse(a):
                return a.data.nbytes + a.indices.nbytes + a.indptr.nbytes
            return a.nbytes
        cs = ev.coarse_state
        states = [op._held[sub.index] for sub in op.subs]
        for sub, st in zip(op.subs, states):
            np.testing.assert_array_equal(
                sub.ghosts, sub.plan.dofs[sub.dofs_ov.size:])
            assert st.tangent.coupling.shape == (sub.dofs_ov.size,
                                                 sub.plan.n - sub.dofs_ov.size)
        assert cs.tangent.coupling.shape == (P0.shape[1], dm.n_dofs)
        arrays = ([st.correction for st in states]
                  + [st.tangent.coupling for st in states]
                  + [cs.coefficients, *cs.tangent.lu, cs.tangent.coupling,
                     ev.residual])
        assert held <= 1.1 * sum(nbytes(a) for a in arrays), held

    def test_local_correction_peak(self):
        """One local correction allocates little beyond the tangents it
        assembles: A_i and C_i come out of assembly, not out of copies cut
        from a tangent over the ghost-extended rows.  The peak measures
        330-350 kB on the four subdomains, against 580-600 kB with such
        cuts; the bound leaves 20% over 350 kB."""
        prob, m, dm, dec = setup_problem("ldc", nx=12, px=2, Re=100.0)
        P0 = coarse_space(prob, m, dm, dec)
        op = SchwarzOperator(prob, m, dm, dec, variant="hybrid", P0=P0)
        u = asm.initial_iterate(prob, dm)
        sub = op.subs[-1]     # at the lid, so that Newton iterates
        sub.plan              # built outside the window
        tracemalloc.start()
        try:
            st = op.local_correction(sub, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert st.iterations >= 1
        assert peak <= 420_000, peak


class TestNoRepeatedAssembly:
    @staticmethod
    def recorded(monkeypatch, kind, full_mesh_only=False):
        """The states `assemble_<kind>` sees from now on, as bytes."""
        seen = []

        def counted(*args, _assemble=getattr(asm, f"assemble_{kind}"),
                    **kwargs):
            if not full_mesh_only or kwargs.get("subset") is None:
                seen.append(np.array(args[3], dtype=np.float64).tobytes())
            return _assemble(*args, **kwargs)
        monkeypatch.setattr(asm, f"assemble_{kind}", counted)
        return seen

    def test_no_state_assembled_twice(self, monkeypatch):
        """The accepted line-search trial's residual is reused, and the
        coarse correction assembles DF(u) once, for its first Newton step."""
        prob, m, dm, dec = setup_problem("ldc", nx=8, px=2, Re=100.0)
        P0 = coarse_space(prob, m, dm, dec)
        op = SchwarzOperator(prob, m, dm, dec, variant="hybrid", P0=P0)
        u = asm.initial_iterate(prob, dm)
        states = {kind: self.recorded(monkeypatch, kind)
                  for kind in ("residual", "tangent")}
        cs = op.coarse_correction(u)
        st = op.local_correction(op.subs[0], u - P0 @ cs.coefficients)
        assert cs.iterations >= 1 and st.iterations >= 1
        for kind, seen in states.items():
            repeated = len(seen) - len(set(seen))
            assert repeated == 0, f"{repeated} {kind} states assembled twice"

    def test_outer_steps_assemble_no_global_residual_twice(self, monkeypatch):
        """Across outer steps, the accepted trial's F(u) is also the first
        coarse residual of the next evaluation."""
        prob, m, dm, dec = setup_problem("ldc", nx=8, px=2, Re=100.0)
        P0 = coarse_space(prob, m, dm, dec)
        seen = self.recorded(monkeypatch, "residual", full_mesh_only=True)
        _, rep = solve_nonlinear_schwarz(prob, m, dm, dec, SolverConfig(),
                                         P0=P0)
        assert rep.outer_iterations >= 2
        repeated = len(seen) - len(set(seen))
        assert repeated == 0, f"{repeated} global residual states assembled twice"
