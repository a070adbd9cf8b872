"""SchwarzOperator tests: corrections, variants, tangent consistency."""

import sys

import numpy as np
import pytest

from nlschwarz import assembly as asm
from nlschwarz import coarse as crs
from nlschwarz import mesh as msh
from nlschwarz.assembly import NonPhysicalStateError
from nlschwarz.schwarz import (VARIANTS, NewtonParams, SchwarzOperator,
                               backtracking_step)

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
    msh.ghost_layer(dec, msh.nodal_graph(m), mesh=m)
    return prob, m, dm, dec


def coarse_space(prob, m, dm, dec, kind="rgdsw", modified=True):
    skel = msh.interface_skeleton(dec, m)
    u0 = asm.initial_iterate(prob, dm)
    A0 = asm.assemble_tangent(prob, m, dm, u0)
    P0, _, _ = crs.build_coarse_space(prob, m, dm, skel, A0, kind, modified,
                                      decomp=dec)
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
        assert s == p.ls_theta ** k
        assert r[0] == nrm == abs(s - 0.1) + 0.5

    def test_stops_at_increment_tolerance(self):
        p = NewtonParams(ls_s_min=1e-2, ls_theta=0.5)
        s, k, r, nrm = backtracking_step(self.residual(lambda s: 2.0), 1.0, p)
        assert s * p.ls_theta < p.ls_s_min <= s
        assert s == p.ls_theta ** k

    def test_nonphysical_counts_as_infinite(self):
        p = NewtonParams()

        def trial(s):
            if s > 0.4:
                raise NonPhysicalStateError("det F <= 0")
            return np.array([0.1])
        s, k, r, nrm = backtracking_step(trial, 1.0, p)
        assert s <= 0.4
        assert s == p.ls_theta ** k
        assert np.isfinite(nrm)

    def test_failed_last_trial_returns_no_residual(self):
        p = NewtonParams(line_search=False)

        def trial(s):
            raise NonPhysicalStateError("det F <= 0")
        s, k, r, nrm = backtracking_step(trial, 1.0, p)
        assert (s, k, r, nrm) == (1.0, 0, None, np.inf)


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
                acc[sub.dofs_ov] += (op.pou_weight * x)[sub.dofs_ov]
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


class TestEvaluate:
    def test_aspen_unweighted_sum(self):
        prob, m, dm, dec = setup_problem("diffusion")
        op = SchwarzOperator(prob, m, dm, dec, variant="aspen", inner=TIGHT)
        u = asm.initial_iterate(prob, dm)
        ev = op.evaluate(u)
        expect = np.zeros(dm.n_dofs)
        for sub, st in zip(op.subs, ev.local_states):
            expect[sub.dofs_ov] += st.correction
        np.testing.assert_allclose(ev.residual, expect, atol=1e-15)

    def test_raspen_weighted_sum(self):
        prob, m, dm, dec = setup_problem("diffusion")
        op = SchwarzOperator(prob, m, dm, dec, variant="raspen", inner=TIGHT)
        u = asm.initial_iterate(prob, dm)
        ev = op.evaluate(u)
        expect = np.zeros(dm.n_dofs)
        for sub, st in zip(op.subs, ev.local_states):
            expect[sub.dofs_ov] += (op.pou_weight[sub.dofs_ov]
                                    * st.correction)
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
        fd = self.fd_directional(op, u, d, 1e-6)
        ap = op.apply_tangent(ev, d)
        err = np.linalg.norm(ap - fd) / np.linalg.norm(fd)
        assert err < 1e-5, err

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


class TestWorkers:
    def test_threaded_matches_serial(self):
        prob, m, dm, dec = setup_problem("diffusion", nx=8, px=2)
        u = asm.initial_iterate(prob, dm)
        ev1 = SchwarzOperator(prob, m, dm, dec, variant="raspen",
                              inner=TIGHT, workers=1).evaluate(u)
        ev2 = SchwarzOperator(prob, m, dm, dec, variant="raspen",
                              inner=TIGHT, workers=4).evaluate(u)
        np.testing.assert_allclose(ev1.residual, ev2.residual, atol=1e-15)

        # two-level cavity: the worker threads share the assembly plans, so
        # switch threads often to expose any write to shared plan data
        prob, m, dm, dec = setup_problem("ldc", nx=8, px=2, Re=100.0)
        P0 = coarse_space(prob, m, dm, dec)
        u = asm.initial_iterate(prob, dm)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            evs = [SchwarzOperator(prob, m, dm, dec, variant="hybrid", P0=P0,
                                   workers=w).evaluate(u) for w in (1, 4)]
        finally:
            sys.setswitchinterval(interval)
        np.testing.assert_array_equal(evs[0].residual, evs[1].residual)


class TestNoRepeatedAssembly:
    def test_no_state_assembled_twice(self, monkeypatch):
        """The accepted line-search trial's residual is reused, and the first
        coarse correction assembles DF(u) once for the deflation and the
        first Newton step."""
        prob, m, dm, dec = setup_problem("ldc", nx=8, px=2, Re=100.0)
        P0 = coarse_space(prob, m, dm, dec)
        op = SchwarzOperator(prob, m, dm, dec, variant="hybrid", P0=P0)
        u = asm.initial_iterate(prob, dm)
        states = {"residual": [], "tangent": []}
        for kind, seen in states.items():
            def counted(*args, _assemble=getattr(asm, f"assemble_{kind}"),
                        _seen=seen, **kwargs):
                _seen.append(np.array(args[3], dtype=np.float64).tobytes())
                return _assemble(*args, **kwargs)
            monkeypatch.setattr(asm, f"assemble_{kind}", counted)
        cs = op.coarse_correction(u)
        st = op.local_correction(op.subs[0], u - P0 @ cs.coefficients)
        assert cs.iterations >= 1 and st.iterations >= 1
        for kind, seen in states.items():
            repeated = len(seen) - len(set(seen))
            assert repeated == 0, f"{repeated} {kind} states assembled twice"
