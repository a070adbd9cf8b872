"""Acceptance criteria for the nonlinear Schwarz solver framework.

Each test prints a single PASS/FAIL line.  Criteria 1-8 are property-based
and fast.  Criteria 9-13, which are to reproduce published solver behavior
at desk scale under the ``slow`` marker (weak scaling, the coarse spaces on
the beam, an Re sweep against NKS, exact against ASPIN tangent, runs on
several owner processes against serial runs), are not written yet; ROADMAP
item 5 keeps them open.
"""

import time

import numpy as np
import pytest

from nlschwarz import assembly as asm
from nlschwarz import coarse as crs
from nlschwarz import mesh as msh
from nlschwarz.outer import (GmresParams, SolverConfig, beam_config,
                             solve_nks, solve_nonlinear_schwarz)
from nlschwarz.schwarz import NewtonParams, SchwarzOperator
from nlschwarz.sparse import factorize

TIGHT = NewtonParams(rel_tol=1e-14, abs_tol=1e-14, max_iter=50)


def report(num, name, ok, detail=""):
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {name}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {name} {detail}"


def build_case(kind, nx, ny, px, py, overlap, domain=None, **prob_kw):
    if kind == "ldc":
        prob = asm.ldc_problem(prob_kw.get("Re", 100.0))
    elif kind == "beam":
        prob = asm.beam_problem(prob_kw.get("fy", 1.0))
    else:
        prob = asm.diffusion_problem()
    m = msh.build_structured_mesh(nx, ny, domain=domain or (0, 1, 0, 1),
                                  problem_kind=kind)
    dm = asm.build_dofmap(prob, m)
    dec = msh.partition_structured(m, px, py)
    msh.extend_overlap(dec, msh.dual_graph(m), overlap)
    msh.ghost_layer(dec, m)
    skel = msh.interface_skeleton(dec, m)
    return prob, m, dm, dec, skel


ALL_SPACES = [("gdsw", False), ("rgdsw", False), ("msfem", False),
              ("rgdsw", True), ("msfem", True)]


def reproduced(P0, labels, iface, name, z):
    """The mode `name`, z, from P0: the sum of the mode's columns if it kept
    one on every entity of its family, else the combination of all columns
    that fits z on the interface DOFs `iface` best."""
    ents = {nm: {e for e, n in labels if n == nm} for _, nm in labels}
    family = set().union(*(s for s in ents.values() if s & ents[name]))
    if ents[name] == family:
        cols = [c for c, (_, nm) in enumerate(labels) if nm == name]
        return np.asarray(P0[:, cols].sum(axis=1)).ravel()
    return P0 @ np.linalg.lstsq(P0[iface].toarray(), z[iface], rcond=None)[0]


def test_criterion_1_partition_of_unity():
    """All five interface-function families sum to one on Gamma'."""
    prob, m, dm, dec, skel = build_case("diffusion", 16, 16, 4, 4, 2)
    worst = 0.0
    worst_dir = 0.0
    for kind, modified in ALL_SPACES:
        ents = crs.interface_functions(m, skel, kind, modified=modified)
        total = np.zeros(m.n_nodes)
        for e in ents:
            total[e.nodes] += e.node_values
        gamma_prime = skel.interface_nodes[
            ~m.dirichlet_nodes[skel.interface_nodes]]
        worst = max(worst, np.abs(total[gamma_prime] - 1.0).max())
        dirichlet_iface = skel.interface_nodes[
            m.boundary_tag[skel.interface_nodes] == msh.DIRICHLET]
        worst_dir = max(worst_dir, np.abs(total[dirichlet_iface]).max())
    ok = worst < 1e-12 and worst_dir == 0.0
    report(1, "partition of unity on Gamma'", ok,
           f"max |sum-1| = {worst:.2e}, max on Dirichlet = {worst_dir:.2e}")


def test_criterion_2_nullspace_reproduction():
    """Coarse columns reproduce the operator nullspace on interior subdomains:
    their sum does, or, for a beam mode that lost dependent columns, their
    fit on the interface."""
    worst = 0.0
    for problem_kind in ("diffusion", "beam", "ldc"):
        if problem_kind == "beam":
            prob, m, dm, dec, skel = build_case("beam", 16, 4, 4, 1, 2,
                                                domain=(0, 5, 0, 1))
            interior = [1, 2]
        else:
            prob, m, dm, dec, skel = build_case(problem_kind, 16, 16, 4, 4, 2)
            interior = [5, 6, 9, 10]
        for kind, modified in (("gdsw", False), ("msfem", True)):
            P0, ents, labels = crs.build_coarse_space(prob, m, dm, dec, kind,
                                                      modified)
            iface = crs.interface_dofs(dm, skel)
            iface = iface[~dm.dirichlet_mask[iface]]
            for name, z in asm.nullspace_basis(prob, dm).items():
                x = reproduced(P0, labels, iface, name, z)
                for i in interior:
                    dofs = asm.subset_dofs(dm, m, np.flatnonzero(dec.owner == i))
                    dofs = dofs[~dm.dirichlet_mask[dofs]]
                    err = (np.linalg.norm(x[dofs] - z[dofs])
                           / np.linalg.norm(z[dofs]))
                    worst = max(worst, err)
    ok = worst < 1e-9
    report(2, "nullspace reproduction on interior subdomains", ok,
           f"max rel err = {worst:.2e}")


def test_criterion_3_harmonic_extension():
    """Interior residual vanishes; dense Schur oracle on 2 subdomains."""
    prob, m, dm, dec, skel = build_case("ldc", 12, 12, 3, 3, 2)
    u0 = asm.initial_iterate(prob, dm)
    A0 = asm.assemble_tangent(prob, m, dm, u0)
    # the monolithic extension with the full saddle-point tangent is
    # harmonic in every field at once, off-field blocks included
    Phi0, _, _ = crs.coarse_interface_basis(prob, m, dm, skel, "rgdsw", True)
    iface = crs.interface_dofs(dm, skel)
    P0 = crs.harmonic_extension(A0, dm, iface, Phi0, dec)
    fixed = np.zeros(dm.n_dofs, dtype=bool)
    fixed[iface] = True
    fixed |= dm.dirichlet_mask
    R = (A0 @ P0).toarray()[~fixed]
    res = np.abs(R).max() / np.abs(A0.toarray()).max()

    prob2, m2, dm2, dec2, _ = build_case("diffusion", 8, 8, 2, 2, 1)
    dec2 = msh.partition_structured(m2, 2, 1)
    skel2 = msh.interface_skeleton(dec2, m2)
    A2 = asm.assemble_tangent(prob2, m2, dm2,
                              asm.initial_iterate(prob2, dm2))
    Phi, _, _ = crs.coarse_interface_basis(prob2, m2, dm2, skel2, "msfem",
                                           True)
    iface2 = crs.interface_dofs(dm2, skel2)
    P2 = crs.harmonic_extension(A2, dm2, iface2, Phi, dec2)
    fixed2 = np.zeros(dm2.n_dofs, dtype=bool)
    fixed2[iface2] = True
    fixed2 |= dm2.dirichlet_mask
    I = np.flatnonzero(~fixed2)
    B = np.flatnonzero(fixed2)
    Ad = A2.toarray()
    oracle = -np.linalg.solve(Ad[np.ix_(I, I)],
                              Ad[np.ix_(I, B)] @ Phi.toarray()[B])
    schur_err = np.abs(P2.toarray()[I] - oracle).max()
    ok = res < 1e-10 and schur_err < 1e-10
    report(3, "discrete harmonic extension", ok,
           f"interior residual = {res:.2e}, Schur oracle err = {schur_err:.2e}")


def test_criterion_4_ghost_layer_identity():
    """Local assembly over the ghost-extended patch equals the restricted
    global assembly for random states on each problem."""
    cases = [build_case("diffusion", 12, 12, 2, 2, 2),
             build_case("ldc", 12, 12, 2, 2, 2),
             build_case("beam", 16, 4, 4, 1, 2, domain=(0, 5, 0, 1))]
    worst = 0.0
    for prob, m, dm, dec, skel in cases:
        op = SchwarzOperator(prob, m, dm, dec,
                             variant="raspen", inner=TIGHT)
        rng = np.random.default_rng(42)
        base = asm.initial_iterate(prob, dm)
        for _ in range(10):
            u = base + 0.01 * rng.standard_normal(dm.n_dofs)
            u[dm.dirichlet_mask] = base[dm.dirichlet_mask]
            r_glob = asm.assemble_residual(prob, m, dm, u)
            for sub in op.subs:
                r_loc = asm.assemble_residual(prob, m, dm, u,
                                              subset=sub.plan.elems,
                                              plan=sub.plan)
                err = (np.linalg.norm(r_loc - r_glob[sub.dofs_ov])
                       / max(np.linalg.norm(r_glob), 1e-30))
                worst = max(worst, err)
    ok = worst < 1e-13
    report(4, "ghost-layer assembly identity", ok, f"max rel err = {worst:.2e}")


def test_criterion_5_tangent_fd_consistency():
    """FD directional derivatives of F_X match the exact tangent."""
    prob, m, dm, dec, skel = build_case("diffusion", 10, 10, 2, 2, 2)
    P0, _, _ = crs.build_coarse_space(prob, m, dm, dec, "rgdsw", True)
    rng = np.random.default_rng(3)
    base = asm.initial_iterate(prob, dm)
    worst = 0.0
    for variant in ("aspen", "raspen", "additive", "hybrid"):
        p0 = P0 if variant in ("additive", "hybrid") else None
        with SchwarzOperator(prob, m, dm, dec, variant=variant, P0=p0,
                             inner=TIGHT, coarse=TIGHT) as op:
            for state in range(5):
                u = base + 0.2 * rng.standard_normal(dm.n_dofs)
                u[dm.dirichlet_mask] = base[dm.dirichlet_mask]
                ev = op.evaluate(u)
                ds = []
                for direction in range(3):
                    d = rng.standard_normal(dm.n_dofs)
                    d[dm.dirichlet_mask] = 0.0
                    ds.append(d)
                # before the FD evaluations supersede ev
                aps = [op.apply_tangent(ev, d) for d in ds]
                eps = 1e-6
                for d, ap in zip(ds, aps):
                    fd = (op.evaluate(u + eps * d).residual
                          - op.evaluate(u - eps * d).residual) / (2 * eps)
                    err = np.linalg.norm(ap - fd) / np.linalg.norm(fd)
                    worst = max(worst, err)
    ok = worst < 1e-5
    report(5, "tangent consistency (FD oracle, all variants)", ok,
           f"max rel err = {worst:.2e}")


def test_criterion_6_raspen_identity():
    prob, m, dm, dec, skel = build_case("diffusion", 12, 12, 3, 3, 2)
    op = SchwarzOperator(prob, m, dm, dec, variant="raspen")
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        x = rng.standard_normal(dm.n_dofs)
        acc = np.zeros_like(x)
        for sub in op.subs:
            acc[sub.dofs_ov] += sub.weight * x[sub.dofs_ov]
        worst = max(worst, np.abs(acc - x).max())
    ok = worst < 1e-15
    report(6, "RASPEN partition-of-unity identity", ok,
           f"max err = {worst:.2e}")


def test_criterion_7_solver_equivalence():
    """All variants and plain Newton find the same diffusion solution."""
    prob, m, dm, dec, skel = build_case("diffusion", 16, 16, 2, 2, 2)
    u = asm.initial_iterate(prob, dm)
    for _ in range(30):
        r = asm.assemble_residual(prob, m, dm, u)
        if np.linalg.norm(r) < 1e-13:
            break
        u = u - factorize(asm.assemble_tangent(prob, m, dm, u)).solve(r)
    u_newton = u
    P0, _, _ = crs.build_coarse_space(prob, m, dm, dec, "rgdsw", True)
    outer = NewtonParams(rel_tol=1e-11, abs_tol=1e-12, max_iter=25)
    gp = GmresParams(rel_tol=1e-10, max_iter=500)
    worst = 0.0
    for variant in ("aspen", "raspen", "additive", "hybrid"):
        p0 = P0 if variant in ("additive", "hybrid") else None
        cfg = SolverConfig(outer=outer, inner=TIGHT, coarse=TIGHT, gmres=gp,
                           variant=variant)
        sol, rep = solve_nonlinear_schwarz(prob, m, dm, dec, cfg, P0=p0)
        assert rep.converged, variant
        worst = max(worst, np.abs(sol - u_newton).max())
    cfg = SolverConfig(outer=outer, gmres=gp)
    sol, rep = solve_nks(prob, m, dm, dec, cfg, P0=P0)
    assert rep.converged
    worst = max(worst, np.abs(sol - u_newton).max())
    ok = worst < 1e-6
    report(7, "solver equivalence on diffusion", ok,
           f"max |u - u_Newton| = {worst:.2e}")


def test_criterion_8_linear_degeneration():
    """On a linear problem the one-level tangent equals the explicit linear
    Schwarz operator (dense oracle, 2 subdomains)."""
    prob = asm.diffusion_problem("constant")
    m = msh.build_structured_mesh(8, 8, problem_kind="diffusion")
    dm = asm.build_dofmap(prob, m)
    dec = msh.partition_structured(m, 2, 1)
    msh.extend_overlap(dec, msh.dual_graph(m), 2)
    msh.ghost_layer(dec, m)
    A = asm.assemble_tangent(prob, m, dm, np.zeros(dm.n_dofs)).toarray()
    worst = 0.0
    for variant in ("aspen", "raspen"):
        with SchwarzOperator(prob, m, dm, dec, variant=variant,
                             inner=TIGHT) as op:
            u = asm.initial_iterate(prob, dm)
            ev = op.evaluate(u)
            M = np.zeros_like(A)
            for sub in op.subs:
                d = sub.dofs_ov
                w = np.ones(d.size) if variant == "aspen" \
                    else sub.weight
                Ai = np.linalg.inv(A[np.ix_(d, d)])
                M[d] += (w[:, None] * Ai) @ A[d]
            rng = np.random.default_rng(5)
            for _ in range(5):
                x = rng.standard_normal(dm.n_dofs)
                err = (np.linalg.norm(op.apply_tangent(ev, x) - M @ x)
                       / np.linalg.norm(M @ x))
                worst = max(worst, err)
    ok = worst < 1e-10
    report(8, "linear-problem degeneration to linear Schwarz", ok,
           f"max rel err = {worst:.2e}")
