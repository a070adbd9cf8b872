"""Outer Newton drivers for the nonlinear Schwarz variants and NKS.

The nonlinear Schwarz solver runs Newton on the preconditioned residual
F_X(u): each iteration evaluates the local (and coarse) corrections, solves
D F_X(u) du = F_X(u) with unpreconditioned GMRES, and damps the update with a
backtracking line search.  Convergence is monitored on the unpreconditioned
residual norm ||F(u_k)|| so the curves are directly comparable with NKS; the
preconditioned norm is recorded alongside.

The NKS baseline is Newton on F(u) with GMRES left-preconditioned by a linear
additive two-level Schwarz operator built from the same subdomains and coarse
space, refreshed at every Newton step.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from . import assembly as asm
from .assembly import DofMap, NonPhysicalStateError, ProblemSpec
from .mesh import Decomposition, Mesh
from .schwarz import (NewtonParams, SchwarzOperator, TrialResidual,
                      backtracking_step)
from .sparse import factorize, gmres


@dataclass
class GmresParams:
    rel_tol: float = 1e-4
    max_iter: int = 1000
    restart: int | None = 500


@dataclass
class SolverConfig:
    outer: NewtonParams = field(default_factory=lambda: NewtonParams(
        rel_tol=1e-6, abs_tol=1e-6, max_iter=10))
    inner: NewtonParams = field(default_factory=NewtonParams)
    coarse: NewtonParams = field(default_factory=NewtonParams)
    gmres: GmresParams = field(default_factory=GmresParams)
    variant: str = "hybrid"
    tangent_mode: str = "exact"
    coarse_kind: str = "rgdsw"
    modified: bool = False


def ldc_config(**overrides) -> SolverConfig:
    cfg = SolverConfig(
        outer=NewtonParams(rel_tol=1e-6, abs_tol=1e-6, max_iter=10),
        inner=NewtonParams(rel_tol=1e-3, abs_tol=1e-14, max_iter=10),
        coarse=NewtonParams(rel_tol=1e-3, abs_tol=1e-14, max_iter=10),
        gmres=GmresParams(rel_tol=1e-4, max_iter=1000, restart=500))
    for k, v in overrides.items():
        setattr(cfg, k, v)
    return cfg


def beam_config(**overrides) -> SolverConfig:
    cfg = SolverConfig(
        outer=NewtonParams(rel_tol=1e-4, abs_tol=1e-20, max_iter=10,
                           line_search=False),
        inner=NewtonParams(rel_tol=1e-3, abs_tol=1e-9, max_iter=15,
                           line_search=False),
        coarse=NewtonParams(rel_tol=1e-3, abs_tol=1e-9, max_iter=15,
                            line_search=False),
        gmres=GmresParams(rel_tol=1e-6, max_iter=100, restart=None),
        coarse_kind="msfem", modified=True)
    for k, v in overrides.items():
        setattr(cfg, k, v)
    return cfg


@dataclass
class SolveReport:
    converged: bool = False
    reason: str = ""
    residuals: list[float] = field(default_factory=list)        # ||F||/||F0||
    precond_residuals: list[float] = field(default_factory=list)  # ||F_X||
    gmres_iterations: list[int] = field(default_factory=list)
    inner_iterations: list[float] = field(default_factory=list)
    coarse_iterations: list[int] = field(default_factory=list)
    line_search_steps: list[int] = field(default_factory=list)
    timings: dict = field(default_factory=lambda: {
        "Inner solve": 0.0, "Coarse solve": 0.0, "GMRES": 0.0, "Other": 0.0})
    # per-outer-iteration wall times, same categories as `timings`
    timing_history: list[tuple[float, float, float, float]] = field(default_factory=list)

    @property
    def outer_iterations(self) -> int:
        return len(self.gmres_iterations)

    @property
    def total_gmres(self) -> int:
        return int(sum(self.gmres_iterations))

    @property
    def total_coarse(self) -> int:
        return int(sum(self.coarse_iterations))

    @property
    def avg_inner(self) -> float:
        return float(np.mean(self.inner_iterations)) if self.inner_iterations else 0.0


def _ls_steps(s: float, theta: float) -> int:
    k = 0
    while s < 1.0 - 1e-12:
        s /= theta
        k += 1
    return k


def solve_nonlinear_schwarz(problem: ProblemSpec, mesh: Mesh, dofmap: DofMap,
                            decomp: Decomposition, cfg: SolverConfig,
                            P0=None, u0: np.ndarray | None = None
                            ) -> tuple[np.ndarray, SolveReport]:
    t_start = time.perf_counter()
    op = SchwarzOperator(problem, mesh, dofmap, decomp, variant=cfg.variant,
                         P0=P0, tangent_mode=cfg.tangent_mode,
                         inner=cfg.inner, coarse=cfg.coarse)
    u = asm.initial_iterate(problem, dofmap) if u0 is None else u0.copy()
    rep = SolveReport()
    p = cfg.outer
    plan = asm.global_plan(mesh, dofmap)

    def fnorm(v):
        return np.linalg.norm(asm.assemble_residual(problem, mesh, dofmap, v,
                                                    plan=plan))

    norm0 = fnorm(u)
    rep.residuals.append(1.0)
    tol = max(p.rel_tol * norm0, p.abs_tol)
    nrm = norm0
    ev = None
    for k in range(p.max_iter):
        if nrm <= tol:
            rep.converged = True
            rep.reason = "residual tolerance reached"
            break
        t_it = time.perf_counter()
        # release the previous iteration's factorizations before building
        # the next set; holding both doubles the peak memory
        ev = None
        try:
            ev = op.evaluate(u)
        except (NonPhysicalStateError, np.linalg.LinAlgError) as exc:
            rep.reason = f"evaluation failed: {exc}"
            break
        rep.timings["Inner solve"] += ev.timings["inner"]
        rep.timings["Coarse solve"] += ev.timings["coarse"]
        rep.precond_residuals.append(float(np.linalg.norm(ev.residual)))

        t0 = time.perf_counter()
        du, g_its, g_ok = gmres(lambda x: op.apply_tangent(ev, x), ev.residual,
                                rel_tol=cfg.gmres.rel_tol,
                                max_iter=cfg.gmres.max_iter,
                                restart=cfg.gmres.restart)
        t_gmres = time.perf_counter() - t0
        rep.timings["GMRES"] += t_gmres
        rep.gmres_iterations.append(g_its)
        rep.inner_iterations.append(ev.inner_iterations)
        rep.coarse_iterations.append(ev.coarse_iterations)

        if p.line_search:
            def trial(s):
                return fnorm(u - s * du)
            s, new_nrm = backtracking_step(trial, nrm, p)
        else:
            s = 1.0
            try:
                new_nrm = fnorm(u - du)
            except NonPhysicalStateError:
                rep.line_search_steps.append(0)
                rep.timing_history.append((ev.timings["inner"],
                                           ev.timings["coarse"], t_gmres, 0.0))
                rep.reason = "non-physical state reached"
                break
        rep.line_search_steps.append(_ls_steps(s, p.ls_theta))
        t_other = max(0.0, time.perf_counter() - t_it
                      - ev.timings["inner"] - ev.timings["coarse"] - t_gmres)
        rep.timing_history.append((ev.timings["inner"], ev.timings["coarse"],
                                   t_gmres, t_other))
        u = u - s * du
        nrm = new_nrm
        rep.residuals.append(float(nrm / norm0))
    else:
        if nrm <= tol:
            rep.converged = True
            rep.reason = "residual tolerance reached"
        else:
            rep.reason = "outer iteration limit reached"
    rep.timings["Other"] = max(0.0, time.perf_counter() - t_start
                               - sum(v for k, v in rep.timings.items() if k != "Other"))
    return u, rep


def solve_nks(problem: ProblemSpec, mesh: Mesh, dofmap: DofMap,
              decomp: Decomposition, cfg: SolverConfig, P0=None,
              u0: np.ndarray | None = None) -> tuple[np.ndarray, SolveReport]:
    """Newton-Krylov-Schwarz with an additive two-level linear preconditioner.

    M^{-1} = P_0 (R_0 DF P_0)^{-1} R_0 + sum_i P_i (R_i DF P_i)^{-1} R_i with
    every block rebuilt from the Jacobian at the current Newton iterate; the
    decomposition is expected to carry nodal-graph overlaps of half the width
    used by the nonlinear Schwarz methods.
    """
    t_start = time.perf_counter()
    u = asm.initial_iterate(problem, dofmap) if u0 is None else u0.copy()
    rep = SolveReport()
    p = cfg.outer
    R0 = P0.T.tocsr() if P0 is not None else None

    sub_dofs = [asm.subset_dofs(dofmap, mesh, decomp.overlap_elements[i])
                for i in range(decomp.num_subdomains)]

    plan = asm.global_plan(mesh, dofmap)

    def residual(v):
        return asm.assemble_residual(problem, mesh, dofmap, v, plan=plan)

    F = residual(u)  # F(u), kept from wherever u's residual was assembled
    norm0 = np.linalg.norm(F)
    rep.residuals.append(1.0)
    tol = max(p.rel_tol * norm0, p.abs_tol)
    nrm = norm0
    for k in range(p.max_iter):
        if nrm <= tol:
            rep.converged = True
            rep.reason = "residual tolerance reached"
            break
        t_it = time.perf_counter()
        DF = local_lus = coarse_lu = None  # free last step's factorizations
        if F is None:
            F = residual(u)
        t0 = time.perf_counter()
        DF = asm.assemble_tangent(problem, mesh, dofmap, u, plan=plan)
        local_lus = [factorize(DF[d][:, d], fast=True) for d in sub_dofs]
        t_inner = time.perf_counter() - t0
        t0 = time.perf_counter()
        coarse_lu = sla.lu_factor((R0 @ DF @ P0).toarray()) if P0 is not None else None
        t_coarse = time.perf_counter() - t0
        rep.timings["Inner solve"] += t_inner
        rep.timings["Coarse solve"] += t_coarse

        def precond(v):
            out = np.zeros_like(v)
            for d, lu in zip(sub_dofs, local_lus):
                out[d] += lu.solve(v[d])
            if coarse_lu is not None:
                out += P0 @ sla.lu_solve(coarse_lu, R0 @ v)
            return out

        t0 = time.perf_counter()
        du, g_its, g_ok = gmres(lambda x: DF @ x, F,
                                rel_tol=cfg.gmres.rel_tol,
                                max_iter=cfg.gmres.max_iter,
                                restart=cfg.gmres.restart, left_prec=precond)
        t_gmres = time.perf_counter() - t0
        rep.timings["GMRES"] += t_gmres
        rep.gmres_iterations.append(g_its)
        rep.inner_iterations.append(0.0)
        rep.coarse_iterations.append(0)

        if p.line_search:
            trial = TrialResidual(lambda s: residual(u - s * du))
            s, new_nrm = backtracking_step(trial, nrm, p)
            F = trial.at(s)
        else:
            s = 1.0
            try:
                F = residual(u - du)
            except NonPhysicalStateError:
                rep.line_search_steps.append(0)
                rep.timing_history.append((t_inner, t_coarse, t_gmres, 0.0))
                rep.reason = "non-physical state reached"
                break
            new_nrm = np.linalg.norm(F)
        rep.line_search_steps.append(_ls_steps(s, p.ls_theta))
        rep.timing_history.append((t_inner, t_coarse, t_gmres,
                                   max(0.0, time.perf_counter() - t_it
                                       - t_inner - t_coarse - t_gmres)))
        u = u - s * du
        nrm = new_nrm
        rep.residuals.append(float(nrm / norm0))
    else:
        if nrm <= tol:
            rep.converged = True
            rep.reason = "residual tolerance reached"
        else:
            rep.reason = "outer iteration limit reached"
    rep.timings["Other"] = max(0.0, time.perf_counter() - t_start
                               - sum(v for k, v in rep.timings.items() if k != "Other"))
    return u, rep
