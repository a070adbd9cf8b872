"""Nonlinear Schwarz corrections, recombination and tangent application.

The local correction on subdomain i solves R_i F(u - P_i T_i(u)) = 0 on the
overlapping subdomain; ghost-layer and Dirichlet DOFs stay fixed, so the
restricted residual rows coincide with the global ones.  The coarse
correction solves R_0 F(u - P_0 T_0(u)) = 0 in the coarse coefficients with
R_0 = P_0^T and full-mesh residual assembly.  Both run the same damped Newton
loop, `_damped_newton`, and differ only in their residual, step solve and
state update; a non-finite residual ends either one with a
`NonPhysicalStateError` that names the level.

Corrections are recombined into the preconditioned residuals

* one-level:  F_1 = sum_i P_i T_i(u)         (ASPEN)
              F_RAS = sum_i Pt_i T_i(u)      (RASPEN, multiplicity-averaged)
* two-level:  F_A = P_0 T_0(u) + sum_i Pt_i T_i(u)
              F_H = P_0 T_0(u) + sum_i Pt_i T_i(u - P_0 T_0(u))

whose exact tangents are assembled from the tangent stored at each final
local iterate: with Q_i(v) = P_i (R_i DF(v) P_i)^{-1} R_i DF(v),

    D F_1 = sum_i Q_i(u_i),     u_i = u - P_i T_i(u),
    D F_A = Q_0(u_0) + sum_i Qt_i(u_i),
    D F_H = [sum_i Qt_i(u_iH)] (I - Q_0(u_0)) + Q_0(u_0).

The inexact (ASPIN-style) mode substitutes u for the final local iterates.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from . import assembly as asm
from .assembly import DofMap, NonPhysicalStateError, ProblemSpec
from .mesh import Decomposition, Mesh
from .sparse import Factorization, factorize

VARIANTS = ("aspen", "raspen", "additive", "hybrid")


@dataclass
class NewtonParams:
    rel_tol: float = 1e-3
    abs_tol: float = 1e-14
    max_iter: int = 10
    line_search: bool = True
    ls_eta: float = 1e-3    # forcing tolerance eta-bar
    ls_t: float = 1e-3      # sufficient-decrease scale
    ls_theta: float = 0.5   # damping factor
    ls_s_min: float = 1e-2  # increment tolerance


def backtracking_step(residual_at, norm0: float, p: NewtonParams):
    """First s = theta^k, k = 0, 1, ..., with sufficient decrease.

    Damping stops once the next candidate would drop below the increment
    tolerance; the current step is then accepted regardless.  Without
    `p.line_search` the full step s = 1 is accepted at once.  Returns
    (s, k, r, ||r||) for the accepted trial, where r = residual_at(s); a
    callback failure (non-physical trial state) gives r = None and an
    infinite norm.
    """
    k = 0
    while True:
        s = p.ls_theta ** k
        try:
            r = residual_at(s)
            nrm = np.linalg.norm(r)
        except NonPhysicalStateError:
            r, nrm = None, np.inf
        if nrm <= (1.0 - p.ls_t * s * (1.0 - p.ls_eta)) * norm0:
            return s, k, r, nrm
        if not p.line_search or s * p.ls_theta < p.ls_s_min:
            return s, k, r, nrm
        k += 1


def _damped_newton(residual, direction, moved, x, p: NewtonParams, label: str):
    """Newton on residual(x) = 0 from `x`, damped by `backtracking_step`.

    `direction(x, r)` solves for the step d at x, and `moved(x, s, d)` is the
    state a step s along d leads to; it must not modify x.  Returns
    (x, iterations, converged).  A non-finite residual, at the start or after
    a step, raises `NonPhysicalStateError` naming `label`.
    """
    r = residual(x)
    nrm = np.linalg.norm(r)
    tol = max(p.rel_tol * nrm, p.abs_tol)
    its = 0
    while True:
        if not np.isfinite(nrm):
            raise NonPhysicalStateError(
                f"{label}: residual is not finite after {its} Newton steps")
        if nrm <= tol or its >= p.max_iter:
            return x, its, nrm <= tol
        d = direction(x, r)
        s, _, r, nrm = backtracking_step(lambda s: residual(moved(x, s, d)),
                                         nrm, p)
        x = moved(x, s, d)
        its += 1


@dataclass
class SubdomainData:
    index: int
    elems_ext: np.ndarray
    dofs_ov: np.ndarray
    dofs_ext: np.ndarray
    pos_ov: np.ndarray   # positions of dofs_ov inside dofs_ext
    plan: asm.AssemblyPlan  # assembly over elems_ext onto dofs_ext


@dataclass
class LocalSolveState:
    correction: np.ndarray          # T_i on dofs_ov
    tangent: Factorization | None   # R_i DF(v_final) P_i factorized
    coupling: sp.csr_matrix | None  # R_i DF(v_final) over dofs_ext columns
    iterations: int
    converged: bool


@dataclass
class CoarseSolveState:
    coefficients: np.ndarray
    tangent: tuple | None           # dense LU of R_0 DF(u_0) P_0
    global_tangent: sp.csr_matrix | None  # DF(u_0)
    iterations: int
    converged: bool


@dataclass
class Evaluation:
    """Preconditioned residual and the operators of its exact tangent."""
    residual: np.ndarray
    local_states: list[LocalSolveState]
    coarse_state: CoarseSolveState | None
    inner_iterations: float      # average over subdomains
    coarse_iterations: int
    all_converged: bool
    timings: dict = field(default_factory=dict)


class SchwarzOperator:
    """Evaluates F_X(u) and applies D F_X(u) for one decomposition."""

    def __init__(self, problem: ProblemSpec, mesh: Mesh, dofmap: DofMap,
                 decomp: Decomposition, variant: str = "hybrid",
                 P0: sp.csr_matrix | None = None, tangent_mode: str = "exact",
                 inner: NewtonParams | None = None,
                 coarse: NewtonParams | None = None,
                 workers: int | None = None):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        if variant in ("additive", "hybrid") and P0 is None:
            raise ValueError(f"the {variant} variant requires a coarse space")
        if tangent_mode not in ("exact", "aspin"):
            raise ValueError(f"unknown tangent mode {tangent_mode!r}")
        self.problem = problem
        self.mesh = mesh
        self.dofmap = dofmap
        self.decomp = decomp
        self.variant = variant
        self.P0 = P0
        self.R0 = P0.T.tocsr() if P0 is not None else None
        self.tangent_mode = tangent_mode
        self.inner = inner or NewtonParams()
        self.coarse = coarse or NewtonParams()
        if workers is None:
            workers = int(os.environ.get("NLSCHWARZ_WORKERS", "1"))
        self.workers = max(1, workers)
        self._coarse_deflation: tuple | None = None

        self.subs: list[SubdomainData] = []
        count = np.zeros(dofmap.n_dofs, dtype=np.int64)
        for i in range(decomp.num_subdomains):
            ov = decomp.overlap_elements[i]
            ext = np.unique(np.concatenate([ov, decomp.ghost_elements[i]]))
            dofs_ov = asm.subset_dofs(dofmap, mesh, ov)
            plan = asm.AssemblyPlan(mesh, dofmap, ext)
            pos = np.searchsorted(plan.dofs, dofs_ov)
            self.subs.append(SubdomainData(i, ext, dofs_ov, plan.dofs, pos, plan))
            count[dofs_ov] += 1
        if np.any(count == 0):
            raise ValueError("overlapping subdomains do not cover every DOF")
        self.pou_weight = 1.0 / count

    # -- corrections -------------------------------------------------------

    def _local_residual(self, sub: SubdomainData, v: np.ndarray) -> np.ndarray:
        r = asm.assemble_residual(self.problem, self.mesh, self.dofmap, v,
                                  subset=sub.elems_ext, dofs=sub.dofs_ext,
                                  plan=sub.plan)
        return r[sub.pos_ov]

    def _local_tangent(self, sub: SubdomainData, v: np.ndarray) -> sp.csr_matrix:
        return asm.assemble_tangent(self.problem, self.mesh, self.dofmap, v,
                                    subset=sub.elems_ext, dofs=sub.dofs_ext,
                                    plan=sub.plan)

    def local_correction(self, sub: SubdomainData, u: np.ndarray) -> LocalSolveState:
        v0 = u[sub.dofs_ext]
        A_v0 = None  # the tangent at v0, which the aspin mode keeps

        def direction(v, r):
            nonlocal A_v0
            A = self._local_tangent(sub, v)
            if A_v0 is None and self.tangent_mode == "aspin":
                A_v0 = A
            return factorize(A[sub.pos_ov][:, sub.pos_ov], fast=True).solve(r)

        def moved(v, s, d):
            w = v.copy()
            w[sub.pos_ov] -= s * d
            return w

        v, its, converged = _damped_newton(
            lambda v: self._local_residual(sub, v), direction, moved, v0,
            self.inner, f"local correction on subdomain {sub.index}")
        if self.tangent_mode == "exact":
            A = self._local_tangent(sub, v)
        else:
            A = A_v0 if A_v0 is not None else self._local_tangent(sub, v0)
        rect = A[sub.pos_ov].tocsr()
        lu = factorize(rect[:, sub.pos_ov], fast=True)
        T = u[sub.dofs_ov] - v[sub.pos_ov]
        return LocalSolveState(correction=T, tangent=lu, coupling=rect,
                               iterations=its, converged=converged)

    def _deflate_coarse(self, A0: np.ndarray) -> np.ndarray:
        """Lift near-null singular directions of the coarse tangent.

        The monolithic pressure coarse functions sum to the global pressure
        constant, which only the pin equation - invisible to the coarse space,
        since the pinned row of P0 is zero - controls.  The matching near-null
        direction of R0 DF P0 would let the coarse Newton update drift by
        arbitrary pressure shifts.  Shifting those singular values up to the
        reference scale removes the drift without touching the well-resolved
        directions; the directions are structural, so they are computed once
        and reused.
        """
        if self._coarse_deflation is None:
            U, s, Vt = np.linalg.svd(A0)
            near = s < 1e-4 * s[0]
            self._coarse_deflation = (
                (U[:, near], Vt[near].T, float(s[0])) if near.any() else ())
        if self._coarse_deflation:
            U, V, s0 = self._coarse_deflation
            A0 = A0 + s0 * (U @ V.T)
        return A0

    def _project_coarse_residual(self, r: np.ndarray) -> np.ndarray:
        """Remove the residual components the coarse space cannot control.

        The image of the near-null directions (the left singular vectors) is
        invariant under coarse updates, so the coarse Newton iteration can
        never reduce the residual along them; measuring convergence on the
        complement solves the quotient problem instead.
        """
        if self._coarse_deflation:
            U = self._coarse_deflation[0]
            r = r - U @ (U.T @ r)
        return r

    def coarse_correction(self, u: np.ndarray) -> CoarseSolveState:
        P0, R0 = self.P0, self.R0
        plan = asm.global_plan(self.mesh, self.dofmap)

        def coarse_residual(cc):
            return self._project_coarse_residual(
                R0 @ asm.assemble_residual(self.problem, self.mesh, self.dofmap,
                                           u - P0 @ cc, plan=plan))

        def coarse_tangent(cc):
            DF = asm.assemble_tangent(self.problem, self.mesh, self.dofmap,
                                      u - P0 @ cc, plan=plan)
            return DF, self._deflate_coarse((R0 @ DF @ P0).toarray())

        # the projection of the first residual needs the deflation, so the
        # first call assembles DF and the deflated R0 DF P0 at c0 before it;
        # that pair serves the first step, or the final factorization
        c0 = np.zeros(P0.shape[1])
        pending = coarse_tangent(c0) if self._coarse_deflation is None else None

        def tangent(cc):
            nonlocal pending
            pair = pending if pending is not None else coarse_tangent(cc)
            pending = None
            return pair

        c, its, converged = _damped_newton(
            coarse_residual, lambda cc, r: np.linalg.solve(tangent(cc)[1], r),
            lambda cc, s, d: cc + s * d, c0, self.coarse, "coarse correction")
        DF, A0 = tangent(c)
        lu = sla.lu_factor(A0)
        if not np.all(np.isfinite(lu[0])) or np.any(np.diag(lu[0]) == 0.0):
            raise np.linalg.LinAlgError("coarse tangent is singular")
        return CoarseSolveState(coefficients=c, tangent=lu,
                                global_tangent=DF, iterations=its,
                                converged=converged)

    # -- preconditioned residual -------------------------------------------

    def _run_locals(self, u: np.ndarray) -> list[LocalSolveState]:
        if self.workers > 1:
            with ThreadPoolExecutor(max_workers=self.workers) as pool:
                return list(pool.map(lambda s: self.local_correction(s, u), self.subs))
        return [self.local_correction(s, u) for s in self.subs]

    def evaluate(self, u: np.ndarray) -> Evaluation:
        t_coarse = 0.0
        coarse_state = None
        w = u
        contribution = np.zeros(self.dofmap.n_dofs)
        if self.variant in ("additive", "hybrid"):
            t0 = time.perf_counter()
            coarse_state = self.coarse_correction(u)
            t_coarse = time.perf_counter() - t0
            contribution += self.P0 @ coarse_state.coefficients
            if self.variant == "hybrid":
                w = u - self.P0 @ coarse_state.coefficients

        t0 = time.perf_counter()
        locals_ = self._run_locals(w)
        t_inner = time.perf_counter() - t0

        weight = (np.ones(self.dofmap.n_dofs) if self.variant == "aspen"
                  else self.pou_weight)
        for sub, st in zip(self.subs, locals_):
            contribution[sub.dofs_ov] += weight[sub.dofs_ov] * st.correction

        ok = all(st.converged for st in locals_)
        cits = 0
        if coarse_state is not None:
            ok = ok and coarse_state.converged
            cits = coarse_state.iterations
        return Evaluation(
            residual=contribution, local_states=locals_,
            coarse_state=coarse_state,
            inner_iterations=float(np.mean([st.iterations for st in locals_])),
            coarse_iterations=cits, all_converged=ok,
            timings={"inner": t_inner, "coarse": t_coarse})

    # -- tangent -----------------------------------------------------------

    def _apply_q0(self, ev: Evaluation, x: np.ndarray) -> np.ndarray:
        cs = ev.coarse_state
        y = self.R0 @ (cs.global_tangent @ x)
        return self.P0 @ sla.lu_solve(cs.tangent, y)

    def _apply_locals(self, ev: Evaluation, x: np.ndarray) -> np.ndarray:
        out = np.zeros_like(x)
        weight = (np.ones(self.dofmap.n_dofs) if self.variant == "aspen"
                  else self.pou_weight)
        for sub, st in zip(self.subs, ev.local_states):
            y = st.tangent.solve(st.coupling @ x[sub.dofs_ext])
            out[sub.dofs_ov] += weight[sub.dofs_ov] * y
        return out

    def apply_tangent(self, ev: Evaluation, x: np.ndarray) -> np.ndarray:
        """D F_X(u) x using the operators stored in the evaluation."""
        if self.variant in ("aspen", "raspen"):
            return self._apply_locals(ev, x)
        if self.variant == "additive":
            return self._apply_q0(ev, x) + self._apply_locals(ev, x)
        q0x = self._apply_q0(ev, x)
        return self._apply_locals(ev, x - q0x) + q0x
