"""Nonlinear Schwarz corrections, recombination and tangent application.

The local correction on subdomain i solves R_i F(u - P_i T_i(u)) = 0 with a
Newton iteration on the overlapping subdomain; ghost-layer and Dirichlet DOFs
stay fixed, so the restricted residual rows coincide with the global ones.
The coarse correction solves R_0 F(u - P_0 T_0(u)) = 0 in the coarse
coefficients with R_0 = P_0^T and full-mesh residual assembly.

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


def backtracking_step(residual_norm_at, norm0: float, p: NewtonParams) -> tuple[float, float]:
    """First s in {1, theta, theta^2, ...} with sufficient decrease.

    Damping stops once the next candidate would drop below the increment
    tolerance; the current step is then accepted regardless.  Without
    `p.line_search` the full step s = 1 is accepted at once.  A callback
    failure (non-physical trial state) counts as an infinite residual.
    """
    s = 1.0
    while True:
        try:
            nrm = residual_norm_at(s)
        except NonPhysicalStateError:
            nrm = np.inf
        if nrm <= (1.0 - p.ls_t * s * (1.0 - p.ls_eta)) * norm0:
            return s, nrm
        if not p.line_search or s * p.ls_theta < p.ls_s_min:
            return s, nrm
        s *= p.ls_theta


class TrialResidual:
    """Residual-norm callback for `backtracking_step` that keeps the residual
    of its latest trial.

    `backtracking_step` accepts the step it evaluated last, and the accepted
    state is computed by the same expression as the trial state, so `at(s)`
    is the residual at the accepted state without a second assembly.
    """

    def __init__(self, residual_at):
        self._residual_at = residual_at
        self._s = None
        self._r = None

    def __call__(self, s: float) -> float:
        self._s, self._r = s, None
        self._r = self._residual_at(s)
        return np.linalg.norm(self._r)

    def at(self, s: float) -> np.ndarray | None:
        """The residual at step `s` if the latest trial evaluated it."""
        return self._r if s == self._s else None


@dataclass
class SubdomainData:
    index: int
    elems_ov: np.ndarray
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
            self.subs.append(SubdomainData(i, ov, ext, dofs_ov, plan.dofs, pos,
                                           plan))
            count[dofs_ov] += 1
        if np.any(count == 0):
            raise ValueError("overlapping subdomains do not cover every DOF")
        self.multiplicity = count
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
        p = self.inner
        v = u[sub.dofs_ext].copy()
        v0 = v.copy()
        r = self._local_residual(sub, v)
        tol = max(p.rel_tol * np.linalg.norm(r), p.abs_tol)
        its = 0
        converged = np.linalg.norm(r) <= tol
        A_v0 = None  # the tangent at v0, which the aspin mode keeps
        while not converged and its < p.max_iter:
            A = self._local_tangent(sub, v)
            if its == 0 and self.tangent_mode == "aspin":
                A_v0 = A
            lu = factorize(A[sub.pos_ov][:, sub.pos_ov], fast=True)
            d = lu.solve(r)

            def shifted(s):
                w = v.copy()
                w[sub.pos_ov] -= s * d
                return self._local_residual(sub, w)
            trial = TrialResidual(shifted)
            s, _ = backtracking_step(trial, np.linalg.norm(r), p)
            r_new = trial.at(s)
            v[sub.pos_ov] -= s * d
            r = self._local_residual(sub, v) if r_new is None else r_new
            its += 1
            nrm = np.linalg.norm(r)
            if not np.isfinite(nrm):
                break
            converged = nrm <= tol

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
        p = self.coarse
        P0, R0 = self.P0, self.R0
        plan = asm.global_plan(self.mesh, self.dofmap)
        c = np.zeros(P0.shape[1])

        def coarse_residual(cc):
            return self._project_coarse_residual(
                R0 @ asm.assemble_residual(self.problem, self.mesh, self.dofmap,
                                           u - P0 @ cc, plan=plan))

        def coarse_tangent(cc):
            DF = asm.assemble_tangent(self.problem, self.mesh, self.dofmap,
                                      u - P0 @ cc, plan=plan)
            return DF, self._deflate_coarse((R0 @ DF @ P0).toarray())

        # DF and the deflated R0 DF P0 at the current c, while they are known
        DF = A0 = None
        if self._coarse_deflation is None:
            DF, A0 = coarse_tangent(c)
        r = coarse_residual(c)
        tol = max(p.rel_tol * np.linalg.norm(r), p.abs_tol)
        its = 0
        converged = np.linalg.norm(r) <= tol
        while not converged and its < p.max_iter:
            if A0 is None:
                DF, A0 = coarse_tangent(c)
            d = np.linalg.solve(A0, r)
            DF = A0 = None
            trial = TrialResidual(lambda s: coarse_residual(c + s * d))
            s, _ = backtracking_step(trial, np.linalg.norm(r), p)
            r_new = trial.at(s)
            c = c + s * d
            r = coarse_residual(c) if r_new is None else r_new
            its += 1
            nrm = np.linalg.norm(r)
            if not np.isfinite(nrm):
                break
            converged = nrm <= tol

        if A0 is None:
            DF, A0 = coarse_tangent(c)
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
