"""Nonlinear Schwarz corrections, recombination and tangent application.

The local correction on subdomain i solves R_i F(u - P_i T_i(u)) = 0 on the
overlapping subdomain; ghost-layer and Dirichlet DOFs stay fixed, so the
restricted residual rows coincide with the global ones.  The coarse
correction solves R_0 F(u - P_0 T_0(u)) = 0 in the coarse coefficients with
R_0 = P_0^T, built for the correction's duration, and full-mesh residual
assembly.  Both run `newton`, the damped Newton loop of the outer solvers
too, and differ only in their residual, step solve and state update; a
non-finite residual ends either one with a `NonPhysicalStateError` that
names the level.

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

The inexact (ASPIN-style) mode substitutes u for the final local iterates
u_i and u_iH only.  The coarse level keeps its tangent at its final
iterate u_0 = u - P_0 T_0(u) in both modes: `coarse_correction` does not
read the mode.

Each Q_i is applied through the overlap block A_i = R_i DF(v) P_i and the
ghost coupling C_i, the columns of R_i DF(v) on the ghost DOFs
Gamma_i = plan.dofs minus dofs_ov.  The rows R_i DF(v) vanish outside
plan.dofs, so R_i DF(v) x = A_i x_i + C_i x_Gamma and

    A_i^{-1} R_i DF(v) x = x_i + A_i^{-1} (C_i x_Gamma).

A_i and C_i come straight out of assembly: each subdomain's plan assembles
only the rows of dofs_ov, numbers dofs_ov first and compresses by column,
so R_i DF(v) on plan.dofs is the CSC matrix [A_i | C_i].  A_i, in the form
SuperLU takes, is its leading columns, on its arrays; C_i is copied out of
the rest, so that holding it does not hold A_i.  Per subdomain, the
latest evaluation's tangent therefore holds the SuperLU factor of A_i and
the sparse C_i (A_i itself is dropped once factorized), and the coarse
level its `CoarseTangent` at u_0, the one form in which both solvers, and
each coarse Newton step, factorize and apply A_0 = R_0 DF P_0.

Each subdomain is owned by one process of an `owners.OwnerPool`, the
caller or one forked at the first evaluation (see `owners` for the map).
The owner builds the subdomain's assembly plan in its share of the first
evaluation and holds it; no other process builds it.  It runs the
subdomain's local Newton solve, factorizes its A_i and keeps the factor
and C_i until the next evaluation starts, which releases them in every
owner before its coarse correction; it also runs the subdomain's solve of
every tangent apply.  Each writes its correction or solve into the pool's
stacked results, and every sum of them is the pool's `combine`, in
subdomain order, so the bits do not depend on the number of owners.  The
NKS preconditioner (`outer.solve_nks`) takes its blocks' DOFs from the same
`subdomains` and applies M^{-1} DF by the same identity, with A_i and C_i
cut from the full-mesh DF instead of assembled on the subdomain's plan.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from . import assembly as asm
from .assembly import DofMap, NonPhysicalStateError, ProblemSpec
from .mesh import Decomposition, Mesh
from .owners import OwnerPool
from .sparse import Factorization, SingularMatrixError, factorize

VARIANTS = ("aspen", "raspen", "additive", "hybrid")
# the variants without a coarse space
ONE_LEVEL = ("aspen", "raspen")
TANGENT_MODES = ("exact", "aspin")


@dataclass
class NewtonParams:
    rel_tol: float = 1e-3
    abs_tol: float = 1e-14
    max_iter: int = 10
    line_search: bool = True


# constants of `backtracking_step`
LS_ETA = 1e-3    # forcing tolerance eta-bar
LS_T = 1e-3      # sufficient-decrease scale
LS_THETA = 0.5   # damping factor
LS_S_MIN = 1e-2  # increment tolerance


def backtracking_step(residual_at, norm0: float, p: NewtonParams):
    """First s = theta^k, k = 0, 1, ..., with sufficient decrease.

    Damping stops once the next candidate would drop below the increment
    tolerance; the current step is then accepted regardless.  Without
    `p.line_search` the full step s = 1 is accepted at once.  Returns
    (s, k, r, ||r||) for the accepted trial, where r = residual_at(s); a
    callback failure (non-physical trial state) gives r = None and an
    infinite norm.  `newton` runs it once per iteration.
    """
    k = 0
    while True:
        s = LS_THETA ** k
        try:
            r = residual_at(s)
            nrm = np.linalg.norm(r)
        except NonPhysicalStateError:
            r, nrm = None, np.inf
        if nrm <= (1.0 - LS_T * s * (1.0 - LS_ETA)) * norm0:
            return s, k, r, nrm
        if not p.line_search or s * LS_THETA < LS_S_MIN:
            return s, k, r, nrm
        k += 1


@dataclass
class NewtonRecord:
    """How a `newton` run went: why it stopped, ||r|| at the start, and per
    iteration the accepted line-search k and ||r|| after it (not finite if
    no trial was).  `error` is a failed direction's exception."""
    reason: str = ""
    converged: bool = False
    norm0: float = np.inf
    steps: list[tuple[int, float]] = field(default_factory=list)
    error: Exception | None = None

    @property
    def iterations(self) -> int:
        return len(self.steps)

    def raise_failure(self, label: str) -> None:
        """Raise a failed direction's exception, or, if the run stopped on a
        non-finite residual, a `NonPhysicalStateError` naming `label`."""
        if self.error is not None:
            raise self.error
        if not np.isfinite(self.steps[-1][1] if self.steps else self.norm0):
            raise NonPhysicalStateError(
                f"{label}: residual is not finite after {self.iterations} "
                "Newton steps")


def newton(residual, direction, moved, x, p: NewtonParams, search,
           r: np.ndarray | None = None) -> tuple[np.ndarray, NewtonRecord]:
    """Newton on residual(x) = 0 from `x`, damped by the line search
    `search`: the one loop of the outer, local and coarse levels.

    `direction(x, r)` solves for the step d at x; `moved(x, s, d)` is the
    state a step s along d leads to and must not modify x; `r` is
    residual(x) if the caller has it; `search` is `backtracking_step` as the
    caller's module names it, so each level's line search can be told apart.
    It stops at ||r|| <= max(rel_tol ||r_0||, abs_tol), after `p.max_iter`
    iterations, or with a `reason`: a start residual that is not finite or
    raises `NonPhysicalStateError`, an iteration without a finite trial
    (counted), or a direction raising a failed linearization's error (not
    counted).  Returns the last accepted iterate and the `NewtonRecord`."""
    rec = NewtonRecord()
    try:
        if r is None:
            r = residual(x)
        rec.norm0 = nrm = np.linalg.norm(r)
    except NonPhysicalStateError:
        nrm = np.inf
    if not np.isfinite(nrm):
        rec.reason = "initial residual is not finite"
        return x, rec
    tol = max(p.rel_tol * nrm, p.abs_tol)
    while nrm > tol and rec.iterations < p.max_iter:
        try:
            d = direction(x, r)
        except (NonPhysicalStateError, np.linalg.LinAlgError,
                SingularMatrixError) as exc:
            rec.error = exc
            rec.reason = f"linearization failed: {type(exc).__name__}: {exc}"
            return x, rec
        s, k, trial, trial_nrm = search(lambda s: residual(moved(x, s, d)),
                                        nrm, p)
        rec.steps.append((k, float(trial_nrm)))
        if not np.isfinite(trial_nrm):
            rec.reason = "no trial step has a finite residual"
            return x, rec
        x, r, nrm = moved(x, s, d), trial, trial_nrm
    rec.converged = bool(nrm <= tol)
    rec.reason = ("residual tolerance reached" if rec.converged
                  else "iteration limit reached")
    return x, rec


@dataclass
class CoarseTangent:
    """Q_0 = P_0 A_0^{-1} R_0 DF at one state, A_0 = R_0 DF P_0: the coarse
    operator of both solvers' two-level methods."""
    P0: sp.csr_matrix
    coupling: sp.csr_matrix   # R_0 DF, coarse dim x n_dofs
    lu: tuple                 # LAPACK getrf LU of A_0, dense

    @classmethod
    def of(cls, P0, R0, DF) -> "CoarseTangent":
        """Raises `LinAlgError` on a zero pivot or a non-finite LU of A_0."""
        coupling = R0 @ DF
        A0 = (coupling @ P0).toarray()
        getrf, = sla.get_lapack_funcs(("getrf",), (A0,))
        lu, piv, info = getrf(A0)
        if info != 0 or not np.all(np.isfinite(lu)):
            raise np.linalg.LinAlgError("coarse tangent is singular")
        return cls(P0, coupling, (lu, piv))

    def coefficients(self, y: np.ndarray) -> np.ndarray:
        """A_0^{-1} y."""
        return sla.lu_solve(self.lu, y)

    def solve(self, y: np.ndarray) -> np.ndarray:
        """P_0 A_0^{-1} y."""
        return self.P0 @ self.coefficients(y)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Q_0 x."""
        return self.solve(self.coupling @ x)


def _leading_columns(A: sp.csc_matrix, n: int) -> sp.csc_matrix:
    """The first n columns of A, on A's arrays."""
    end = A.indptr[n]
    return sp.csc_matrix((A.data[:end], A.indices[:end], A.indptr[:n + 1]),
                         shape=(A.shape[0], n))


def _trailing_columns(A: sp.csc_matrix, n: int) -> sp.csc_matrix:
    """The columns of A after the first n, copied, so that holding them does
    not hold A."""
    start = A.indptr[n]
    return sp.csc_matrix((A.data[start:].copy(), A.indices[start:].copy(),
                          A.indptr[n:] - start),
                         shape=(A.shape[0], A.shape[1] - n))


@dataclass
class SubdomainData:
    """One overlapping subdomain, as both solvers see it (see
    `subdomains`).  Its assembly plan and ghost DOFs are built on first
    use, by the process that uses them: each owner process builds and
    holds those of its own subdomains only."""
    index: int
    dofs_ov: np.ndarray
    elements: np.ndarray   # the ghost-extended elements: overlap and ghosts
    weight: np.ndarray     # partition-of-unity weights on dofs_ov: 1 / the
                           # DOF's multiplicity
    problem: ProblemSpec
    mesh: Mesh
    dofmap: DofMap

    @cached_property
    def plan(self) -> asm.AssemblyPlan:
        """The plan over `elements`, assembling the rows of dofs_ov, which
        it numbers first."""
        return asm.AssemblyPlan(self.mesh, self.dofmap, self.elements,
                                self.problem, rows=self.dofs_ov)

    @cached_property
    def ghosts(self) -> np.ndarray:
        """Gamma_i: the DOFs of plan.dofs not in dofs_ov."""
        return self.plan.dofs[self.dofs_ov.size:]

    def residual(self, v: np.ndarray) -> np.ndarray:
        """R_i F(v) for the state v on plan.dofs."""
        return asm.assemble_residual(self.problem, self.mesh, self.dofmap, v,
                                     subset=self.plan.elems, plan=self.plan)

    def tangent(self, v: np.ndarray) -> sp.csc_matrix:
        """R_i DF(v) on the plan's columns, [A_i | C_i], for the state v on
        plan.dofs."""
        return asm.assemble_tangent(self.problem, self.mesh, self.dofmap, v,
                                    subset=self.plan.elems, plan=self.plan)


def subdomains(problem: ProblemSpec, mesh: Mesh, dofmap: DofMap,
               decomp: Decomposition) -> list[SubdomainData]:
    """The overlapping subdomains of `decomp`, which must carry the overlaps
    of `mesh.extend_overlap` and the ghost layers of `mesh.ghost_layer`,
    and whose overlaps must cover every DOF.  Raises `ValueError` otherwise."""
    for layers, name, step in (
            (decomp.overlap_elements, "overlaps", "extend_overlap"),
            (decomp.ghost_elements, "ghost layers", "ghost_layer")):
        if layers is None:
            raise ValueError(f"the decomposition has no {name}: "
                             f"run mesh.{step} first")
    overlaps = [asm.subset_dofs(dofmap, mesh, ov)
                for ov in decomp.overlap_elements]
    count = np.bincount(np.concatenate(overlaps), minlength=dofmap.n_dofs)
    if np.any(count == 0):
        raise ValueError("overlapping subdomains do not cover every DOF")
    return [SubdomainData(i, dofs_ov, np.union1d(ov, ghosts),
                          1.0 / count[dofs_ov], problem, mesh, dofmap)
            for i, (dofs_ov, ov, ghosts) in enumerate(zip(
                overlaps, decomp.overlap_elements, decomp.ghost_elements))]


@dataclass
class LocalSolveState:
    correction: np.ndarray          # T_i on dofs_ov
    iterations: int
    converged: bool
    # A_i = R_i DF(v_final) P_i factorized, and C_i, R_i DF(v_final) on the
    # ghost columns
    tangent: Factorization
    coupling: sp.csc_matrix


@dataclass
class CoarseSolveState:
    coefficients: np.ndarray
    tangent: CoarseTangent   # at u_0 = u - P_0 c
    iterations: int
    converged: bool


@dataclass
class Evaluation:
    """Preconditioned residual, the owners' `combine` plus P_0 c, each
    subdomain's local (iterations, converged) in subdomain order, and the
    coarse state; the local operators stay with the subdomains' owners."""
    residual: np.ndarray
    local_results: list[tuple[int, bool]]
    coarse_state: CoarseSolveState | None
    stamp: int                   # the operator's evaluation count after it
    timings: dict = field(default_factory=dict)


class SchwarzOperator:
    """Evaluates F_X(u) and applies D F_X(u) for one decomposition.

    The subdomains' local work runs on an `owners.OwnerPool` (see the
    module docstring), whose other processes start at the first
    evaluation; `close`, or leaving a ``with`` block, stops them and
    releases the held local operators.  An evaluation after that starts
    them again.  Only the latest evaluation's tangent can be applied: each
    evaluation first releases the local operators of the last one in every
    owner, so no process holds two sets.  The coarse operators live in the
    `Evaluation`, as long as the caller keeps it."""

    def __init__(self, problem: ProblemSpec, mesh: Mesh, dofmap: DofMap,
                 decomp: Decomposition, variant: str = "hybrid",
                 P0: sp.csr_matrix | None = None, tangent_mode: str = "exact",
                 inner: NewtonParams | None = None,
                 coarse: NewtonParams | None = None):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        if variant not in ONE_LEVEL and P0 is None:
            raise ValueError(f"the {variant} variant requires a coarse space")
        if tangent_mode not in TANGENT_MODES:
            raise ValueError(f"unknown tangent mode {tangent_mode!r}")
        self.problem = problem
        self.mesh = mesh
        self.dofmap = dofmap
        self.variant = variant
        self.P0 = P0
        self.tangent_mode = tangent_mode
        self.inner = inner or NewtonParams()
        self.coarse = coarse or NewtonParams()

        self.subs = subdomains(problem, mesh, dofmap, decomp)
        # the recombination weights: 1 for ASPEN, else the partition of unity
        self._owners = OwnerPool(
            [sub.dofs_ov for sub in self.subs], dofmap.n_dofs,
            [np.ones(sub.dofs_ov.size) if variant == "aspen" else sub.weight
             for sub in self.subs])
        self.workers = self._owners.workers
        # the states of the subdomains this process owns, by index
        self._held: dict[int, LocalSolveState] = {}
        self._evaluations = 0

    def close(self) -> None:
        """Stop the other owner processes and release the local operators
        this process holds."""
        self._held = {}
        self._owners.close()

    def __enter__(self) -> "SchwarzOperator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- corrections -------------------------------------------------------

    def local_correction(self, sub: SubdomainData, u: np.ndarray) -> LocalSolveState:
        n = sub.dofs_ov.size   # v holds the state on plan.dofs, dofs_ov first
        v0 = u[sub.plan.dofs]
        # the factor of A_i and C_i that the state keeps; the aspin mode
        # keeps those of the first Newton step, at v0
        kept = None

        def direction(v, r):
            nonlocal kept
            A = sub.tangent(v)
            lu = factorize(_leading_columns(A, n), fast=True)
            if kept is None and self.tangent_mode == "aspin":
                kept = lu, _trailing_columns(A, n)
            return lu.solve(r)

        v, rec = newton(
            sub.residual, direction,
            lambda v, s, d: np.concatenate([v[:n] - s * d, v[n:]]), v0,
            self.inner, backtracking_step)
        rec.raise_failure(f"local correction on subdomain {sub.index}")
        if kept is None:
            A = sub.tangent(v if self.tangent_mode == "exact" else v0)
            kept = (factorize(_leading_columns(A, n), fast=True),
                    _trailing_columns(A, n))
        return LocalSolveState(u[sub.dofs_ov] - v[:n], rec.iterations,
                               rec.converged, *kept)

    def coarse_correction(self, u: np.ndarray,
                          F: np.ndarray | None = None) -> CoarseSolveState:
        """T_0(u) by damped Newton from c = 0; `F` is F(u) if the caller has
        it, which is then the first residual, since u - P0 0 is exactly u.
        R0 = P0^T is built for the correction's duration only."""
        P0 = self.P0
        R0 = P0.T.tocsr()

        def coarse_residual(cc):
            return R0 @ asm.assemble_residual(self.problem, self.mesh,
                                              self.dofmap, u - P0 @ cc)

        def coarse_tangent(cc):
            return CoarseTangent.of(P0, R0, asm.assemble_tangent(
                self.problem, self.mesh, self.dofmap, u - P0 @ cc))

        c, rec = newton(
            coarse_residual, lambda cc, r: coarse_tangent(cc).coefficients(r),
            lambda cc, s, d: cc + s * d, np.zeros(P0.shape[1]), self.coarse,
            backtracking_step, None if F is None else R0 @ F)
        rec.raise_failure("coarse correction")
        return CoarseSolveState(coefficients=c, tangent=coarse_tangent(c),
                                iterations=rec.iterations,
                                converged=rec.converged)

    # -- owners ------------------------------------------------------------

    def _local_task(self, i: int, command: str | None, vector: np.ndarray,
                    out: np.ndarray):
        """Subdomain i's part of `command`, the task of the `OwnerPool`,
        writing its result into `out`: "evaluate", the local correction at
        the state `vector`, whose state this process then holds, and returns
        its (iterations, converged), the first building the subdomain's plan
        here; "apply", the local solve of the tangent applied to `vector`;
        or None, which releases the held state but not the plan."""
        if command == "apply":
            st = self._held[i]
            out[:] = st.tangent.solve(st.coupling @ vector[self.subs[i].ghosts])
            return None
        if command is None:
            self._held.pop(i, None)
            return None
        st = self._held[i] = self.local_correction(self.subs[i], vector)
        out[:] = st.correction
        return st.iterations, st.converged

    # -- preconditioned residual -------------------------------------------

    def _run_locals(self, u: np.ndarray) -> list[tuple[int, bool]]:
        """Local corrections at u, each in the process that owns its
        subdomain, which holds its operators; the corrections are left in
        the pool's `outs`.  Returns (iterations, converged) by subdomain."""
        return self._owners.run("evaluate", self._local_task, u)[1]

    def evaluate(self, u: np.ndarray, F: np.ndarray | None = None) -> Evaluation:
        """F_X(u) and its tangent's operators; `F` is F(u) if the caller has
        it, for the coarse correction to start from.  It supersedes every
        earlier evaluation, whose tangent can no longer be applied."""
        self._evaluations += 1
        # the last evaluation's local operators go, in every owner, before
        # this one's coarse correction and local solves are built
        self._owners.run(None, self._local_task)
        t_coarse = 0.0
        coarse_state = None
        w = u
        p0c = 0.0
        if self.variant not in ONE_LEVEL:
            t0 = time.perf_counter()
            coarse_state = self.coarse_correction(u, F)
            t_coarse = time.perf_counter() - t0
            p0c = self.P0 @ coarse_state.coefficients
            if self.variant == "hybrid":
                w = u - p0c

        t0 = time.perf_counter()
        results = self._run_locals(w)
        t_inner = time.perf_counter() - t0

        return Evaluation(
            residual=self._owners.combine() + p0c, local_results=results,
            coarse_state=coarse_state, stamp=self._evaluations,
            timings={"inner": t_inner, "coarse": t_coarse})

    # -- tangent -----------------------------------------------------------

    def apply_tangent(self, ev: Evaluation, x: np.ndarray) -> np.ndarray:
        """D F_X(u) x using the operators of the evaluation, which must be
        the latest; the owners hold only its local operators."""
        if ev.stamp != self._evaluations:
            raise RuntimeError("the evaluation was superseded by a later "
                               "evaluate; its tangent is gone")
        cs = ev.coarse_state
        q0x = 0.0 if cs is None else cs.tangent.apply(x)
        v = x - q0x if self.variant == "hybrid" else x
        self._owners.run("apply", self._local_task, v)
        return self._owners.combine(v) + q0x
