"""The nonlinear Schwarz and NKS solvers: `schwarz.newton` on the global
residual, each with its own linearization.

The nonlinear Schwarz solver runs Newton on the preconditioned residual
F_X(u): each iteration evaluates the local (and coarse) corrections, solves
D F_X(u) du = F_X(u) with unpreconditioned GMRES, and damps the update with a
backtracking line search.  Convergence is monitored on the unpreconditioned
residual norm ||F(u_k)|| so the curves are directly comparable with NKS; the
preconditioned norm is recorded alongside.

The NKS baseline is Newton on F(u) with GMRES on the left-preconditioned
system M^{-1} DF(u) du = M^{-1} F(u), for a linear two-level Schwarz operator
built from the same subdomains and coarse space, refreshed at every Newton
step: an additive coarse term plus the local block solves, each weighted by
the partition of unity D_i that the nonlinear variants use,
M^{-1} = P_0 A_0^{-1} R_0 + sum_i P_i D_i A_i^{-1} R_i.  M^{-1} DF(u) is the
additive Schwarz tangent of ASPIN (Cai and Keyes, SIAM J. Sci. Comput.
2002), which NKS applies through each block's ghost coupling, as the
nonlinear Schwarz tangent is applied (see `schwarz`); both solvers hand
GMRES one operator.

Both solvers take their subdomains from `schwarz.subdomains` and run their
local work on the processes that own them (see `owners`), which they stop
when the solve returns or raises.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import assembly as asm
from .assembly import DofMap, ProblemSpec
from .mesh import Decomposition, Mesh
from .owners import OwnerPool
from .schwarz import (CoarseTangent, LocalTangent, NewtonParams,
                      SchwarzOperator, SubdomainData, backtracking_step,
                      newton, subdomains)
# factorize is unused here; bench/spans.py traces outer.factorize by name
from .sparse import factorize, gmres


@dataclass
class GmresParams:
    rel_tol: float = 1e-4
    max_iter: int = 1000
    restart: int | None = 500


@dataclass
class SolverConfig:
    """Solver settings; the defaults are the lid-driven cavity's."""
    outer: NewtonParams = field(default_factory=lambda: NewtonParams(
        rel_tol=1e-6, abs_tol=1e-6, max_iter=10))
    inner: NewtonParams = field(default_factory=NewtonParams)
    coarse: NewtonParams = field(default_factory=NewtonParams)
    gmres: GmresParams = field(default_factory=GmresParams)
    variant: str = "hybrid"
    tangent_mode: str = "exact"
    coarse_kind: str = "rgdsw"
    modified: bool = False


def beam_config(**overrides) -> SolverConfig:
    settings = dict(
        outer=NewtonParams(rel_tol=1e-4, abs_tol=1e-20, max_iter=10,
                           line_search=False),
        inner=NewtonParams(rel_tol=1e-3, abs_tol=1e-9, max_iter=15,
                           line_search=False),
        coarse=NewtonParams(rel_tol=1e-3, abs_tol=1e-9, max_iter=15,
                            line_search=False),
        gmres=GmresParams(rel_tol=1e-6, max_iter=100, restart=None),
        coarse_kind="msfem", modified=True)
    return SolverConfig(**{**settings, **overrides})


@dataclass
class OuterStep:
    """One outer Newton step that ran GMRES; one row of the history CSV."""
    rel_residual: float | None      # ||F||/||F0|| after it; None: no finite trial
    precond_residual: float | None  # ||F_X|| before it; None under NKS
    gmres_its: int
    inner_avg: float                # local Newton iterations, subdomain mean
    coarse_its: int
    line_search_steps: int          # k of the accepted damping theta^k
    t_inner: float
    t_coarse: float
    t_gmres: float
    t_other: float
    gmres_converged: bool
    corrections_converged: bool     # every local and coarse Newton solve


@dataclass
class SolveReport:
    converged: bool = False
    reason: str = ""
    steps: list[OuterStep] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def outer_iterations(self) -> int:
        return len(self.steps)

    @property
    def total_gmres(self) -> int:
        return sum(st.gmres_its for st in self.steps)

    @property
    def total_coarse(self) -> int:
        return sum(st.coarse_its for st in self.steps)

    @property
    def avg_inner(self) -> float:
        return (float(np.mean([st.inner_avg for st in self.steps]))
                if self.steps else 0.0)

    @property
    def residuals(self) -> list[float]:
        """||F||/||F0|| at the initial and at every accepted iterate."""
        return [1.0] + [st.rel_residual for st in self.steps
                        if st.rel_residual is not None]

    @property
    def timings(self) -> dict:
        """Wall time by category; "Other" is the rest of `wall_s`."""
        t = {cat: sum(getattr(st, name) for st in self.steps)
             for cat, name in (("Inner solve", "t_inner"),
                               ("Coarse solve", "t_coarse"),
                               ("GMRES", "t_gmres"))}
        t["Other"] = max(0.0, self.wall_s - sum(t.values()))
        return t


def _solve(problem: ProblemSpec, mesh: Mesh, dofmap: DofMap,
           cfg: SolverConfig, u0: np.ndarray | None, linearize,
           t_start: float) -> tuple[np.ndarray, SolveReport]:
    """`newton` on the global residual F, shared by both solvers.

    `linearize(u, F(u))` returns (rhs, apply, fields): the step's system
    apply(du) = rhs, preconditioned by the solver, which GMRES solves as it
    is, and its `OuterStep` fields precond_residual, inner_avg, coarse_its,
    corrections_converged, t_inner and t_coarse.  A failure of
    the loop ends the solve with its `reason`; steps whose GMRES or
    local/coarse Newton solves missed their tolerance are taken and
    flagged."""
    starts = []   # of each `direction` call, the failed one's included
    solves = []   # of each step, its `OuterStep` fields

    def direction(u, F):
        # the caller's references to the linearization go when this
        # returns, before the next is built: holding both sets of
        # factorizations raises the peak memory.  The subdomain owners, the
        # caller among them, keep their factors until the next
        # linearization starts and releases them all: before NKS's next DF
        # assembly, and before the Schwarz operator's next coarse correction
        starts.append(time.perf_counter())
        rhs, apply, fields = linearize(u, F)
        t0 = time.perf_counter()
        du, its, ok = gmres(apply, rhs, rel_tol=cfg.gmres.rel_tol,
                            max_iter=cfg.gmres.max_iter,
                            restart=cfg.gmres.restart)
        fields.update(gmres_its=its, gmres_converged=bool(ok),
                      t_gmres=time.perf_counter() - t0)
        solves.append(fields)
        return du

    u = asm.initial_iterate(problem, dofmap) if u0 is None else u0.copy()
    u, rec = newton(lambda v: asm.assemble_residual(problem, mesh, dofmap, v),
                    direction, lambda v, s, du: v - s * du, u, cfg.outer,
                    backtracking_step)
    t_end = time.perf_counter()
    rep = SolveReport(converged=rec.converged, reason=(
        "outer " + rec.reason if rec.reason == "iteration limit reached"
        else rec.reason))
    for (k, nrm), fields, t0, t1 in zip(rec.steps, solves, starts,
                                        starts[1:] + [t_end]):
        rep.steps.append(OuterStep(
            rel_residual=float(nrm / rec.norm0) if np.isfinite(nrm) else None,
            line_search_steps=k,
            t_other=max(0.0, t1 - t0 - fields["t_inner"] - fields["t_coarse"]
                        - fields["t_gmres"]),
            **fields))
    rep.wall_s = time.perf_counter() - t_start
    return u, rep


def solve_nonlinear_schwarz(problem: ProblemSpec, mesh: Mesh, dofmap: DofMap,
                            decomp: Decomposition, cfg: SolverConfig,
                            P0=None, u0: np.ndarray | None = None
                            ) -> tuple[np.ndarray, SolveReport]:
    """Newton on F_X(u) with the operator's owner processes (see
    `SchwarzOperator`), which are stopped when the solve returns or
    raises."""
    t_start = time.perf_counter()
    with SchwarzOperator(problem, mesh, dofmap, decomp, variant=cfg.variant,
                         P0=P0, tangent_mode=cfg.tangent_mode,
                         inner=cfg.inner, coarse=cfg.coarse) as op:

        def linearize(u, F):
            ev = op.evaluate(u, F)
            cs, local = ev.coarse_state, ev.local_results
            return ev.residual, lambda x: op.apply_tangent(ev, x), dict(
                precond_residual=float(np.linalg.norm(ev.residual)),
                inner_avg=float(np.mean([its for its, _ in local])),
                coarse_its=0 if cs is None else cs.iterations,
                corrections_converged=(all(ok for _, ok in local)
                                       and (cs is None or cs.converged)),
                t_inner=ev.timings["inner"], t_coarse=ev.timings["coarse"])

        return _solve(problem, mesh, dofmap, cfg, u0, linearize, t_start)


class _LocalBlocks:
    """The local terms of NKS's operator M^{-1} DF on the overlap DOFs
    d_i = `subs[i].dofs_ov`, as the task of an `OwnerPool` (see `owners`).

    On "factorize", subdomain i's rows R_i DF are cut out of DF's `values`
    on the full-mesh plan's pattern as [A_i | C_i], on the columns d_i and
    the subdomain's ghost DOFs Gamma_i, and kept as a `schwarz.LocalTangent`
    until the command None releases it.  On "solve", the task writes
    A_i^{-1} v_i for the vector v; on "apply", A_i^{-1} C_i x_Gamma, so that
    A_i^{-1} R_i DF x = x_i + A_i^{-1} C_i x_Gamma."""

    def __init__(self, plan: asm.AssemblyPlan, subs: list[SubdomainData],
                 values: np.ndarray):
        self.plan = plan
        self.subs = subs
        self.values = values
        self.held: dict[int, LocalTangent] = {}   # this process's blocks

    def cut(self, i: int) -> sp.csc_matrix:
        """[A_i | C_i] cut out of `values`, with its exact zeros dropped.
        Its leading columns, A_i, have the arrays of
        ``sp.csc_matrix(DF[d][:, d])`` for the DF that `assemble_tangent`
        returns."""
        plan, sub = self.plan, self.subs[i]
        # the cuts allocate new arrays, so eliminate_zeros never rewrites
        # `values` or the plan's index arrays
        DF = sp.csc_matrix((self.values, plan.indices, plan.indptr),
                           shape=(plan.n_rows, plan.n))
        A = DF[:, np.concatenate([sub.dofs_ov, sub.ghosts])][sub.dofs_ov]
        A.eliminate_zeros()
        return A

    def __call__(self, i: int, command: str | None, vector: np.ndarray,
                 out: np.ndarray):
        if command == "solve":
            out[:] = self.held[i].solve(vector[self.subs[i].dofs_ov])
        elif command == "apply":
            out[:] = self.held[i].apply(vector)
        elif command is None:
            self.held.pop(i, None)
        else:
            self.held[i] = LocalTangent.of(self.cut(i), self.subs[i].ghosts)
        return None


def solve_nks(problem: ProblemSpec, mesh: Mesh, dofmap: DofMap,
              decomp: Decomposition, cfg: SolverConfig, P0=None,
              u0: np.ndarray | None = None) -> tuple[np.ndarray, SolveReport]:
    """Newton-Krylov-Schwarz with a two-level linear Schwarz preconditioner.

    M^{-1} = P_0 (R_0 DF P_0)^{-1} R_0 + sum_i P_i D_i (R_i DF P_i)^{-1} R_i
    with D_i the diagonal of the partition-of-unity weights `sub.weight`
    (1 / the DOF's multiplicity) and every block rebuilt from the Jacobian
    at the current Newton iterate; the decomposition is expected to carry
    max(1, overlap // 2) nodal-graph overlap layers, for the `overlap`
    dual-graph layers of the nonlinear Schwarz methods (see
    `cli._decompose`), and ghost layers, which `schwarz.subdomains` checks
    for both solvers.  GMRES solves M^{-1} DF du = M^{-1} F, applying
    M^{-1} DF as the additive Schwarz tangent

        M^{-1} DF x = sum_i P_i D_i (x_i + A_i^{-1} C_i x_Gamma_i)
                      + P_0 A_0^{-1} (R_0 DF) x

    with A_i, C_i the blocks of R_i DF on the columns d_i and Gamma_i, held
    as a `schwarz.LocalTangent` (see `_LocalBlocks`).  So no process holds DF
    through GMRES.

    The local blocks run on an `OwnerPool` (see `owners`), which is
    stopped when the solve returns or raises.  Each Newton step, the owners
    first release the last step's blocks; then the caller assembles DF into
    the pool's `extra`, from which the owners cut, factorize and keep their
    blocks, while the caller builds the `schwarz.CoarseTangent` of DF, and
    once the blocks are cut the caller returns the pages of DF's values to
    the system.  In each solve and apply the caller computes the coarse
    term while the owners solve theirs.  `combine` adds the local terms in
    subdomain order, then the caller the coarse term, so the bits do not
    depend on the number of processes.
    """
    t_start = time.perf_counter()
    subs = subdomains(problem, mesh, dofmap, decomp)
    plan = asm.global_plan(mesh, dofmap, problem)

    with OwnerPool([sub.dofs_ov for sub in subs], plan.n,
                   [sub.weight for sub in subs], plan.nnz) as owners:
        blocks = _LocalBlocks(plan, subs, owners.extra)

        def linearize(u, F):
            t0 = time.perf_counter()
            owners.run(None, blocks)
            DF = asm.assemble_tangent(problem, mesh, dofmap, u, plan=plan,
                                      values=owners.extra)
            t_coarse = 0.0

            def coarse_factor():
                nonlocal t_coarse
                t = time.perf_counter()
                # R0 is built each step, so that GMRES runs without it; the
                # product copies DF by rows, and the copy goes with it
                R0 = P0.T.tocsr()
                q0 = CoarseTangent.of(P0, R0, DF)
                t_coarse = time.perf_counter() - t
                return q0, R0 @ F

            coarse, _ = owners.run(
                "factorize", blocks,
                first=coarse_factor if P0 is not None else None)
            owners.free_extra()
            t_inner = time.perf_counter() - t0 - t_coarse

            q0, R0F = coarse or (None, None)

            def summed(command, v, coarse_term):
                """sum_i P_i D_i y_i for the owners' results y_i of `command`
                on v, with v_i added for "apply", plus coarse_term()."""
                term, _ = owners.run(command, blocks, v,
                                     None if q0 is None else coarse_term)
                out = owners.combine(v if command == "apply" else None)
                if term is not None:
                    out += term
                return out

            return summed("solve", F, lambda: q0.solve(R0F)), lambda x: (
                summed("apply", x, lambda: q0.apply(x))), dict(
                precond_residual=None, inner_avg=0.0, coarse_its=0,
                corrections_converged=True, t_inner=t_inner, t_coarse=t_coarse)

        return _solve(problem, mesh, dofmap, cfg, u0, linearize, t_start)
