"""Sparse direct solves and a restarted GMRES over abstract operators.

`StackedSolves` forms the weighted sums of the block solves on overlapping
index sets that both solvers' local preconditioning terms are made of.
`gmres` hands SciPy's restarted GMRES the left-preconditioned operator M A
and the right-hand side M b, so it stops on the preconditioned residual,
||M (b - A x)|| <= rel_tol ||M b||.  Its cap on inner iterations rounds up
to whole restart cycles, Gram-Schmidt makes one pass, and a breakdown that
misses the tolerance ends the solve instead of restarting it.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


try:
    import ctypes
    # Fix the malloc mmap threshold (M_MMAP_THRESHOLD = -3) at 128 KiB, so
    # large transient assembly and factorization buffers are unmapped on free
    # instead of growing the heap.  Without it the peak RSS of the 4x4 cavity
    # benchmarks rose from 107.1-107.2 to 119.2-125.6 MB (hybrid) and from
    # 110.4-110.8 to 148.6-156.4 MB (NKS): `bench/probe.py`, 2 alternating
    # runs each on 2 cores, 2 owner processes, BLAS threads pinned to 1.
    # The setting costs time, as each fresh mapping page-faults on first
    # touch.
    ctypes.CDLL("libc.so.6").mallopt(-3, 131072)
except OSError:  # pragma: no cover - non-glibc platform
    pass


class SingularMatrixError(RuntimeError):
    """SuperLU found the matrix singular."""


class Factorization:
    """Reusable sparse LU of a square matrix (SuperLU with partial pivoting).

    Build, use and release a factorization on one thread of one process;
    both solvers do all three in the process that owns the subdomain, which
    has one thread (`owners.OwnerPool`).  SciPy's SuperLU wrapper (SciPy
    1.17.1) frees a factor's memory only on the thread that built it;
    dropped on another thread, the memory is never returned.  The 16
    subdomain blocks of the 4x4, H/h=10 cavity, factorized on a 2-thread
    pool and dropped on the main thread, raised the RSS by 17-18 MB per
    round; factorized and dropped on the workers, they left it flat at
    79 MB.  SuperLU also holds the GIL while it factorizes and solves, so
    the local solves of different subdomains run in parallel only in
    different processes.

    Never read a factor's `L` or `U`.  On the first read of either, SciPy's
    SuperLU object builds CSC copies of both and keeps them for the factor's
    lifetime, at about 12 bytes per factor nonzero: 982 KiB for a 1,193-DOF
    cavity subdomain block with 82,838 factor nonzeros, which doubles what a
    held factor costs.  `SuperLU.nnz` gives the factor size without them.
    """

    def __init__(self, lu: spla.SuperLU):
        self._lu = lu

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self._lu.solve(np.asarray(b, dtype=np.float64))


def factorize(A: sp.spmatrix, fast: bool = False) -> Factorization:
    """Sparse LU.  `fast` trades strict partial pivoting for a symmetric-mode
    ordering with relaxed pivoting, which roughly halves the factorization
    cost on the near-symmetric subdomain blocks; accuracy stays far below
    the nonlinear solver tolerances.  An exactly-zero pivot, numerical or
    structural, raises `SingularMatrixError` through SuperLU's own flag.
    The result must be released on the calling thread, in the calling
    process (see `Factorization`)."""
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix is not square: {A.shape}")
    kwargs = (dict(permc_spec="MMD_AT_PLUS_A",
                   options=dict(SymmetricMode=True, DiagPivotThresh=1e-3))
              if fast else {})
    try:
        lu = spla.splu(sp.csc_matrix(A), **kwargs)
    except RuntimeError as exc:
        raise SingularMatrixError(str(exc)) from exc
    return Factorization(lu)


class StackedSolves:
    """Block solves on overlapping index sets d_i of an n-vector, weighted
    and summed:

        out = sum_i P_i w_i (y_i + s_i),

    with y_i = A_i^{-1} b_i the solve of block i, P_i the extension by zero
    from d_i, w_i the given weights on d_i and s_i = x[d_i] for an optional
    `x`.  Both solvers' local solves apply this: the y_i are stacked in
    block order in one array, which `bounds` splits (the stacked results of
    an `owners.OwnerPool`), and `combine` scatters the weighted results
    with one `bincount`, which adds them in block order, as a loop of
    ``out[d_i] += w_i y_i`` would."""

    def __init__(self, blocks: list[np.ndarray], n: int,
                 weights: list[np.ndarray]):
        self.index = np.concatenate(blocks)
        self.bounds = np.cumsum([0] + [d.size for d in blocks]).tolist()
        self.weight = np.concatenate(weights)
        self.n = n

    def combine(self, y: np.ndarray, x: np.ndarray | None = None
                ) -> np.ndarray:
        """The sum above for the block solves y_i stacked in `y`, which it
        overwrites."""
        if x is not None:
            y += x[self.index]
        y *= self.weight
        return np.bincount(self.index, y, minlength=self.n)


def gmres(apply: Callable[[np.ndarray], np.ndarray], b: np.ndarray,
          rel_tol: float = 1e-8, max_iter: int = 1000, restart: int | None = None,
          left_prec: Callable[[np.ndarray], np.ndarray] | None = None
          ) -> tuple[np.ndarray, int, bool]:
    """Restarted GMRES (SciPy's) on the left-preconditioned system M A x = M b.

    With M = `left_prec` (the identity if None), the solve stops once
    ||M (b - A x)|| <= rel_tol ||M b||.  `restart` is the inner subspace size
    (all of `max_iter` if None); it is clipped to `max_iter` and to the
    system size.  Returns (x, total inner iterations, converged flag); on
    failure the last iterate is returned.  Three edges of SciPy's loop:

    - the cap `max_iter` rounds up to whole restart cycles: `max_iter=5,
      restart=2` stops after 6 iterations;
    - Gram-Schmidt runs once, with no second pass;
    - a breakdown (an exactly solved Krylov space) that fails the stopping
      test ends the solve, unconverged, instead of restarting.
    """
    b = np.asarray(b, dtype=np.float64)
    n = b.shape[0]
    prec = left_prec if left_prec is not None else (lambda v: v)
    Mb = np.asarray(prec(b), dtype=np.float64)
    if not Mb.any():
        return np.zeros(n), 0, True
    r = min(restart or max_iter, max_iter, n)
    # copy: SciPy's Gram-Schmidt updates the returned vector in place, and
    # the operator may return its argument (e.g. the identity)
    op = spla.LinearOperator((n, n), dtype=np.float64,
                             matvec=lambda v: np.array(prec(apply(v)),
                                                       dtype=np.float64))
    residuals = []  # one entry per inner iteration
    x, info = spla.gmres(op, Mb, rtol=rel_tol, atol=0.0, restart=r,
                         maxiter=math.ceil(max_iter / r),
                         callback=residuals.append, callback_type="pr_norm")
    return x, len(residuals), info == 0
