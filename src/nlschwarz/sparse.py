"""Sparse direct solves and a restarted GMRES over abstract operators.

`factorize` builds every sparse LU of the package in one pivoting mode; the
weighted sum of the block solves is formed where the owner processes stack
them, by `owners.OwnerPool.combine`.
`gmres` hands SciPy's restarted GMRES an operator A and a right-hand side b
and stops on ||b - A x|| <= rel_tol ||b||; both solvers pass a
preconditioned operator and right-hand side, M A and M b, so the solve
stops on the preconditioned residual.  Its cap on inner iterations rounds
up to whole restart cycles, Gram-Schmidt makes one pass, and a breakdown
that misses the tolerance ends the solve instead of restarting it.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


try:
    import ctypes
    # Fix the malloc mmap threshold (M_MMAP_THRESHOLD = -3) at 128 KiB.
    # SciPy's SuperLU keeps each factor's L and U arrays at the capacity it
    # pre-sized them to, mostly never touched: eight held factors of one
    # 1,401-DOF cavity block (38,098 nonzeros, 133,638 factor nonzeros) add
    # 209.7 MB of malloc'd memory but 11.0 MB of RSS.  Above the fixed
    # threshold each array is a mapping of its own, whose untouched capacity
    # is never resident.  glibc's dynamic threshold rises to the size of
    # each mapping freed, so the next arrays land in the heap, whose pages
    # earlier buffers have touched, and there the capacity is resident.
    # Buffers that assembly plans own and reuse therefore cannot replace
    # the call.  Its price is a page fault on the first touch of every large
    # temporary: the caller's minor faults per solve of the 4x4 hybrid
    # cavity benchmark are 94-96k with the call and 29-30k without it, for
    # a peak RSS of 103.5-104.1 against 115.8-116.9 MB (3 runs each on
    # 2 vCPUs, 2 owner processes, BLAS threads pinned to 1).
    ctypes.CDLL("libc.so.6").mallopt(-3, 131072)
except OSError:  # pragma: no cover - non-glibc platform
    pass


class SingularMatrixError(RuntimeError):
    """SuperLU found the matrix singular."""


class Factorization:
    """Reusable sparse LU of a square matrix (SuperLU, see `factorize`).

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


def factorize(A: sp.spmatrix) -> Factorization:
    """Sparse LU in one pivoting mode: a symmetric-mode minimum-degree
    ordering of A^T + A that keeps a diagonal pivot down to 1e-3 of its
    column's largest entry.  On the near-symmetric finite element blocks the
    package factorizes, subdomain blocks and the coarse space's interior
    extensions, this roughly halves the cost of SuperLU's default partial
    pivoting, with errors far below the solver tolerances.  An exactly-zero
    pivot, numerical or structural, raises `SingularMatrixError` through
    SuperLU's own flag.  Release the result on the calling thread, in the
    calling process (see `Factorization`)."""
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix is not square: {A.shape}")
    try:
        lu = spla.splu(sp.csc_matrix(A), permc_spec="MMD_AT_PLUS_A",
                       options=dict(SymmetricMode=True, DiagPivotThresh=1e-3))
    except RuntimeError as exc:
        raise SingularMatrixError(str(exc)) from exc
    return Factorization(lu)


def gmres(apply: Callable[[np.ndarray], np.ndarray], b: np.ndarray,
          rel_tol: float = 1e-8, max_iter: int = 1000, restart: int | None = None
          ) -> tuple[np.ndarray, int, bool]:
    """Restarted GMRES (SciPy's) on A x = b, A = `apply`.

    The solve stops once ||b - A x|| <= rel_tol ||b||; a left-preconditioned
    system comes as M A and M b.  `restart` is the inner subspace size (all
    of `max_iter` if None); it is clipped to `max_iter` and to the system
    size.  Returns (x, total inner iterations, converged flag); on
    failure the last iterate is returned.  Three edges of SciPy's loop:

    - the cap `max_iter` rounds up to whole restart cycles: `max_iter=5,
      restart=2` stops after 6 iterations;
    - Gram-Schmidt runs once, with no second pass;
    - a breakdown (an exactly solved Krylov space) that fails the stopping
      test ends the solve, unconverged, instead of restarting.
    """
    b = np.asarray(b, dtype=np.float64)
    n = b.shape[0]
    if not b.any():
        return np.zeros(n), 0, True
    r = min(restart or max_iter, max_iter, n)
    # copy: SciPy's Gram-Schmidt updates the returned vector in place, and
    # the operator may return its argument (e.g. the identity)
    op = spla.LinearOperator((n, n), dtype=np.float64,
                             matvec=lambda v: np.array(apply(v),
                                                       dtype=np.float64))
    residuals = []  # one entry per inner iteration
    x, info = spla.gmres(op, b, rtol=rel_tol, atol=0.0, restart=r,
                         maxiter=math.ceil(max_iter / r),
                         callback=residuals.append, callback_type="pr_norm")
    return x, len(residuals), info == 0
