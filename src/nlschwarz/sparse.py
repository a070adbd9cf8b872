"""Sparse direct solves and a restarted GMRES over abstract operators."""

from __future__ import annotations

import re
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


try:
    import ctypes
    # Fix the malloc mmap threshold (M_MMAP_THRESHOLD = -3) at 128 KiB, so
    # large transient assembly and factorization buffers are unmapped on free
    # instead of growing the heap.  Without it the peak RSS of the 4x4 cavity
    # benchmarks rose from 211 to 267-329 MB (hybrid) and from 146 to
    # 224-265 MB (NKS), 4 runs each.
    ctypes.CDLL("libc.so.6").mallopt(-3, 131072)
except OSError:  # pragma: no cover - non-glibc platform
    pass


class SingularMatrixError(RuntimeError):
    def __init__(self, message: str, pivot: int | None = None):
        super().__init__(message)
        self.pivot = pivot


class Factorization:
    """Reusable sparse LU of a square matrix (SuperLU with partial pivoting)."""

    def __init__(self, lu: spla.SuperLU):
        self._lu = lu

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self._lu.solve(np.asarray(b, dtype=np.float64))


def factorize(A: sp.spmatrix, fast: bool = False) -> Factorization:
    """Sparse LU.  `fast` trades strict partial pivoting for a symmetric-mode
    ordering with relaxed pivoting, which roughly halves the factorization
    cost on the near-symmetric subdomain blocks; accuracy stays far below
    the nonlinear solver tolerances."""
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix is not square: {A.shape}")
    kwargs = (dict(permc_spec="MMD_AT_PLUS_A",
                   options=dict(SymmetricMode=True, DiagPivotThresh=1e-3))
              if fast else {})
    try:
        lu = spla.splu(sp.csc_matrix(A), **kwargs)
    except RuntimeError as exc:
        m = re.search(r"\d+", str(exc))
        raise SingularMatrixError(str(exc), pivot=int(m.group()) if m else None) from exc
    # splu may return a factorization with an exactly-zero pivot on
    # structurally singular input instead of raising
    diag_u = lu.U.diagonal()
    zero = np.flatnonzero(diag_u == 0.0)
    if zero.size:
        raise SingularMatrixError(f"zero pivot at index {zero[0]}", pivot=int(zero[0]))
    return Factorization(lu)


def gmres(apply: Callable[[np.ndarray], np.ndarray], b: np.ndarray,
          rel_tol: float = 1e-8, max_iter: int = 1000, restart: int | None = None,
          left_prec: Callable[[np.ndarray], np.ndarray] | None = None
          ) -> tuple[np.ndarray, int, bool]:
    """Restarted GMRES with modified Gram-Schmidt.

    `restart` is the inner subspace size and `max_iter` the cap on total inner
    iterations across restart cycles.  With `left_prec` the residual norm is
    the preconditioned one.  Returns (x, total iterations, converged flag);
    on failure the best iterate found is returned.
    """
    b = np.asarray(b, dtype=np.float64)
    n = b.shape[0]
    if restart is None or restart > max_iter:
        restart = max_iter
    prec = left_prec if left_prec is not None else (lambda v: v)

    x = np.zeros(n)
    total = 0
    r = prec(b)
    norm_b = np.linalg.norm(r)
    if norm_b == 0.0:
        return np.zeros(n), 0, True
    tol_abs = rel_tol * norm_b

    while True:
        beta = np.linalg.norm(r)
        if beta <= tol_abs:
            return x, total, True
        m = min(restart, max_iter - total)
        if m <= 0:
            return x, total, False
        # grow the Krylov basis geometrically instead of preallocating the
        # whole restart window; large restarts would dominate memory otherwise
        V = np.empty((min(m, 32) + 1, n))
        H = np.zeros((m + 1, m))
        cs = np.zeros(m)
        sn = np.zeros(m)
        g = np.zeros(m + 1)
        g[0] = beta
        V[0] = r / beta
        j_done = 0
        for j in range(m):
            # copy: the operator may return its argument (e.g. the identity),
            # and Gram-Schmidt must not modify the stored basis in place
            w = np.array(prec(apply(V[j])), dtype=np.float64)
            # modified Gram-Schmidt with one reorthogonalization pass if the
            # projected mass indicates loss of orthogonality
            norm_w0 = np.linalg.norm(w)
            for i in range(j + 1):
                h = V[i] @ w
                H[i, j] = h
                w -= h * V[i]
            if np.linalg.norm(w) < 1e-8 * norm_w0:
                for i in range(j + 1):
                    c = V[i] @ w
                    H[i, j] += c
                    w -= c * V[i]
            hnext = np.linalg.norm(w)
            H[j + 1, j] = hnext
            total += 1
            j_done = j + 1
            # apply stored Givens rotations to the new column
            for i in range(j):
                t = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
                H[i + 1, j] = -sn[i] * H[i, j] + cs[i] * H[i + 1, j]
                H[i, j] = t
            rho = np.hypot(H[j, j], H[j + 1, j])
            if rho == 0.0:
                cs[j], sn[j] = 1.0, 0.0
            else:
                cs[j], sn[j] = H[j, j] / rho, H[j + 1, j] / rho
            H[j, j] = rho
            H[j + 1, j] = 0.0
            g[j + 1] = -sn[j] * g[j]
            g[j] = cs[j] * g[j]
            if hnext == 0.0 or abs(g[j + 1]) <= tol_abs or total >= max_iter:
                break
            if j + 1 >= V.shape[0]:
                V = np.vstack([V, np.empty((min(V.shape[0], m + 1 - V.shape[0]), n))])
            V[j + 1] = w / hnext
        k = j_done
        y = np.linalg.solve(np.triu(H[:k, :k]), g[:k]) if k else np.zeros(0)
        x = x + V[:k].T @ y
        r = prec(b - apply(x))
        if np.linalg.norm(r) <= tol_abs:
            return x, total, True
        if total >= max_iter:
            return x, total, False
