"""Direct solver wrapper and GMRES tests against dense oracles."""

import numpy as np
import pytest
import scipy.sparse as sp

from nlschwarz.sparse import SingularMatrixError, factorize, gmres


def random_system(n=120, seed=0, shift=4.0):
    rng = np.random.default_rng(seed)
    A = sp.random(n, n, density=0.08, random_state=rng.integers(1 << 31))
    A = A + shift * sp.eye(n)
    b = rng.standard_normal(n)
    return A.tocsr(), b


class TestFactorize:
    def test_matches_dense_solve(self):
        A, b = random_system()
        x = factorize(A).solve(b)
        np.testing.assert_allclose(x, np.linalg.solve(A.toarray(), b),
                                   rtol=1e-10, atol=1e-12)

    def test_fast_mode_accuracy(self):
        A, b = random_system(seed=3)
        x = factorize(A, fast=True).solve(b)
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-8

    def test_multiple_rhs_reuse(self):
        A, _ = random_system(seed=1)
        f = factorize(A)
        rng = np.random.default_rng(5)
        for _ in range(3):
            b = rng.standard_normal(A.shape[0])
            assert np.linalg.norm(A @ f.solve(b) - b) < 1e-8

    def test_singular_raises(self):
        A = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
        with pytest.raises(SingularMatrixError):
            factorize(A)

    def test_structurally_singular_raises(self):
        A = sp.eye(5).tolil()
        A[2, 2] = 0.0
        with pytest.raises(SingularMatrixError):
            factorize(A.tocsr())

    def test_nonsquare_raises(self):
        with pytest.raises(ValueError):
            factorize(sp.csr_matrix(np.ones((3, 4))))


class TestGmres:
    def test_matches_dense_solve(self):
        A, b = random_system(seed=7)
        x, its, ok = gmres(lambda v: A @ v, b, rel_tol=1e-12, max_iter=200)
        assert ok
        np.testing.assert_allclose(x, np.linalg.solve(A.toarray(), b),
                                   rtol=1e-8, atol=1e-10)

    def test_restarted(self):
        A, b = random_system(n=200, seed=2, shift=6.0)
        x, its, ok = gmres(lambda v: A @ v, b, rel_tol=1e-10,
                           max_iter=600, restart=25)
        assert ok
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-9

    def test_iteration_cap_reported(self):
        A, b = random_system(n=200, seed=2, shift=0.5)
        x, its, ok = gmres(lambda v: A @ v, b, rel_tol=1e-14, max_iter=5)
        assert not ok
        assert its == 5

    def test_left_preconditioner(self):
        A, b = random_system(seed=9)
        M = factorize(A)
        x, its, ok = gmres(lambda v: A @ v, b, rel_tol=1e-12, max_iter=50,
                           left_prec=M.solve)
        assert ok
        assert its <= 3
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-10

    def test_initial_guess(self):
        A, b = random_system(seed=4)
        x_star = factorize(A).solve(b)
        x, its, ok = gmres(lambda v: A @ v, b, rel_tol=1e-10, max_iter=100,
                           x0=x_star)
        assert ok
        assert its == 0 or np.linalg.norm(x - x_star) < 1e-8

    def test_zero_rhs(self):
        A, _ = random_system()
        x, its, ok = gmres(lambda v: A @ v, np.zeros(A.shape[0]))
        assert ok and its == 0 and np.all(x == 0)

    def test_identity_one_iteration(self):
        b = np.arange(1.0, 11.0)
        x, its, ok = gmres(lambda v: v, b, rel_tol=1e-12, max_iter=10)
        assert ok and its == 1
        np.testing.assert_allclose(x, b, rtol=1e-12)
