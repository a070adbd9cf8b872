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

    def test_zero_rhs(self):
        A, _ = random_system()
        x, its, ok = gmres(lambda v: A @ v, np.zeros(A.shape[0]))
        assert ok and its == 0 and np.all(x == 0)

    def test_identity_one_iteration(self):
        b = np.arange(1.0, 11.0)
        x, its, ok = gmres(lambda v: v, b, rel_tol=1e-12, max_iter=10)
        assert ok and its == 1
        np.testing.assert_allclose(x, b, rtol=1e-12)


class TestGmresPinned:
    """Iteration counts and flags measured on the package's own GMRES
    (modified Gram-Schmidt, Givens rotations) before it was replaced by
    SciPy's; the replacement must reproduce them."""

    def test_unpreconditioned(self):
        A, b = random_system(seed=7)
        _, its, ok = gmres(lambda v: A @ v, b, rel_tol=1e-10, max_iter=400)
        assert (its, ok) == (27, True)

    def test_left_preconditioned_norm_stops(self):
        # a diagonal M spanning six orders of magnitude: the solve stops on
        # ||M r|| <= rel_tol ||M b|| while ||r||/||b|| is still 5e-2
        A, b = random_system(n=150, seed=5, shift=3.0)
        d = 10.0 ** np.random.default_rng(1).uniform(-3, 3, 150)
        x, its, ok = gmres(lambda v: A @ v, b, rel_tol=1e-6, max_iter=400,
                           left_prec=lambda v: d * v)
        assert (its, ok) == (111, True)
        r = b - A @ x
        assert np.linalg.norm(d * r) <= 1e-6 * np.linalg.norm(d * b)
        assert np.linalg.norm(r) > 1e-2 * np.linalg.norm(b)

    @pytest.mark.parametrize("n,seed,shift,expected", [
        (200, 2, 6.0, (24, True)), (120, 11, 1.0, (400, False))])
    def test_restarted(self, n, seed, shift, expected):
        A, b = random_system(n=n, seed=seed, shift=shift)
        _, its, ok = gmres(lambda v: A @ v, b, rel_tol=1e-10, max_iter=400,
                           restart=10)
        assert (its, ok) == expected

    def test_cap_rounds_up_to_whole_cycles(self):
        # new with SciPy's loop: the cap counts restart cycles, here 3 of 2
        A, b = random_system(n=200, seed=2, shift=0.5)
        _, its, ok = gmres(lambda v: A @ v, b, rel_tol=1e-14, max_iter=5,
                           restart=2)
        assert (its, ok) == (6, False)
