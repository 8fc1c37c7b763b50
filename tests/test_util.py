"""Dense-oracle tests of the linear-algebra helpers in ``sketchkrr._util``:
the Cholesky factor in rectangular full packed storage and its solve against
numpy's Cholesky and LU solve, the solve with a full lower Cholesky factor,
the one-triangle product against the full GEMV of ``@``, and the block
Krylov eigensolver's basis and residuals against their definitions."""

import numpy as np
import pytest
import scipy.linalg as sla

from sketchkrr import DesignPoints, KernelMatrix, KernelSpec, build_kernel_matrix
from sketchkrr._util import _extend, _householder, block_krylov, rfp_factor_shifted, solve_factor, symv

EPS = np.finfo(np.float64).eps


def sobolev_matrix(n: int, seed: int) -> np.ndarray:
    x = np.sort(np.random.default_rng(seed).uniform(0.0, 1.0, n))
    return build_kernel_matrix(KernelSpec.sobolev1(), DesignPoints(x)).matrix


def unpack(packed: np.ndarray, n: int) -> np.ndarray:
    """The full lower triangle of an RFP array from ``rfp_factor_shifted``."""
    full, info = sla.lapack.dtfttr(n, packed, transr="T", uplo="L")
    assert info == 0
    return np.tril(full)


# both parities, the one-entry factor and the sizes of the sweeps
RFP_SIZES = [1, 2, 7, 8, 40, 1023, 1024]


class TestRfpFactor:
    @pytest.mark.parametrize("n", RFP_SIZES)
    @pytest.mark.parametrize("shift", [1e-2, 1e-5])
    def test_factor_matches_numpy_cholesky(self, n, shift):
        K = sobolev_matrix(n, n)
        A = K + shift * np.eye(n)
        L, want = unpack(rfp_factor_shifted(K, shift), n), np.linalg.cholesky(A)
        assert np.abs(L - want).max() <= np.linalg.cond(A) * EPS * np.abs(want).max()

    @pytest.mark.parametrize("n", RFP_SIZES)
    @pytest.mark.parametrize("shift", [1e-2, 1e-5])
    def test_solve_matches_dense_solve(self, n, shift):
        # two backward-stable solves of A x = b differ by about cond(A) * eps
        # relative to max |x| at most
        K = sobolev_matrix(n, n)
        A = K + shift * np.eye(n)
        packed = rfp_factor_shifted(K, shift)
        tol = np.linalg.cond(A) * EPS
        rng = np.random.default_rng(n)
        for b in (rng.standard_normal(n), rng.standard_normal((n, 2))):
            x, want = solve_factor(packed, b), np.linalg.solve(A, b)
            assert x.shape == b.shape
            assert np.abs(x - want).max() <= tol * np.abs(want).max()

    @pytest.mark.parametrize("n", RFP_SIZES)
    def test_shift_lands_on_the_diagonal_positions(self, n):
        # dtrttf of a matrix labelled by flat position places each label;
        # the factor of 0 + 4 I is 2 exactly where the diagonal labels land
        labels = np.arange(n * n, dtype=np.float64).reshape(n, n)
        placed, _ = sla.lapack.dtrttf(labels, transr="T", uplo="L")
        on_diagonal = np.isin(placed, np.arange(n) * (n + 1))
        packed = rfp_factor_shifted(np.zeros((n, n)), 4.0)
        np.testing.assert_array_equal(packed, np.where(on_diagonal, 2.0, 0.0))

    @pytest.mark.parametrize("n", [1, 7, 8])
    def test_zero_pivot_raises(self, n):
        with pytest.raises(np.linalg.LinAlgError, match="dpftrf info = 1"):
            rfp_factor_shifted(np.zeros((n, n)), 0.0)
        indefinite = np.eye(n)
        indefinite[-1, -1] = -1.0
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            rfp_factor_shifted(indefinite, 0.5)

    @pytest.mark.parametrize("n", [7, 8])
    def test_leaves_its_operands_alone(self, n):
        K = sobolev_matrix(n, 2)
        K0 = K.copy()
        packed = rfp_factor_shifted(K, 1e-2)
        b = np.arange(float(n))
        packed0, b0 = packed.copy(), b.copy()
        solve_factor(packed, b)
        np.testing.assert_array_equal(K, K0)
        np.testing.assert_array_equal(packed, packed0)
        np.testing.assert_array_equal(b, b0)


def cho_lower(K: np.ndarray, shift: float) -> np.ndarray:
    return sla.cho_factor(K + shift * np.eye(len(K)), lower=True)[0]


class TestSolveFactor:
    @pytest.mark.parametrize("n", [11, 462, 1200])
    @pytest.mark.parametrize("shift", [1e-2, 1e-5])
    def test_matches_dense_solve(self, n, shift):
        # two backward-stable solves of A x = b differ by about cond(A) * eps
        # relative to max |x| at most (worst seen: 0.12 of that bound)
        K = sobolev_matrix(n, n)
        A = K + shift * np.eye(n)
        L = cho_lower(K, shift)
        tol = np.linalg.cond(A) * EPS
        rng = np.random.default_rng(n)
        for b in (rng.standard_normal(n), rng.standard_normal((n, 2))):
            x, want = solve_factor(L, b), np.linalg.solve(A, b)
            assert x.shape == b.shape
            assert np.abs(x - want).max() <= tol * np.abs(want).max()

    @pytest.mark.parametrize("n", [11, 462, 1200])
    def test_two_columns_give_cho_solves_bits(self, n):
        K = sobolev_matrix(n, n + 1)
        L = cho_lower(K, 1e-3)
        B = np.random.default_rng(n).standard_normal((n, 2))
        np.testing.assert_array_equal(solve_factor(L, B), sla.cho_solve((L, True), B))

    def test_leaves_its_operands_alone(self):
        K = sobolev_matrix(40, 2)
        L = cho_lower(K, 1e-2)
        b = np.arange(40.0)
        L0, b0 = L.copy(), b.copy()
        solve_factor(L, b)
        np.testing.assert_array_equal(L, L0)
        np.testing.assert_array_equal(b, b0)


    @pytest.mark.parametrize("shape", [(0,), (0, 2)])
    def test_empty_system(self, shape):
        # a sketched fit whose pivoted factor keeps no row solves a 0 x 0 system
        x = solve_factor(np.empty((0, 0), order="F"), np.empty(shape))
        assert x.shape == shape

    def test_zero_pivot_is_named(self):
        L = np.asfortranarray(np.tril(np.ones((4, 4))))
        L[2, 2] = 0.0
        with pytest.raises(np.linalg.LinAlgError, match="dtrtrs info = 3"):
            solve_factor(L, np.ones(4))


class TestSymv:
    @pytest.fixture(scope="class")
    def matrices(self):
        # built (exactly symmetric by construction), checked, and checked
        # while kept Fortran-ordered
        x = np.sort(np.random.default_rng(3).uniform(0.0, 1.0, 500))
        built = build_kernel_matrix(KernelSpec.gaussian(0.25), DesignPoints(x))
        fortran = np.asfortranarray(built.matrix)
        return {
            "built": built,
            "checked": KernelMatrix(built.matrix),
            "fortran": KernelMatrix(fortran, copy=False),
        }

    @pytest.mark.parametrize("which", ["built", "checked", "fortran"])
    @pytest.mark.parametrize("shape", [(500,), (500, 1), (500, 2), (500, 8), (500, 56)])
    def test_matches_gemv(self, matrices, which, shape):
        K = matrices[which]
        v = np.random.default_rng(7).standard_normal(shape)
        got, want = symv(K.matrix, v), K.matrix @ v
        assert got.shape == shape
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("shape", [(499,), (1, 500), (500, 1, 1)])
    def test_rejects_other_operands(self, matrices, shape):
        with pytest.raises(ValueError, match="symv takes"):
            symv(matrices["built"].matrix, np.ones(shape))


def assert_extends(Q: np.ndarray, grown: np.ndarray) -> None:
    """``grown`` is Q followed by orthonormal columns orthogonal to Q."""
    p, b = Q.shape[1], grown.shape[1] - Q.shape[1]
    np.testing.assert_array_equal(grown[:, :p], Q)
    X = grown[:, p:]
    assert np.abs(X.T @ X - np.eye(b)).max() <= 1e-14
    assert np.abs(Q.T @ X).max() <= 1e-14


class TestExtend:
    @pytest.mark.parametrize("b", [8, 1])
    def test_block_inside_the_basis_is_replaced(self, b):
        # Q the first b coordinate vectors and a block Q C: the first QR's
        # columns lie inside span(Q), every column breaks down
        n = 40
        Q = np.eye(n)[:, :b]
        C = np.random.default_rng(b).standard_normal((b, b))
        X = _householder(Q @ C)[0]
        assert np.abs(X - Q @ (Q.T @ X)).max() <= 1e-15
        grown = _extend(Q, X, np.random.default_rng(5))
        assert grown.shape == (n, 2 * b)
        assert_extends(Q, grown)
        np.testing.assert_array_equal(grown, _extend(Q, X, np.random.default_rng(5)))

    def test_columns_after_a_breakdown_stay_orthogonal_to_the_basis(self):
        # the middle column lies inside span(Q); the QR that finds it made the
        # last column orthogonal to it, so the block is factored once more
        n, rng = 30, np.random.default_rng(3)
        Q = np.linalg.qr(rng.standard_normal((n, 10)))[0]
        outside = rng.standard_normal((n, 2))
        outside -= Q @ (Q.T @ outside)
        X = _householder(np.column_stack((outside[:, 0], Q @ rng.standard_normal(10), outside[:, 1])))[0]
        assert_extends(Q, _extend(Q, X, np.random.default_rng(5)))

    def test_block_outside_the_basis_keeps_its_span(self):
        n, rng = 50, np.random.default_rng(4)
        Q = np.linalg.qr(rng.standard_normal((n, 16)))[0]
        Y = rng.standard_normal((n, 8))
        X = _householder(Y - Q @ (Q.T @ Y))[0]
        grown = _extend(Q, X, np.random.default_rng(5))
        assert_extends(Q, grown)
        # the new columns span the projected block: X = X' (X'^T X)
        new = grown[:, 16:]
        assert np.abs(X - new @ (new.T @ X)).max() <= 1e-14


class TestBlockKrylov:
    @pytest.mark.parametrize("n, block", [(20, 8), (16, 8), (12, 1)])
    def test_every_residual_is_the_ritz_pairs(self, n, block):
        # every yield, the last one included, where the basis fills R^n or
        # no further block fits: the residual norms are those of K V - V Theta
        K = sobolev_matrix(n, n)
        mu1 = np.linalg.eigvalsh(K)[-1]
        ks = []
        for theta, residuals, vectors in block_krylov(lambda X: K @ X, n, block):
            V = vectors()
            assert V.shape == (n, theta.size) and residuals.shape == theta.shape
            want = np.linalg.norm(K @ V - V * theta, axis=0)
            assert np.abs(residuals - want).max() <= 1e-13 * mu1
            ks.append(theta.size)
        assert ks == list(range(block, n + 1, block))

    def test_full_basis_gives_the_spectrum(self):
        n = 12
        K = sobolev_matrix(n, 1)
        *_, (theta, residuals, _) = block_krylov(lambda X: K @ X, n, 1)
        mu = np.linalg.eigvalsh(K)[::-1]
        assert np.abs(theta - mu).max() <= 1e-14 * mu[0]
        assert residuals.max() <= 1e-13 * mu[0]
