import numpy as np
import pytest

from helpers import rel_dev
from sketchkrr import (
    DesignPoints,
    DomainError,
    ExperimentConfig,
    KernelMatrix,
    KernelSpec,
    build_kernel_matrix,
    complexity_profile,
    derive_seed,
    draw_sketch,
    empirical_error,
    error_decomposition,
    generate_data,
    identity_sketch,
    krr_objective,
    materialize,
    predict,
    sketched_krr_objective,
    solve_dual_krr,
    solve_krr,
    solve_nystrom_dual,
    solve_sketched_krr,
    zero_noise_objective,
)
from sketchkrr.bench import _trial_streams
from sketchkrr.solver import _factor_krr, _sketched_normal_system


def sobolev_instance(n, seed, sigma=1.0):
    rng = np.random.default_rng(seed)
    pts = DesignPoints(np.sort(rng.uniform(0.0, 1.0, n)))
    K = build_kernel_matrix(KernelSpec.sobolev1(), pts)
    z = pts.x - 0.3
    y = z + sigma * rng.standard_normal(n)
    return K, pts, z, y


class TestSolveKrr:
    def test_scalar_closed_form(self):
        k, y0, lam = 0.7, 1.3, 0.05
        fit = solve_krr(KernelMatrix(np.array([[k]])), [y0], lam)
        np.testing.assert_allclose(fit.coefficients, [y0 / (k + 2 * lam)], rtol=1e-14)
        np.testing.assert_allclose(fit.fitted, [k * y0 / (k + 2 * lam)], rtol=1e-14)

    def test_zero_response(self):
        K, _, _, _ = sobolev_instance(10, 0)
        fit = solve_krr(K, np.zeros(10), 0.1)
        np.testing.assert_array_equal(fit.coefficients, np.zeros(10))

    def test_heavy_regularization_bounds_coefficients(self):
        K, _, _, y = sobolev_instance(20, 1)
        lam = 1e6
        fit = solve_krr(K, y, lam)
        assert np.linalg.norm(fit.coefficients) <= np.linalg.norm(y) / (2 * lam * np.sqrt(20))

    def test_gradient_is_zero_at_solution(self):
        K, _, _, y = sobolev_instance(30, 2)
        lam = 0.03
        fit = solve_krr(K, y, lam)
        grad = K.matrix @ (
            (K.matrix + 2 * lam * np.eye(30)) @ fit.coefficients - y / np.sqrt(30)
        )
        assert np.abs(grad).max() <= 1e-12

    def test_objective_minimal_under_perturbations(self):
        K, _, _, y = sobolev_instance(25, 3)
        lam = 0.02
        fit = solve_krr(K, y, lam)
        base = krr_objective(K, y, lam, fit.coefficients)
        rng = np.random.default_rng(4)
        for _ in range(100):
            eps = rng.standard_normal(25)
            eps *= 1e-3 / np.linalg.norm(eps)
            assert krr_objective(K, y, lam, fit.coefficients + eps) >= base - 1e-12

    def test_fitted_matches_recomputation(self):
        K, _, _, y = sobolev_instance(15, 5)
        fit = solve_krr(K, y, 0.01)
        assert np.abs(fit.fitted - np.sqrt(15) * K.matrix @ fit.coefficients).max() <= 1e-10

    def test_sketched_fitted_matches_recomputation(self):
        K, _, _, y = sobolev_instance(21, 5)
        for kind in ("gaussian", "ros", "subsample"):
            fit = solve_sketched_krr(K, y, draw_sketch(kind, 7, 21, 1), 0.02)
            recomputed = np.sqrt(21) * K.matrix @ fit.expansion_weights()
            assert np.abs(fit.fitted - recomputed).max() <= 1e-10

    def test_lambda_must_be_positive(self):
        K, _, _, y = sobolev_instance(5, 6)
        with pytest.raises(DomainError):
            solve_krr(K, y, 0.0)

    def test_lambda_must_be_finite(self):
        K, _, _, y = sobolev_instance(5, 6)
        with pytest.raises(DomainError, match="lambda_n"):
            solve_krr(K, y, np.inf)
        with pytest.raises(DomainError, match="lambda_n"):
            solve_sketched_krr(K, y, draw_sketch("gaussian", 2, 5, 1), np.inf)

    def test_kept_factor_reproduces_a_fresh_solve_bit_for_bit(self):
        K, _, _, y = sobolev_instance(30, 7)
        factor = _factor_krr(K, 0.02)
        fresh = solve_krr(K, y, 0.02)
        for rhs in (y, -2.0 * y):  # one factor, many right-hand sides
            kept = solve_krr(K, rhs, 0.02, _factor=factor)
            want = solve_krr(K, rhs, 0.02)
            np.testing.assert_array_equal(kept.coefficients, want.coefficients)
            np.testing.assert_array_equal(kept.fitted, want.fitted)
        np.testing.assert_array_equal(solve_krr(K, y, 0.02, _factor=factor).fitted, fresh.fitted)

    def test_factor_made_for_another_kernel_or_lambda_is_rejected(self):
        K, _, _, y = sobolev_instance(12, 8)
        factor = _factor_krr(K, 0.02)
        # same values, another matrix: the factor is tied to the instance
        with pytest.raises(DomainError, match="another kernel matrix"):
            solve_krr(KernelMatrix(K.matrix), y, 0.02, _factor=factor)
        with pytest.raises(DomainError, match="lambda_n=0.02, not 0.03"):
            solve_krr(K, y, 0.03, _factor=factor)


class TestSolveSketchedKrr:
    def test_identity_sketch_recovers_exact(self):
        K, _, _, y = sobolev_instance(32, 7)
        lam = 0.04
        exact = solve_krr(K, y, lam)
        sketched = solve_sketched_krr(K, y, identity_sketch(32), lam)
        assert rel_dev(sketched.fitted, exact.fitted) <= 1e-8

    def test_scalar_case_matches_exact(self):
        # any nonzero scalar sketch spans R^1, so S^T a reproduces the exact weight
        k, y0, lam = 0.9, 2.0, 0.1
        K = KernelMatrix(np.array([[k]]))
        S = draw_sketch("gaussian", 1, 1, 0)
        fit = solve_sketched_krr(K, [y0], S, lam)
        np.testing.assert_allclose(fit.expansion_weights(), [y0 / (k + 2 * lam)], rtol=1e-12)
        np.testing.assert_allclose(fit.fitted, [k * y0 / (k + 2 * lam)], rtol=1e-12)

    def test_zero_response_gives_zero_coefficients(self):
        K, _, _, _ = sobolev_instance(16, 8)
        S = draw_sketch("ros", 5, 16, 1)
        fit = solve_sketched_krr(K, np.zeros(16), S, 0.05)
        np.testing.assert_array_equal(fit.coefficients, np.zeros(5))

    def test_degenerate_kernel_flagged_min_norm(self):
        K = KernelMatrix(np.zeros((6, 6)))
        S = draw_sketch("subsample", 3, 6, 2)
        fit = solve_sketched_krr(K, np.ones(6), S, 0.1)
        assert fit.rank_deficient
        np.testing.assert_array_equal(fit.coefficients, np.zeros(3))

    def test_numerically_singular_system_flagged(self):
        # sub-sampling fit on an irregular design (gaussian kernel, n = 1200,
        # m = 11; data and sketch from the two streams of one trial seed):
        # Cholesky factors its m x m system although LAPACK estimates the
        # reciprocal condition number at ~5e-19
        n, m = 1200, 11
        config = ExperimentConfig(
            kernel=KernelSpec.gaussian(0.25), fstar="quad", design="irregular",
            sigma=0.125, n_grid=(n,), base_seed=2,
        )
        data_seed, sketch_seed = _trial_streams(derive_seed(2, n, "subsample", 0))
        sample = generate_data(config, n, data_seed)
        K = build_kernel_matrix(config.kernel, sample.pts)
        lam = 2.0 * complexity_profile(K.eigenvalues, n, config.sigma).delta_n_sq
        S = draw_sketch("subsample", m, n, sketch_seed)
        fit = solve_sketched_krr(K, sample.y, S, lam)
        assert fit.rank_deficient
        # the sketched objective as least squares ||M a - c||^2, with
        # M = [K S^T; sqrt(2 lam) K^(1/2) S^T] and c = [y / sqrt(n); 0]
        U, mu = K.eig()
        St = materialize(S).T
        M = np.vstack([K.matrix @ St, np.sqrt(2.0 * lam) * (U @ (np.sqrt(mu)[:, None] * (U.T @ St)))])
        c = np.concatenate([sample.y / np.sqrt(n), np.zeros(n)])
        best = np.linalg.lstsq(M, c, rcond=None)[0]
        excess = np.sum((M @ fit.coefficients - c) ** 2) / np.sum((M @ best - c) ** 2) - 1.0
        assert excess < 0.5

    @pytest.mark.parametrize("kind", ["gaussian", "ros", "subsample"])
    def test_normal_matrix_matches_dense_products(self, kind):
        # A = S K (K + 2 lam I) S^T against the dense two-term form
        n, lam = 40, 0.07
        K, _, _, _ = sobolev_instance(n, 13)
        S = draw_sketch(kind, 9, n, 2)
        D = materialize(S)
        SK, A = _sketched_normal_system(K, S, lam)
        want = D @ K.matrix @ K.matrix @ D.T + 2.0 * lam * (D @ K.matrix @ D.T)
        assert rel_dev(SK, D @ K.matrix) <= 1e-14
        assert np.abs(A - want).max() <= 1e-14 * np.abs(want).max()
        if kind == "subsample":
            np.testing.assert_array_equal(A, A.T)

    def test_span_completeness_full_gaussian_sketch(self):
        K, _, _, y = sobolev_instance(24, 9)
        lam = 0.03
        exact = solve_krr(K, y, lam)
        S = draw_sketch("gaussian", 24, 24, 3)
        sketched = solve_sketched_krr(K, y, S, lam)
        assert rel_dev(sketched.fitted, exact.fitted) <= 1e-8

    def test_objective_minimal_under_perturbations(self):
        K, _, _, y = sobolev_instance(20, 10)
        lam = 0.05
        S = draw_sketch("gaussian", 6, 20, 4)
        fit = solve_sketched_krr(K, y, S, lam)
        base = sketched_krr_objective(K, y, S, lam, fit.coefficients)
        rng = np.random.default_rng(11)
        for _ in range(100):
            eps = rng.standard_normal(6)
            eps *= 1e-3 / np.linalg.norm(eps)
            assert sketched_krr_objective(K, y, S, lam, fit.coefficients + eps) >= base - 1e-12

    def test_monotone_regularization_shrinks_fitted_norm(self):
        K, _, _, y = sobolev_instance(30, 12)
        lams = np.logspace(-4, 2, 10)
        norms = [np.linalg.norm(solve_krr(K, y, lam).fitted) for lam in lams]
        assert (np.diff(norms) <= 1e-12).all()


class TestZeroNoiseAndDecomposition:
    def test_zero_target_gives_zero(self):
        K, _, _, _ = sobolev_instance(12, 13)
        S = draw_sketch("gaussian", 4, 12, 5)
        np.testing.assert_array_equal(
            solve_sketched_krr(K, np.zeros(12), S, 0.1).coefficients, np.zeros(4)
        )

    def test_identity_sketch_equals_noiseless_exact(self):
        from sketchkrr import apply_sketch_t

        K, _, z, _ = sobolev_instance(18, 14)
        lam = 0.02
        S = identity_sketch(18)
        alpha = solve_sketched_krr(K, z, S, lam).coefficients
        exact = solve_krr(K, z, lam)
        fitted = np.sqrt(18) * K.matrix @ apply_sketch_t(S, alpha)
        assert rel_dev(fitted, exact.fitted) <= 1e-8

    def test_objective_minimal_under_perturbations(self):
        K, _, z, _ = sobolev_instance(15, 15)
        lam = 0.03
        S = draw_sketch("ros", 5, 15, 6)
        alpha = solve_sketched_krr(K, z, S, lam).coefficients
        base = zero_noise_objective(K, z, S, lam, alpha)
        rng = np.random.default_rng(16)
        for _ in range(100):
            eps = rng.standard_normal(5)
            eps *= 1e-3 / np.linalg.norm(eps)
            assert zero_noise_objective(K, z, S, lam, alpha + eps) >= base - 1e-12

    def test_noiseless_responses_have_zero_estimation_error(self):
        K, _, z, _ = sobolev_instance(20, 17)
        S = draw_sketch("gaussian", 6, 20, 7)
        approx, est, total = error_decomposition(K, z, z, S, 0.05)
        assert est == 0.0
        assert abs(total - approx) <= 1e-15

    def test_half_total_bounded_by_sum(self):
        rng = np.random.default_rng(18)
        for trial in range(50):
            n = int(rng.integers(4, 24))
            K, _, z, y = sobolev_instance(n, 1000 + trial)
            m = int(rng.integers(1, n + 1))
            kind = ("gaussian", "ros", "subsample")[trial % 3]
            S = draw_sketch(kind, m, n, trial)
            lam = float(rng.uniform(1e-4, 0.5))
            approx, est, total = error_decomposition(K, z, y, S, lam)
            assert 0.5 * total <= approx + est + 1e-12


class TestPredict:
    def test_training_points_reproduce_fitted(self):
        spec = KernelSpec.gaussian(0.25)
        rng = np.random.default_rng(19)
        pts = DesignPoints(rng.uniform(0, 1, 20))
        K = build_kernel_matrix(spec, pts)
        y = rng.standard_normal(20)
        for fit in (
            solve_krr(K, y, 0.05),
            solve_sketched_krr(K, y, draw_sketch("ros", 6, 20, 8), 0.05),
        ):
            assert np.abs(predict(fit, spec, pts, pts.x) - fit.fitted).max() <= 1e-10

    def test_zero_coefficients_predict_zero(self):
        spec = KernelSpec.sobolev1()
        pts = DesignPoints(np.array([0.2, 0.6, 0.8]))
        K = build_kernel_matrix(spec, pts)
        fit = solve_krr(K, np.zeros(3), 1.0)
        np.testing.assert_array_equal(predict(fit, spec, pts, np.array([0.1, 0.5])), np.zeros(2))

    def test_scalar_sketched_composition(self):
        # f(x) = kernel(x, x1) * y0 / (k + 2 lam) for the 1-point problem
        spec = KernelSpec.gaussian(0.5)
        x1, y0, lam = 0.4, 1.7, 0.2
        pts = DesignPoints(np.array([x1]))
        K = build_kernel_matrix(spec, pts)
        fit = solve_sketched_krr(K, [y0], draw_sketch("subsample", 1, 1, 0), lam)
        k = K.matrix[0, 0]
        from sketchkrr import kernel_eval

        q = 0.9
        np.testing.assert_allclose(
            predict(fit, spec, pts, q), kernel_eval(spec, q, x1) * y0 / (k + 2 * lam), rtol=1e-12
        )


class TestEmpiricalError:
    def test_identical_vectors(self):
        assert empirical_error([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_unit_offset(self):
        assert empirical_error(np.zeros(7), np.ones(7)) == 1.0

    def test_mean_of_squares(self):
        assert empirical_error([1.0, 2.0], [0.0, 0.0]) == 2.5

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            empirical_error([1.0], [1.0, 2.0])


class TestDualSolvers:
    def test_scalar_dual_identities(self):
        k, y0, lam = 0.8, 1.1, 0.07
        K = KernelMatrix(np.array([[k]]))
        xi, omega = solve_dual_krr(K, [y0], lam)
        np.testing.assert_allclose(xi, [y0 / (k / (2 * lam) + 1)], rtol=1e-14)
        np.testing.assert_allclose(omega, [y0 / (k + 2 * lam)], rtol=1e-14)

    def test_zero_response(self):
        K, _, _, _ = sobolev_instance(9, 20)
        xi, omega = solve_dual_krr(K, np.zeros(9), 0.1)
        np.testing.assert_array_equal(xi, np.zeros(9))
        np.testing.assert_array_equal(omega, np.zeros(9))

    def test_dual_recovers_primal_coefficients(self):
        rng = np.random.default_rng(21)
        for trial in range(25):
            n = int(rng.integers(2, 65))
            K, _, _, y = sobolev_instance(n, 2000 + trial)
            lam = float(rng.uniform(1e-3, 1.0))
            primal = solve_krr(K, y, lam)
            _, omega = solve_dual_krr(K, y, lam)
            assert np.linalg.norm(omega - primal.coefficients) <= 1e-8 * np.linalg.norm(
                primal.coefficients
            )

    def test_nystrom_identity_sketch_reduces_to_exact_dual(self):
        K, _, _, y = sobolev_instance(16, 22)
        lam = 0.05
        fit = solve_nystrom_dual(K, y, identity_sketch(16), lam)
        exact = solve_krr(K, y, lam)
        assert rel_dev(fit.fitted, exact.fitted) <= 1e-8

    def test_nystrom_dual_matches_sketched_primal(self):
        rng = np.random.default_rng(23)
        for trial in range(20):
            n = int(rng.integers(8, 64))
            K, _, _, y = sobolev_instance(n, 3000 + trial)
            m = int(rng.integers(2, n + 1))
            S = draw_sketch("subsample", m, n, trial)
            lam = float(rng.uniform(1e-3, 0.3))
            primal = solve_sketched_krr(K, y, S, lam)
            dual = solve_nystrom_dual(K, y, S, lam)
            assert rel_dev(dual.fitted, primal.fitted) <= 1e-8

    def test_block_diagonal_miss_ignores_second_block(self):
        # kernel = diag(K1, K2); a sketch with rows only in block 1 yields
        # fitted values on block 2 that ignore those responses entirely
        n1, n2 = 12, 4
        x1 = np.arange(1, n1 + 1) / n1
        x2 = np.arange(1, n2 + 1) / n2
        n = n1 + n2
        Kmat = np.zeros((n, n))
        Kmat[:n1, :n1] = np.minimum.outer(x1, x1) / n
        Kmat[n1:, n1:] = np.minimum.outer(x2, x2) / n
        K = KernelMatrix(Kmat)
        from sketchkrr import SketchOperator

        S = SketchOperator("subsample", n1, n, 0, indices=np.arange(n1))
        rng = np.random.default_rng(24)
        y = rng.standard_normal(n)
        y_perturbed = y.copy()
        y_perturbed[n1:] += rng.standard_normal(n2)
        lam = 0.05
        fit_a = solve_sketched_krr(K, y, S, lam)
        fit_b = solve_sketched_krr(K, y_perturbed, S, lam)
        np.testing.assert_array_equal(fit_a.fitted[n1:], np.zeros(n2))
        assert np.abs(fit_a.fitted - fit_b.fitted).max() <= 1e-12
