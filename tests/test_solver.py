import types
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

from helpers import (
    count_calls,
    rel_dev,
    ridge_fitted_oracle,
    ros_dense_oracle,
    sketched_objective_excess,
    spy_routes,
)
from sketchkrr import (
    DesignPoints,
    DomainError,
    ExperimentConfig,
    FitResult,
    KernelMatrix,
    KernelSpec,
    NumericalError,
    RegressionSample,
    SketchOperator,
    apply_sketch,
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
from sketchkrr.bench import _arm_sketch, _data_seed, _shared_inputs, _trial_streams
from sketchkrr.solver import _gram_factor, _sketched_normal_system, _triangle_norm1


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

    @pytest.mark.parametrize("lam", [1e-6, 1e-3, 1.0, 1e6])
    def test_fitted_values_match_the_refined_oracle(self, lam):
        # sqrt(n) K w by one-triangle products agrees with K (K + 2 lam I)^{-1} y
        # to 1e-12 of max |fitted| from lam << mu_1 to lam >> mu_1 (worst seen
        # 1.8e-13, at lam = 1e-6).  The identity fitted = y - 2 lam sqrt(n) w
        # loses about 1e-8 at lam = 1e6.  On the gaussian kernel at lam = 1e-6
        # both gemv and dsymv lose about 1e-11 to cancellation in K w, with w
        # itself 5e-12 accurate: a limit of the product, not of the route.
        K, _, _, y = sobolev_instance(100, 3)
        fitted = solve_krr(K, y, lam).fitted
        want = ridge_fitted_oracle(K.matrix, y, lam)
        assert np.abs(fitted - want).max() <= 1e-12 * np.abs(want).max()

REFINED_LAMBDAS = [1e-9, 1e-7, 1e-5, 1e-3, 1.0, 1e6]


@pytest.fixture(scope="module")
def kernel_instances():
    """(K, y) per (kernel, n) on sorted uniform points, built once."""
    cache = {}

    def instance(spec, n):
        if (spec, n) not in cache:
            rng = np.random.default_rng(n)
            pts = DesignPoints(np.sort(rng.uniform(0.0, 1.0, n)))
            cache[spec, n] = build_kernel_matrix(spec, pts), pts.x - 0.3 + rng.standard_normal(n)
        return cache[spec, n]

    return instance


@pytest.fixture(scope="module")
def irregular_1200():
    """K and y of random-design-sweep's trial 0: gaussian kernel, irregular design, n = 1200."""
    config = ExperimentConfig(
        kernel=KernelSpec.gaussian(0.25), fstar="quad", design="irregular", sigma=0.125, n_grid=(1200,)
    )
    sample = generate_data(config, 1200, _data_seed(20240809, 1200, 0))
    return build_kernel_matrix(config.kernel, sample.pts), sample.y


def oracle_miss(K, y, lam, fit, want=None):
    """max |fit.fitted - oracle| as a share of n eps ||K + 2 lam I||_F ||w||_inf.

    Conjugate gradients stop at a residual of at most sqrt(n) eps ||K + 2
    lam I||_F ||w||_inf, which the backward-stable factor route is expected
    to meet too, and K (K + 2 lam I)^{-1} has 2-norm below one, so
    sqrt(n) K w should miss the oracle by at most n times that bound's
    eps ||K + 2 lam I||_F ||w||_inf, a share of at most one.
    """
    if want is None:
        want = ridge_fitted_oracle(K.matrix, y, lam)
    norm = np.linalg.norm(K.matrix + 2.0 * lam * np.eye(K.n))
    bound = K.n * np.finfo(np.float64).eps * norm * np.abs(fit.coefficients).max()
    return np.abs(fit.fitted - want).max() / bound


class TestRefinedExactSolve:
    """Without a head to run conjugate gradients on, the exact solve factors
    K + 2*lam*I by Cholesky in double precision, in packed storage."""

    @pytest.mark.parametrize("lam", REFINED_LAMBDAS)
    @pytest.mark.parametrize("n", [30, 31, 1200])
    @pytest.mark.parametrize(
        "spec", [KernelSpec.sobolev1(), KernelSpec.gaussian(0.25), KernelSpec.polynomial(3)],
        ids=lambda s: s.kind,
    )
    def test_fitted_values_match_the_dense_oracle(self, kernel_instances, spec, n, lam):
        # the worst of these 54 cases used 0.019 of the bound
        K, y = kernel_instances(spec, n)
        assert oracle_miss(K, y, lam, solve_krr(K, y, lam)) <= 1.0

    @pytest.mark.parametrize("lam", [1e-9, 1e-7])
    def test_irregular_design_matches_the_dense_oracle(self, irregular_1200, lam):
        # lam far below K's top eigenvalue on random-design-sweep's data;
        # the worst used 0.0036 of the bound
        K, y = irregular_1200
        assert oracle_miss(K, y, lam, solve_krr(K, y, lam)) <= 1.0

    @pytest.mark.parametrize("lam", [1e-9, 1e-7, 0.02])
    def test_outputs_are_double_and_K_is_untouched(self, irregular_1200, lam):
        K, y = irregular_1200
        before = K.matrix.copy()
        fit = solve_krr(K, y, lam)
        assert fit.coefficients.dtype == fit.fitted.dtype == np.float64
        np.testing.assert_array_equal(K.matrix, before)

    @pytest.mark.parametrize("lam", [1e-9, 1e-7, 0.02])
    def test_fresh_solve_allocates_at_most_a_packed_factor(self, irregular_1200, lam):
        # the factor's n (n + 1) / 2 doubles, plus n-vectors (about 7 of
        # them at n = 1200)
        import tracemalloc

        K, y = irregular_1200
        n = K.n
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            solve_krr(K, y, lam)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= n * (n + 1) // 2 * 8 + 16 * n * 8


HEADED_SPECS = [KernelSpec.sobolev1(), KernelSpec.gaussian(0.25), KernelSpec.polynomial(3)]


@pytest.fixture(scope="module")
def headed_instances():
    """(K, y, profile) per (kernel, design, n) at sigma = 0.125, whose
    profile settles on a Krylov head; built once."""
    cache = {}

    def instance(spec, design, n):
        if (spec, design, n) not in cache:
            config = ExperimentConfig(kernel=spec, design=design, sigma=0.125, n_grid=(n,))
            sample = generate_data(config, n, n)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # sobolev1 on the irregular design
                K = build_kernel_matrix(spec, sample.pts)
            cache[spec, design, n] = K, sample.y, complexity_profile(K, n, 0.125)
        return cache[spec, design, n]

    return instance


class TestConjugateGradientExactSolve:
    """Given the profile's eigenpairs and a smallest value among them at
    most 2*lam, the exact solve runs conjugate gradients preconditioned
    with them; otherwise it factors K + 2*lam*I."""

    @pytest.mark.parametrize("n", [256, 1200])
    @pytest.mark.parametrize("design", ["uniform_grid", "irregular"])
    @pytest.mark.parametrize("spec", HEADED_SPECS, ids=lambda s: s.kind)
    def test_fitted_values_match_the_dense_oracle(self, monkeypatch, headed_instances, spec, design, n):
        # 1-6 iterations at lam = 2 delta_n^2; the worst case used 0.21 of
        # the bound (gaussian, uniform grid, n = 1200)
        K, y, profile = headed_instances(spec, design, n)
        lam = 2.0 * profile.delta_n_sq
        routes = spy_routes(monkeypatch)
        fit = solve_krr(K, y, lam, _head=profile._head)
        assert routes == ["cg"]
        assert oracle_miss(K, y, lam, fit) <= 1.0

    def test_ritz_values_above_2lam_take_the_factor_route(self, monkeypatch, headed_instances):
        K, y, profile = headed_instances(KernelSpec.sobolev1(), "irregular", 256)
        theta, _ = profile._head
        lam = 1e-7  # sobolev1's head ends far above 2 lam
        assert theta[-1] > 2.0 * lam
        routes = spy_routes(monkeypatch)
        fit = solve_krr(K, y, lam, _head=profile._head)
        assert routes == ["factor"]
        np.testing.assert_array_equal(fit.fitted, solve_krr(K, y, lam).fitted)

    def test_past_the_iteration_cap_takes_the_factor_route(self, monkeypatch, headed_instances):
        import sketchkrr.solver as solver

        K, y, profile = headed_instances(KernelSpec.sobolev1(), "uniform_grid", 256)
        lam = 2.0 * profile.delta_n_sq
        monkeypatch.setattr(solver, "CG_MAX", 2)  # this case needs 6
        routes = spy_routes(monkeypatch)
        fit = solve_krr(K, y, lam, _head=profile._head)
        assert routes == ["cg past its cap", "factor"]
        np.testing.assert_array_equal(fit.fitted, solve_krr(K, y, lam).fitted)

    def test_zero_response_stops_before_the_first_product(self, monkeypatch, headed_instances):
        import sketchkrr.solver as solver

        K, _, profile = headed_instances(KernelSpec.gaussian(0.25), "irregular", 256)
        products = count_calls(monkeypatch, solver, "symv")
        fit = solve_krr(K, np.zeros(K.n), 2.0 * profile.delta_n_sq, _head=profile._head)
        assert products == [] and not fit.coefficients.any() and not fit.fitted.any()

    def test_allocates_only_vectors(self, headed_instances):
        # no n x n copy: the factor route's n (n + 1) / 2 doubles go
        import tracemalloc

        K, y, profile = headed_instances(KernelSpec.gaussian(0.25), "irregular", 1200)
        lam = 2.0 * profile.delta_n_sq
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            solve_krr(K, y, lam, _head=profile._head)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 16 * K.n * 8


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

    @pytest.mark.parametrize("kind, m", [("gaussian", 9), ("ros", 9), ("ros", 30), ("subsample", 9)])
    def test_normal_matrix_matches_dense_products(self, kind, m):
        # A = S K (K + 2 lam I) S^T against the dense two-term form; ros at
        # m = 30 takes the two-factor Hadamard transform
        n, lam = 40, 0.07
        K, _, _, _ = sobolev_instance(n, 13)
        S = draw_sketch(kind, m, n, 2)
        D = materialize(S)
        SK, G, c_diag = _sketched_normal_system(K, S, lam)
        want_C = D @ K.matrix @ D.T
        want = D @ K.matrix @ K.matrix @ D.T + 2.0 * lam * want_C
        C = np.tril(G, -1) + np.diag(c_diag)
        assert rel_dev(SK, D @ K.matrix) <= 1e-14
        # A in G's upper triangle, C in its strict lower one and c_diag
        assert np.abs(np.triu(G) - np.triu(want)).max() <= 1e-14 * np.abs(want).max()
        assert np.abs(C - np.tril(want_C)).max() <= 1e-14 * np.abs(want_C).max()

    @pytest.mark.parametrize("kind, m", [("gaussian", 9), ("ros", 9), ("ros", 30), ("subsample", 9)])
    def test_normal_system_keeps_the_applied_c(self, kind, m):
        # dsyrk writes A over one triangle only: the other one and the kept
        # diagonal are the bits of S (S K)^T applied afresh
        n = 40
        K, _, _, _ = sobolev_instance(n, 14)
        S = draw_sketch(kind, m, n, 3)
        _, G, c_diag = _sketched_normal_system(K, S, 0.07)
        C = apply_sketch(S, apply_sketch(S, K.matrix).T)
        np.testing.assert_array_equal(np.tril(G, -1), np.tril(C, -1))
        np.testing.assert_array_equal(c_diag, np.diag(C))

    @pytest.mark.parametrize("m", [1, 2, 11, 31, 32, 33, 100, 924])
    def test_triangle_norm_is_the_dense_one_norm(self, m):
        # rows blocked by _ROW_BLOCK = 32: one block, a full one, one more row
        G = np.random.default_rng(m).standard_normal((m, m))
        A = np.triu(G) + np.triu(G, 1).T
        assert _triangle_norm1(G) == pytest.approx(np.abs(A).sum(axis=0).max(), rel=1e-14)

    @pytest.mark.parametrize("kind, m", [("gaussian", 8), ("ros", 8), ("ros", 40), ("subsample", 8)])
    def test_fit_applies_its_sketch_through_apply_sketch(self, monkeypatch, kind, m):
        # S K, then S (S K)^T, the S K S^T of A, for every kind; the
        # benchmark's tracer times sketch.apply at this name
        shapes = []

        def spy(S, M):
            shapes.append(np.shape(M))
            return apply_sketch(S, M)

        n = 64
        K, _, _, y = sobolev_instance(n, 21)
        monkeypatch.setattr("sketchkrr.solver.apply_sketch", spy)
        fit = solve_sketched_krr(K, y, draw_sketch(kind, m, n, 5), 0.05)
        assert not fit.rank_deficient
        assert shapes == [(n, n), (n, m)]

    @pytest.mark.parametrize("m", [462, 924])
    def test_ros_transform_fit_matches_dense_row_normal_equations(self, m):
        # the paper's lambda = 2 delta_n^2 for sigma = 1, as in the sweeps
        n = 1024
        K, _, _, y = sobolev_instance(n, 23)
        lam = 2.0 * complexity_profile(K, n, 1.0).delta_n_sq
        S = draw_sketch("ros", m, n, 31 + m)
        fit = solve_sketched_krr(K, y, S, lam)
        D = ros_dense_oracle(S)
        SK = D @ K.matrix
        A = SK @ (SK + 2.0 * lam * D).T
        alpha = sla.solve(A, SK @ y / np.sqrt(n), assume_a="pos")
        want = np.sqrt(n) * (SK.T @ alpha)
        assert not fit.rank_deficient
        assert np.abs(fit.fitted - want).max() <= 1e-12 * np.abs(want).max()

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


ORACLE = Path(__file__).resolve().parent.parent / "perfbench" / "oracle.py"


def benchmark_oracle() -> types.ModuleType:
    """The benchmark's dense oracle, run from its source text (nothing is
    imported from or written to the benchmark's directory)."""
    module = types.ModuleType("benchmark_oracle")
    exec(compile(ORACLE.read_text(), str(ORACLE), "exec"), module.__dict__)
    return module


@pytest.fixture(scope="module")
def irregular_fallback_fits():
    """Sub-sampling fits of the irregular design whose A fails the rcond
    test: trials 0-39 at n = 64 and 128 of the irregular-design sweep with
    base seed 606."""
    config = ExperimentConfig(
        kernel=KernelSpec.gaussian(0.25), fstar="quad", design="irregular", sigma=0.125,
        n_grid=(64, 128), sketch_kinds=("subsample",), m_rule="logfour", base_seed=606,
    )
    fits = []
    for n in config.n_grid:
        for trial in range(40):
            shared = _shared_inputs(config, n, trial, None)
            seed = derive_seed(config.base_seed, n, "subsample", trial)
            S = _arm_sketch(config, shared.profile, n, "subsample", seed)
            fit = solve_sketched_krr(shared.K, shared.sample.y, S, shared.lam)
            if fit.rank_deficient:
                fits.append((shared.K, shared.sample.y, S, shared.lam, fit))
    assert len(fits) >= 20
    return fits


class TestSingularSketchedFits:
    def test_fallback_is_near_the_least_squares_optimum(self, irregular_fallback_fits):
        # the worst excess is 0.037 on these fits (0.40-0.45 for the
        # minimum-norm pseudo-inverse of A), and 0.054-0.059 at n = 64 and
        # 128 on 100 trials of the config's own seed
        for K, y, S, lam, fit in irregular_fallback_fits:
            Sd = np.zeros((S.m, S.n))
            Sd[np.arange(S.m), S.indices] = S.scale
            assert sketched_objective_excess(K.matrix, y, Sd, lam, fit.coefficients) <= 0.1

    def test_fallback_passes_the_benchmark_correctness_gate(self, irregular_fallback_fits):
        # the check the benchmark applies to every captured sketched fit:
        # backward error in the normal equations within BACKWARD_TOL, plus
        # its allowance for a flagged fit
        captures = [("solver.sketched", (K, y, S, lam), {}, fit)
                    for K, y, S, lam, fit in irregular_fallback_fits]
        for name, deviation, tolerance in benchmark_oracle().check_captures(captures):
            assert deviation <= tolerance, name

    def test_fallback_applies_its_sketch_twice(self, monkeypatch, irregular_fallback_fits):
        # S K and S (S K)^T, as on the definite path: the fallback factors the
        # C = S K S^T that the normal system formed, restored from the
        # triangle A did not overwrite, to the bits of a freshly applied C
        shapes, factors = [], []

        def spy(S, M):
            shapes.append(np.shape(M))
            return apply_sketch(S, M)

        def recording(C, SK):
            factors.append(_gram_factor(C, SK))
            return factors[-1]

        monkeypatch.setattr("sketchkrr.solver.apply_sketch", spy)
        monkeypatch.setattr("sketchkrr.solver._gram_factor", recording)
        for K, y, S, lam, fit in irregular_fallback_fits:
            shapes.clear()
            factors.clear()
            again = solve_sketched_krr(K, y, S, lam)
            assert again.rank_deficient
            assert shapes == [(S.n, S.n), (S.n, S.m)]
            np.testing.assert_array_equal(again.coefficients, fit.coefficients)
            SK = apply_sketch(S, K.matrix)
            (Zt, lift, dropped), = factors
            fresh_Zt, fresh_lift, fresh_dropped = _gram_factor(apply_sketch(S, SK.T), SK)
            np.testing.assert_array_equal(Zt, fresh_Zt)
            b = np.arange(1.0, len(Zt) + 1)
            np.testing.assert_array_equal(lift(b), fresh_lift(b))
            assert dropped == fresh_dropped


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

    @pytest.mark.parametrize("singular", [False, True])
    def test_one_factorization_for_both_responses(self, monkeypatch, singular):
        # the definite path factors A once; the fallback factors C once (and
        # the ridge system once).  Sketch rows 0 and 1 pick a repeated design
        # point, so S K S^T is singular and the fit takes the fallback.
        calls = []
        for owner, name in ((sla, "cho_factor"), (sla.lapack, "dpstrf")):
            def spy(*args, _original=getattr(owner, name), _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)
            monkeypatch.setattr(owner, name, spy)
        n, lam = 12, 0.05
        x = np.linspace(0.1, 0.9, n)
        x[1] = x[0]
        K = build_kernel_matrix(KernelSpec.sobolev1(), DesignPoints(x))
        rng = np.random.default_rng(26)
        z = x - 0.3
        y = z + rng.standard_normal(n)
        rows = np.array([0, 1, 5]) if singular else np.arange(3, 6)
        S = SketchOperator("subsample", 3, n, 0, indices=rows)
        approx, est, total = error_decomposition(K, z, y, S, lam)
        assert calls == (["cho_factor", "dpstrf", "cho_factor"] if singular else ["cho_factor"])
        fit_hat, fit_dag = solve_sketched_krr(K, y, S, lam), solve_sketched_krr(K, z, S, lam)
        assert fit_hat.rank_deficient == singular
        assert abs(approx - empirical_error(fit_dag.fitted, z)) <= 1e-12
        assert abs(est - empirical_error(fit_dag.fitted, fit_hat.fitted)) <= 1e-12
        assert abs(total - empirical_error(fit_hat.fitted, z)) <= 1e-12


class TestObjectiveInputs:
    # a NaN, infinite or non-positive lambda, or a non-finite alpha, has no
    # objective value: each is rejected, and alpha under its own name
    def objectives(self):
        K, _, z, y = sobolev_instance(10, 25)
        S = draw_sketch("gaussian", 3, 10, 9)
        return {
            "exact": lambda lam, a: krr_objective(K, y, lam, S.matrix.T @ a),
            "sketched": lambda lam, a: sketched_krr_objective(K, y, S, lam, a),
            "zero_noise": lambda lam, a: zero_noise_objective(K, z, S, lam, a),
        }

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -0.1, 0.0])
    def test_lambda_must_be_finite_and_positive(self, lam):
        for objective in self.objectives().values():
            with pytest.raises(DomainError, match="lambda_n must be finite and > 0"):
                objective(lam, np.ones(3))

    @pytest.mark.parametrize("alpha,message", [
        ([np.nan, 0.0, 0.0], "alpha must be finite"),
        ([np.inf, 0.0, 0.0], "alpha must be finite"),
        (np.ones(4), "alpha must be a length-3 vector"),
    ])
    def test_alpha_is_checked_under_its_own_name(self, alpha, message):
        objectives = self.objectives()
        for name in ("sketched", "zero_noise"):
            with pytest.raises(DomainError, match=message):
                objectives[name](0.1, np.asarray(alpha))

    def test_sketch_of_the_wrong_size_is_named(self):
        # the message of the sketched fit, not numpy's matmul mismatch or a
        # complaint about omega or the operand
        K, _, z, y = sobolev_instance(64, 26)
        S = draw_sketch("gaussian", 3, 32, 9)
        calls = (
            lambda: sketched_krr_objective(K, y, S, 0.1, np.ones(3)),
            lambda: zero_noise_objective(K, z, S, 0.1, np.ones(3)),
            lambda: solve_nystrom_dual(K, y, S, 0.1),
            lambda: solve_sketched_krr(K, y, S, 0.1),
        )
        for call in calls:
            with pytest.raises(DomainError, match="sketch ambient dimension 32 != kernel size 64"):
                call()

    @pytest.mark.parametrize("S", [[[1.0]], np.ones((3, 64))], ids=["list", "ndarray"])
    def test_a_non_sketch_is_named_by_type(self, S):
        K, _, z, y = sobolev_instance(64, 26)
        calls = (
            lambda: solve_sketched_krr(K, y, S, 0.1),
            lambda: error_decomposition(K, z, y, S, 0.1),
            lambda: solve_nystrom_dual(K, y, S, 0.1),
            lambda: sketched_krr_objective(K, y, S, 0.1, np.ones(3)),
            lambda: zero_noise_objective(K, z, S, 0.1, np.ones(3)),
        )
        for call in calls:
            with pytest.raises(DomainError, match=f"S must be a SketchOperator, got {type(S).__name__}"):
                call()


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("first", [True, False])
    def test_non_finite_values_rejected(self, bad, first):
        values = ([bad, 1.0], [0.0, 1.0])
        with pytest.raises(DomainError, match="finite"):
            empirical_error(*(values if first else values[::-1]))


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

    def dual_instances(self):
        # test_dual_recovers_primal_coefficients' 25 instances, then the
        # gaussian kernel on the irregular design at n = 1200, where lam =
        # 1e-7 makes the dual system's condition number about 4e6
        rng = np.random.default_rng(21)
        for trial in range(25):
            n = int(rng.integers(2, 65))
            K, _, _, y = sobolev_instance(n, 2000 + trial)
            yield K, y, float(rng.uniform(1e-3, 1.0))
        config = ExperimentConfig(kernel=KernelSpec.gaussian(0.25), fstar="quad", design="irregular")
        sample = generate_data(config, 1200, 7)
        K = build_kernel_matrix(config.kernel, sample.pts)
        for lam in (1e-7, 0.01):
            yield K, sample.y, lam

    def test_dual_solves_the_dense_dual_system(self):
        # solve_dual_krr and solve_krr's factor route share one packed
        # Cholesky factor of K + 2*lam*I, so criterion 3 compares that factor
        # with itself.  Here xi is checked against the dual system as stated,
        # [(n/(2*lam)) K + n I] xi = y, formed densely and solved by LU.  With
        # kappa = 1 + ||K||_inf / (2*lam), an upper bound on the system's
        # condition number, two backward-stable solves differ by at most a
        # few kappa eps: the worst gap was 1.7 kappa eps on the sobolev
        # instances and 0.12-0.14 kappa eps (1.1e-10 at lam = 1e-7) at n =
        # 1200, and the normwise backward error in the Frobenius norm at most
        # 0.33 eps (one OpenBLAS thread)
        eps = np.finfo(np.float64).eps
        for K, y, lam in self.dual_instances():
            n = K.n
            xi, _ = solve_dual_krr(K, y, lam)
            A = (n / (2.0 * lam)) * K.matrix + n * np.eye(n)
            ref = np.linalg.solve(A, y)
            kappa = 1.0 + np.abs(K.matrix).sum(axis=1).max() / (2.0 * lam)
            assert np.linalg.norm(xi - ref) <= 8.0 * kappa * eps * np.linalg.norm(ref)
            backward = np.linalg.norm(A @ xi - y) / (np.linalg.norm(A) * np.linalg.norm(xi) + np.linalg.norm(y))
            assert backward <= 2.0 * eps

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

    def test_dual_matrices_are_factored_packed(self, monkeypatch):
        # each dual system is solved as (X + 2 lam I) xi = (2 lam / n) y on
        # one packed factor, X = K itself or Z^T Z: no full factor, and no
        # scaled copy (n / (2 lam)) X + n I
        import sketchkrr.solver as solver

        original, seen = solver.rfp_factor_shifted, []

        def spy(matrix, shift):
            seen.append((matrix, shift))
            return original(matrix, shift)

        def no_full_factor(*args, **kwargs):
            raise AssertionError("a dual route called cho_factor")

        monkeypatch.setattr(solver, "rfp_factor_shifted", spy)
        monkeypatch.setattr(sla, "cho_factor", no_full_factor)
        K, _, _, y = sobolev_instance(300, 27)
        solve_dual_krr(K, y, 0.05)
        assert len(seen) == 1 and seen[0][0] is K.matrix and seen[0][1] == 0.1
        for kind in ("subsample", "gaussian"):
            seen.clear()
            solve_nystrom_dual(K, y, draw_sketch(kind, 40, 300, 1), 0.05)
            assert len(seen) == 1 and seen[0][0].shape == (300, 300) and seen[0][1] == 0.1

    @pytest.mark.parametrize("lam", [1e-7, 0.02])
    def test_dual_solve_allocates_at_most_a_packed_factor(self, irregular_1200, lam):
        # the factor's n (n + 1) / 2 doubles, plus n-vectors
        import tracemalloc

        K, y = irregular_1200
        n = K.n
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            solve_dual_krr(K, y, lam)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= n * (n + 1) // 2 * 8 + 16 * n * 8

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


def _indefinite_dual_solve():
    # a negative eigenvalue at rounding level, -1e-12 * mu_1, passes the PSD
    # gate (its shift is about 1e-10 * mu_1), but 2 * lambda = 2e-14 does not
    # lift it: the dual matrix has no Cholesky factor
    K = KernelMatrix(np.diag(np.r_[np.linspace(1.0, 0.1, 63), -1e-12]))
    solve_dual_krr(K, np.ones(64), 1e-14)


def _indefinite_build():
    # sobolev1 on [-1, 1] is indefinite (minimum eigenvalue about -0.48)
    with pytest.warns(UserWarning):
        build_kernel_matrix(KernelSpec.sobolev1(), DesignPoints(np.linspace(-1.0, 1.0, 64)))


FOUR_POINTS = DesignPoints(np.array([0.2, 0.4, 0.6, 0.8]))
FOUR_K = build_kernel_matrix(KernelSpec.sobolev1(), FOUR_POINTS)
TEXT = ["a"] * 4
FOUR_FIT = FitResult("exact", np.ones(4), None, 0.1, np.ones(4))


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: RegressionSample(FOUR_POINTS, np.ones(3)), DomainError, "y must have length n=4"),
        (
            lambda: RegressionSample(FOUR_POINTS, np.ones(4), fstar=np.ones(3)),
            DomainError, "fstar must have length n=4",
        ),
        (
            lambda: predict(
                FitResult("exact", np.ones(3), None, 0.1, np.ones(3)), KernelSpec.sobolev1(), FOUR_POINTS, 0.5
            ),
            DomainError, "fit is inconsistent with the training points",
        ),
        (_indefinite_dual_solve, NumericalError, "dual system could not be solved"),
        (_indefinite_build, NumericalError, "not PSD"),
        (lambda: solve_krr(FOUR_K, np.ones(4), "x"), DomainError, "lambda_n must be finite and > 0, got 'x'"),
        (lambda: solve_krr(FOUR_K, np.ones(4), None), DomainError, "lambda_n must be finite and > 0, got None"),
        (lambda: solve_krr(FOUR_K, TEXT, 0.1), DomainError, "y must be numeric"),
        (
            lambda: solve_sketched_krr(FOUR_K, TEXT, draw_sketch("gaussian", 2, 4, 1), 0.1),
            DomainError, "y must be numeric",
        ),
        (lambda: krr_objective(FOUR_K, np.ones(4), 0.1, TEXT), DomainError, "omega must be numeric"),
        (lambda: empirical_error(TEXT, np.ones(4)), DomainError, "fhat_vals must be numeric"),
        (lambda: RegressionSample(FOUR_POINTS, TEXT), DomainError, "y must be numeric"),
        (
            lambda: predict(
                FitResult("exact", np.ones(4), None, 0.1, np.ones(4)), KernelSpec.sobolev1(), FOUR_POINTS, "a"
            ),
            DomainError, "query must be numeric",
        ),
        (lambda: solve_krr(np.eye(3), np.ones(3), 1.0), DomainError, "K must be a KernelMatrix, got ndarray"),
        (
            lambda: solve_sketched_krr(np.eye(40), np.ones(40), draw_sketch("gaussian", 4, 40, 1), 0.1),
            DomainError, "K must be a KernelMatrix, got ndarray",
        ),
        (lambda: RegressionSample("x", np.ones(4)), DomainError, "pts must be a DesignPoints, got str"),
        (
            lambda: predict("x", KernelSpec.sobolev1(), FOUR_POINTS, 0.5),
            DomainError, "fit must be a FitResult, got str",
        ),
        (
            lambda: predict(FOUR_FIT, "x", FOUR_POINTS, 0.5), DomainError, "spec must be a KernelSpec, got str",
        ),
        (
            lambda: predict(FOUR_FIT, KernelSpec.sobolev1(), "x", 0.5),
            DomainError, "train must be a DesignPoints, got str",
        ),
    ],
    ids=[
        "short-y", "short-fstar", "fit-of-other-size", "indefinite-dual", "indefinite-build",
        "text-lambda", "none-lambda", "text-y", "text-sketched-y", "text-omega", "text-values",
        "text-sample-y", "text-query", "array-K", "array-sketched-K",
        "text-sample-points", "text-fit", "text-predict-spec", "text-train",
    ],
)
def test_bad_input_raises_a_named_error(call, error, match):
    with pytest.raises(error, match=match):
        call()
