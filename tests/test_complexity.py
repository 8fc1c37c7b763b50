import itertools
import warnings

import numpy as np
import pytest

import sketchkrr.complexity as complexity
from helpers import grid_critical_radius, sobolev_uniform_matrix
from sketchkrr._util import block_krylov
from sketchkrr import (
    DesignPoints,
    DomainError,
    ExperimentConfig,
    KernelMatrix,
    KernelSpec,
    NumericalError,
    build_kernel_matrix,
    complexity_profile,
    critical_radius,
    generate_data,
    kernel_complexity,
    population_eigenvalues,
    rate_exponent_check,
    statistical_dimension,
)


def random_spectrum(rng, max_len=10):
    mu = np.sort(rng.uniform(0.0, 1.0, rng.integers(1, max_len + 1)))[::-1]
    return mu, int(rng.integers(1, 50))


class TestKernelComplexity:
    def test_truncated_sum(self):
        # min-sum 0.25 + 0.25 + 0.01 = 0.51
        np.testing.assert_allclose(
            kernel_complexity([1.0, 0.25, 0.01], 3, 0.5), np.sqrt(0.51 / 3), rtol=1e-15
        )

    def test_zero_level(self):
        assert kernel_complexity([0.7, 0.2], 2, 0.0) == 0.0

    def test_truncation_inactive_above_top_eigenvalue(self):
        mu = np.array([0.5, 0.3, 0.1])
        np.testing.assert_allclose(
            kernel_complexity(mu, 3, 0.8), np.sqrt(mu.sum() / 3), rtol=1e-15
        )

    def test_negative_delta_rejected(self):
        with pytest.raises(DomainError):
            kernel_complexity([1.0], 1, -0.1)
        with pytest.raises(DomainError):
            kernel_complexity([-1.0], 1, 0.1)

    @pytest.mark.parametrize("n", [0, 2.5, np.inf, np.nan])
    def test_n_must_be_an_integer_at_least_one(self, n):
        with pytest.raises(DomainError, match="n must be an integer >= 1"):
            kernel_complexity([1.0], n, 1.0)

    def test_numpy_integer_n_accepted(self):
        assert kernel_complexity([1.0], np.int64(4), 1.0) == kernel_complexity([1.0], 4, 1.0)

    def test_monotone_in_delta(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            mu, n = random_spectrum(rng)
            deltas = np.linspace(1e-4, 1.5, 60)
            vals = np.array([kernel_complexity(mu, n, d) for d in deltas])
            assert (np.diff(vals) >= -1e-15).all()
            ratios = vals / deltas
            assert (np.diff(ratios) <= 1e-12).all()


class TestCriticalRadius:
    @pytest.mark.parametrize("n", [10, 100, 1000])
    def test_rank_one_closed_form(self, n):
        # R(delta)/delta = 1/sqrt(n) for delta <= 1, so delta_n = n^(-1/2)
        mu = np.zeros(n)
        mu[0] = 1.0
        assert abs(critical_radius(mu, n, 1.0) - n**-0.5) <= 1e-6

    def test_all_zero_spectrum(self):
        assert critical_radius(np.zeros(8), 8, 1.0) == 0.0

    def test_two_eigenvalue_grid_oracle(self):
        mu = np.array([1.0, 0.04])
        assert abs(critical_radius(mu, 2, 1.0) - grid_critical_radius(mu, 2, 1.0)) <= 1e-5

    def test_defining_inequalities(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            mu, n = random_spectrum(rng)
            sigma = float(rng.uniform(0.2, 3.0))
            d = critical_radius(mu, n, sigma)
            assert d > 0
            assert kernel_complexity(mu, n, d) / d <= d / sigma + 1e-9
            shrunk = d * (1 - 1e-6)
            assert kernel_complexity(mu, n, shrunk) / shrunk > shrunk / sigma

    def test_doubling_sigma_never_decreases(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            mu, n = random_spectrum(rng)
            sigma = float(rng.uniform(0.1, 2.0))
            assert critical_radius(mu, n, 2 * sigma) >= critical_radius(mu, n, sigma)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, np.inf, np.nan])
    def test_bad_sigma(self, monkeypatch, sigma):
        # unchecked, an infinite sigma never brackets the root; checked
        # first, it costs no head estimate of K
        K = KernelMatrix(sobolev_uniform_matrix(64))
        heads, original = [], complexity.block_krylov

        def spy(*args):
            heads.append(args)
            return original(*args)

        monkeypatch.setattr(complexity, "block_krylov", spy)
        calls = (
            lambda: critical_radius([1.0], 1, sigma),
            lambda: complexity_profile(K, 64, sigma),
            lambda: rate_exponent_check(KernelSpec.sobolev1(), [64, 128, 256, 512], sigma),
        )
        for call in calls:
            with pytest.raises(DomainError, match="sigma must be finite and > 0"):
                call()
        assert heads == []

    @pytest.mark.parametrize("n", [0, 2.5, np.inf])
    def test_n_must_be_an_integer_at_least_one(self, n):
        # unchecked, an infinite n makes R vanish and the radius 0.0
        with pytest.raises(DomainError, match="n must be an integer >= 1"):
            critical_radius([1.0, 0.5], n, 1.0)


class TestStatisticalDimension:
    def test_count_above_threshold(self):
        assert statistical_dimension([1.0, 0.25, 0.01], 0.2) == 2  # delta^2 = 0.04

    def test_all_above_gives_n(self):
        assert statistical_dimension([0.5, 0.5, 0.5], 0.1) == 3

    def test_all_below_gives_zero(self):
        assert statistical_dimension([0.01, 0.005], 0.9) == 0

    def test_profile_consistency(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            mu, n = random_spectrum(rng)
            sigma = float(rng.uniform(0.2, 2.0))
            prof = complexity_profile(mu, n, sigma)
            assert prof.delta_n_sq == prof.delta_n**2
            assert 0 <= prof.d_n <= mu.size
            assert (mu[: prof.d_n] > prof.delta_n_sq).all()
            if prof.d_n < mu.size:
                assert mu[prof.d_n] <= prof.delta_n_sq


class TestPopulationEigenvalues:
    def test_closed_forms(self):
        np.testing.assert_allclose(
            population_eigenvalues(KernelSpec.sobolev1(), 1)[0], (2 / np.pi) ** 2, rtol=1e-15
        )
        np.testing.assert_allclose(
            population_eigenvalues(KernelSpec.gaussian(1.0), 1)[0], np.exp(-np.pi), rtol=1e-15
        )
        np.testing.assert_array_equal(
            population_eigenvalues(KernelSpec.polynomial(3), 10),
            [1, 1, 1, 1, 0, 0, 0, 0, 0, 0],
        )

    @pytest.mark.parametrize(
        "spec", [KernelSpec.polynomial(2), KernelSpec.gaussian(0.5), KernelSpec.sobolev1()]
    )
    def test_nonincreasing_nonnegative(self, spec):
        mu = population_eigenvalues(spec, 50)
        assert (mu >= 0).all()
        assert (np.diff(mu) <= 0).all()


class TestRateExponent:
    def test_polynomial_slope_is_minus_one(self):
        slope = rate_exponent_check(KernelSpec.polynomial(2), [256, 512, 1024, 2048], 1.0)
        assert -1.05 <= slope <= -0.95

    def test_needs_increasing_grid(self):
        with pytest.raises(DomainError):
            rate_exponent_check(KernelSpec.sobolev1(), [64, 32, 128, 256], 1.0)
        with pytest.raises(DomainError):
            rate_exponent_check(KernelSpec.sobolev1(), [64, 128, 256], 1.0)


class TestEmpiricalVsPopulation:
    def test_sobolev_uniform_design_within_factor_four(self):
        for n in (64, 128, 256, 512, 1024):
            emp_mu = KernelMatrix(sobolev_uniform_matrix(n)).eigenvalues
            pop_mu = population_eigenvalues(KernelSpec.sobolev1(), n)
            emp = critical_radius(emp_mu, n, 1.0) ** 2
            pop = critical_radius(pop_mu, n, 1.0) ** 2
            assert emp / pop <= 4.0 and pop / emp <= 4.0


def dense_profile(K, n, sigma):
    """The profile of K's full spectrum from numpy's dense eigvalsh."""
    mu = np.clip(np.linalg.eigvalsh(K.matrix)[::-1], 0.0, None)
    return complexity_profile(mu, n, sigma)


@pytest.fixture
def head_calls(monkeypatch):
    """Record the size k of every head the profile reads from the eigensolver."""
    calls = []
    original = complexity.block_krylov

    def counting(apply, n, block):
        for theta, residuals in original(apply, n, block):
            calls.append(theta.size)
            yield theta, residuals

    monkeypatch.setattr(complexity, "block_krylov", counting)
    return calls


class TestRitzHead:
    """The eigensolver with the profile's block size, against dense eigvalsh."""

    @pytest.mark.parametrize(
        "spec", [KernelSpec.polynomial(2), KernelSpec.gaussian(0.25), KernelSpec.sobolev1()]
    )
    def test_ritz_values_within_bounds_of_dense_eigenvalues(self, spec):
        rng = np.random.default_rng(11)
        K = build_kernel_matrix(spec, DesignPoints(np.sort(rng.uniform(0, 1, 300))))
        mu = np.clip(np.linalg.eigvalsh(K.matrix)[::-1], 0.0, None)
        slack = 1e-13 * mu[0]
        heads = block_krylov(lambda X: K.matrix @ X, 300, complexity.HEAD_START)
        for j, (values, residuals) in enumerate(itertools.islice(heads, 6), start=1):
            assert values.shape == residuals.shape == (j * complexity.HEAD_START,)
            assert (np.diff(values) <= 0).all()
            # some eigenvalue lies within each residual, up to round-off
            nearest = np.abs(values[:, None] - mu[None, :]).min(axis=1)
            assert (nearest <= residuals + slack).all()
            if j >= 4:
                # once the basis holds 4 blocks, the profile's estimates of
                # the leading 8 cover the distance to their own eigenvalue
                gaps = np.abs(np.diff(values))
                gap = np.minimum(np.r_[np.inf, gaps], np.r_[gaps, np.inf])
                bounds = np.fmin(residuals, residuals * residuals / gap)[:8]
                assert (np.abs(values[:8] - mu[:8]) <= bounds + slack).all()

    def test_multiplies_each_basis_column_once(self, monkeypatch):
        # sigma = 0.125 makes d_n = 12 here, so the profile grows the head
        # past its first block; the Krylov basis is extended, not restarted
        n = 512
        blocks, sizes = [], []
        original = complexity.block_krylov

        def recording(apply, n, block):
            def counted(X):
                blocks.append(X.copy())
                return apply(X)

            for theta, residuals in original(counted, n, block):
                sizes.append(theta.size)
                yield theta, residuals

        monkeypatch.setattr(complexity, "block_krylov", recording)
        prof = complexity_profile(KernelMatrix(sobolev_uniform_matrix(n)), n, 0.125)
        assert prof.d_n == 12 and len(sizes) >= 2
        Q = np.hstack(blocks)
        assert Q.shape == (n, sizes[-1])
        np.testing.assert_allclose(Q.T @ Q, np.eye(sizes[-1]), atol=1e-14)


class TestMatrixProfile:
    """complexity_profile(K) from the randomized head spectrum against the
    profile of the dense eigvalsh spectrum."""

    @pytest.mark.parametrize(
        "spec", [KernelSpec.sobolev1(), KernelSpec.gaussian(0.25), KernelSpec.polynomial(3)],
        ids=["sobolev1", "gaussian", "polynomial3"],
    )
    @pytest.mark.parametrize("design", ["uniform_grid", "irregular", "iid_uniform"])
    @pytest.mark.parametrize("n", [64, 257, 1024, 1200])
    def test_matches_dense_eigvalsh(self, spec, design, n, head_calls):
        config = ExperimentConfig(kernel=spec, design=design, n_grid=(n,))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # sobolev1 on the irregular design
            K = build_kernel_matrix(spec, generate_data(config, n, n).pts)
        # sigma = 0.125 makes d_n large enough for sobolev1 to grow the head
        for sigma in (1.0, 0.125):
            got = complexity_profile(K, n, sigma)
            want = dense_profile(K, n, sigma)
            assert got.d_n == want.d_n
            assert abs(got.delta_n - want.delta_n) <= 1e-9 * want.delta_n
            assert got.delta_n_sq == got.delta_n**2
        assert head_calls and K._eig is None

    def test_dense_fallback_for_small_n(self, head_calls):
        n = 24  # 4 * HEAD_START > n
        K = KernelMatrix(sobolev_uniform_matrix(n))
        assert complexity_profile(K, n, 1.0) == complexity_profile(K.eigenvalues, n, 1.0)
        assert not head_calls

    def test_one_psd_check_per_profile(self, monkeypatch, head_calls):
        checks = []
        original = complexity._check_psd

        def counting(matrix, top):
            checks.append(top)
            original(matrix, top)

        monkeypatch.setattr(complexity, "_check_psd", counting)
        K = KernelMatrix(sobolev_uniform_matrix(512))
        complexity_profile(K, 512, 0.125)
        assert len(head_calls) >= 2  # d_n = 12 here, so the head grew at least once
        assert len(checks) == 1

    def test_psd_check_only_for_direct_matrices(self, monkeypatch):
        checks = []
        monkeypatch.setattr(complexity, "_check_psd", lambda matrix, top: checks.append(top))
        n = 512
        built = build_kernel_matrix(KernelSpec.sobolev1(), DesignPoints(np.arange(1, n + 1) / n))
        from_build = complexity_profile(built, n, 0.125)
        assert checks == []
        assert complexity_profile(KernelMatrix(built.matrix), n, 0.125) == from_build
        assert len(checks) == 1

    def test_sobolev1_on_negative_points_rejected(self):
        n = 64  # large enough for the head path
        with pytest.warns(UserWarning):
            K = build_kernel_matrix(KernelSpec.sobolev1(), DesignPoints(np.linspace(-1.0, 1.0, n)))
        with pytest.raises(NumericalError, match="not PSD"):
            complexity_profile(K, n, 1.0)

    def test_size_mismatch_rejected(self):
        K = KernelMatrix(sobolev_uniform_matrix(64))
        with pytest.raises(DomainError, match="n=10.*64"):
            complexity_profile(K, 10, 1.0)

    @pytest.mark.parametrize(
        "matrix",
        [np.diag(np.r_[np.linspace(1.0, 0.1, 63), -0.5]), -np.eye(64)],
        ids=["one-negative", "negative-definite"],
    )
    def test_indefinite_matrix_rejected(self, matrix):
        with pytest.raises(NumericalError, match="not PSD"):
            complexity_profile(KernelMatrix(matrix), 64, 1.0)

    def test_zero_matrix(self):
        prof = complexity_profile(KernelMatrix(np.zeros((64, 64))), 64, 1.0)
        assert prof.delta_n == 0.0 and prof.d_n == 0

    def test_fresh_builds_are_bit_identical(self):
        pts = DesignPoints(np.random.default_rng(1).uniform(0, 1, 700))
        first = build_kernel_matrix(KernelSpec.gaussian(0.25), pts)
        second = build_kernel_matrix(KernelSpec.gaussian(0.25), pts)
        assert complexity_profile(first, 700, 0.5) == complexity_profile(second, 700, 0.5)
        heads = [block_krylov(lambda X, K=K: K.matrix @ X, 700, 1) for K in (first, second)]
        for (a, ra), (b, rb) in itertools.islice(zip(*heads), 4):
            np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(ra, rb)

    def test_profile_does_not_depend_on_call_order(self):
        n = 512
        first = KernelMatrix(sobolev_uniform_matrix(n))
        second = KernelMatrix(sobolev_uniform_matrix(n))
        complexity_profile(first, n, 0.125)  # grows the head on the same K first
        assert complexity_profile(first, n, 1.0) == complexity_profile(second, n, 1.0)
