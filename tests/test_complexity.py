import itertools
import warnings

import numpy as np
import pytest

import sketchkrr.complexity as complexity
import sketchkrr.kernels as kernels
from helpers import grid_critical_radius, rational_critical_radius_sq, sobolev_uniform_matrix
from sketchkrr._util import block_krylov
from sketchkrr import (
    DesignPoints,
    DomainError,
    ExperimentConfig,
    KernelMatrix,
    KernelSpec,
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

    def test_non_numeric_input_is_named(self):
        with pytest.raises(DomainError, match="delta must be >= 0, got 'x'"):
            kernel_complexity([1.0], 1, "x")
        with pytest.raises(DomainError, match="spectrum must be numeric"):
            statistical_dimension(["a", "b"], 0.5)

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

    @pytest.mark.parametrize("sigma", [0.0, -1.0, np.inf, np.nan, "x"])
    def test_bad_sigma(self, monkeypatch, sigma):
        # unchecked, an infinite sigma makes the radius NaN; checked first,
        # it costs no head estimate of K
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


class TestClosedForm:
    """delta_n^2 against bisection in exact rational arithmetic."""

    @staticmethod
    def spectra(seed, count=40):
        rng = np.random.default_rng(seed)
        for i in range(count):
            mu = 10.0 ** rng.uniform(-12.0, 0.0, rng.integers(1, 41))
            if i % 4 == 0:
                mu[: mu.size // 2] = 0.0  # repeated zero eigenvalues
            yield mu, int(rng.integers(1, 5000)), float(10.0 ** rng.uniform(-3.0, 1.0)), rng

    def test_matches_rational_oracle(self):
        for mu, n, sigma, _ in self.spectra(40):
            t = float(rational_critical_radius_sq(mu, n, sigma))
            assert abs(critical_radius(mu, n, sigma) ** 2 - t) <= 1e-14 * t

    def test_matches_rational_oracle_with_tail(self):
        # the tail of a Krylov head: mass below delta_n^2 beyond the values
        for mu, n, sigma, rng in self.spectra(41):
            tail = float(mu.sum() * 10.0 ** rng.uniform(-6.0, 1.0))
            t = float(rational_critical_radius_sq(mu, n, sigma, tail))
            assert abs(complexity._critical_radius(mu, tail, n, sigma) ** 2 - t) <= 1e-14 * t

    def test_unsorted_spectrum(self):
        for mu, n, sigma, rng in self.spectra(42, count=10):
            assert critical_radius(rng.permutation(mu), n, sigma) == critical_radius(
                np.sort(mu)[::-1], n, sigma
            )

    @pytest.mark.parametrize("sigma", [1e120, 1e200])
    def test_huge_sigma_takes_the_no_eigenvalue_line(self, sigma):
        # k = 0 is the least root, delta_n^2 = sigma sqrt(sum(mu) / n); the
        # roots of k >= 1 exceed sigma^2 k / n (at 1e200 they overflow)
        d = critical_radius([1.0, 0.5], 4, sigma)
        assert np.isfinite(d)
        np.testing.assert_allclose(d * d, sigma * np.sqrt(1.5 / 4), rtol=1e-15)

    def test_all_zero_spectrum_and_tail(self):
        assert complexity._critical_radius(np.zeros(5), 0.0, 5, 1.0) == 0.0
        assert critical_radius([0.0], 1, 1e120) == 0.0


class TestStatisticalDimension:
    def test_count_above_threshold(self):
        assert statistical_dimension([1.0, 0.25, 0.01], 0.2) == 2  # delta^2 = 0.04

    def test_all_above_gives_n(self):
        assert statistical_dimension([0.5, 0.5, 0.5], 0.1) == 3

    def test_all_below_gives_zero(self):
        assert statistical_dimension([0.01, 0.005], 0.9) == 0

    @pytest.mark.parametrize("delta_n", [np.nan, -2.0, np.inf, -np.inf, "x", None])
    def test_bad_radius_is_rejected(self, delta_n):
        with pytest.raises(DomainError, match="delta_n must be finite and >= 0"):
            statistical_dimension([1.0], delta_n)

    def test_zero_radius_counts_the_positive_eigenvalues(self):
        assert statistical_dimension([1.0, 0.0], 0.0) == 1

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

    @pytest.mark.parametrize("j_max", [2.5, 3.0, 0, "3"])
    def test_j_max_must_be_a_positive_integer(self, j_max):
        with pytest.raises(DomainError, match=f"j_max must be an integer >= 1, got {j_max!r}"):
            population_eigenvalues(KernelSpec.sobolev1(), j_max)

    def test_numpy_integer_j_max_is_taken(self):
        np.testing.assert_array_equal(
            population_eigenvalues(KernelSpec.sobolev1(), np.int64(5)),
            population_eigenvalues(KernelSpec.sobolev1(), 5),
        )


class TestRateExponent:
    def test_polynomial_slope_is_minus_one(self):
        slope = rate_exponent_check(KernelSpec.polynomial(2), [256, 512, 1024, 2048], 1.0)
        assert -1.05 <= slope <= -0.95

    def test_needs_increasing_grid(self):
        with pytest.raises(DomainError):
            rate_exponent_check(KernelSpec.sobolev1(), [64, 32, 128, 256], 1.0)
        with pytest.raises(DomainError):
            rate_exponent_check(KernelSpec.sobolev1(), [64, 128, 256], 1.0)

    def test_grid_entries_must_be_integers(self):
        with pytest.raises(DomainError, match="n must be an integer >= 1, got 10.9"):
            rate_exponent_check(KernelSpec.sobolev1(), [10.9, 20.2, 40.5, 80.1], 1.0)
        with pytest.raises(DomainError, match="n must be an integer >= 1, got 0"):
            rate_exponent_check(KernelSpec.sobolev1(), [0, 20, 40, 80], 1.0)


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
        for theta, residuals, vectors in original(apply, n, block):
            calls.append(theta.size)
            yield theta, residuals, vectors

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
        for j, (values, residuals, _) in enumerate(itertools.islice(heads, 6), start=1):
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

    @pytest.mark.parametrize(
        "spec", [KernelSpec.polynomial(2), KernelSpec.gaussian(0.25), KernelSpec.sobolev1()]
    )
    def test_ritz_vectors_are_orthonormal_and_within_their_residuals(self, spec):
        rng = np.random.default_rng(11)
        K = build_kernel_matrix(spec, DesignPoints(np.sort(rng.uniform(0, 1, 300))))
        mu, U = np.linalg.eigh(K.matrix)
        mu, U = mu[::-1], U[:, ::-1]
        slack = 1e-13 * mu[0]
        heads = block_krylov(lambda X: K.matrix @ X, 300, complexity.HEAD_START)
        for j, (values, residuals, vectors) in enumerate(itertools.islice(heads, 6), start=1):
            V = vectors()
            assert V.shape == (300, j * complexity.HEAD_START)
            np.testing.assert_allclose(V.T @ V, np.eye(V.shape[1]), rtol=0.0, atol=1e-13)
            # the yielded residuals are the Ritz pairs' own
            own = np.linalg.norm(K.matrix @ V - V * values, axis=0)
            assert (np.abs(own - residuals) <= slack).all()
            # so each vector lies within residual / gap of the eigenvector of
            # the nearest eigenvalue (Davis and Kahan's sin theta theorem)
            nearest = np.abs(values[:, None] - mu[None, :]).argmin(axis=1)
            gaps = np.abs(values[:, None] - mu[None, :])
            gaps[np.arange(values.size), nearest] = np.inf
            u = U[:, nearest]
            sines = np.linalg.norm(V - u * (u * V).sum(axis=0), axis=0)
            with np.errstate(divide="ignore"):
                assert (sines <= (residuals + slack) / gaps.min(axis=1) + 1e-12).all()

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

            for theta, residuals, vectors in original(counted, n, block):
                sizes.append(theta.size)
                yield theta, residuals, vectors

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

    @pytest.mark.parametrize("n, heads, d_n", [(128, 3, 43), (256, 4, 52)])
    def test_head_gives_way_once_d_n_outgrows_its_blocks(self, monkeypatch, head_calls, n, heads, d_n):
        # at sigma = 0.01 the head's estimate of d_n soon puts HEAD_SPAN
        # (d_n + 1) past the largest head its blocks allow (6 blocks at
        # n = 128, 8 at n = 256): it stops there, and the profile takes the
        # dense spectrum, decomposing K once
        decompositions = []
        original = kernels._eigh_descending

        def counting(matrix):
            decompositions.append(matrix.shape)
            return original(matrix)

        monkeypatch.setattr(kernels, "_eigh_descending", counting)
        K = KernelMatrix(sobolev_uniform_matrix(n))
        got = complexity_profile(K, n, 0.01)
        assert head_calls == [complexity.HEAD_START * j for j in range(1, heads + 1)]
        assert decompositions == [(n, n)]
        want = dense_profile(K, n, 0.01)
        assert got.d_n == want.d_n == d_n
        assert abs(got.delta_n - want.delta_n) <= 1e-9 * want.delta_n

    def test_settled_profile_keeps_its_head(self, monkeypatch):
        # the head is the last one the profile read: its Ritz values clipped
        # at zero and its Ritz vectors, bit for bit
        n = 512
        last = []
        original = complexity.block_krylov

        def recording(apply, n, block):
            for theta, residuals, vectors in original(apply, n, block):
                last[:] = [theta, vectors]
                yield theta, residuals, vectors

        monkeypatch.setattr(complexity, "block_krylov", recording)
        prof = complexity_profile(KernelMatrix(sobolev_uniform_matrix(n)), n, 0.125)
        theta, V = prof._head
        np.testing.assert_array_equal(theta, np.clip(last[0], 0.0, None))
        np.testing.assert_array_equal(V, last[1]())
        assert theta[-1] <= prof.delta_n_sq / 2.0  # the settling rule: at most lam / 4
        assert "_head" not in repr(prof)

    @pytest.mark.parametrize(
        "n, sigma", [(24, 1.0), (128, 0.01)], ids=["below-one-head", "dense-fallback"]
    )
    def test_dense_fallback_keeps_the_pairs_of_K_eig(self, n, sigma):
        # without a settled head the profile holds K.eig()'s own arrays; a
        # profile of a spectrum holds none
        K = KernelMatrix(sobolev_uniform_matrix(n))
        theta, V = complexity_profile(K, n, sigma)._head
        U, mu = K.eig()
        assert theta is mu and V is U
        assert complexity_profile(K.eigenvalues, n, sigma)._head is None

    def test_dense_fallback_for_small_n(self, head_calls):
        n = 24  # 4 * HEAD_START > n
        K = KernelMatrix(sobolev_uniform_matrix(n))
        assert complexity_profile(K, n, 1.0) == complexity_profile(K.eigenvalues, n, 1.0)
        assert not head_calls

    def test_size_mismatch_rejected(self):
        K = KernelMatrix(sobolev_uniform_matrix(64))
        with pytest.raises(DomainError, match="n=10.*64"):
            complexity_profile(K, 10, 1.0)

    def test_zero_matrix(self):
        prof = complexity_profile(KernelMatrix(np.zeros((64, 64))), 64, 1.0)
        assert prof.delta_n == 0.0 and prof.d_n == 0

    def test_fresh_builds_are_bit_identical(self):
        pts = DesignPoints(np.random.default_rng(1).uniform(0, 1, 700))
        first = build_kernel_matrix(KernelSpec.gaussian(0.25), pts)
        second = build_kernel_matrix(KernelSpec.gaussian(0.25), pts)
        assert complexity_profile(first, 700, 0.5) == complexity_profile(second, 700, 0.5)
        heads = [block_krylov(lambda X, K=K: K.matrix @ X, 700, 1) for K in (first, second)]
        for (a, ra, _), (b, rb, _) in itertools.islice(zip(*heads), 4):
            np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(ra, rb)

    def test_profile_does_not_depend_on_call_order(self):
        n = 512
        first = KernelMatrix(sobolev_uniform_matrix(n))
        second = KernelMatrix(sobolev_uniform_matrix(n))
        complexity_profile(first, n, 0.125)  # grows the head on the same K first
        assert complexity_profile(first, n, 1.0) == complexity_profile(second, n, 1.0)


class TestOneSidedHead:
    """Every head the profile reads bounds the dense profile from one side.

    By Cauchy's interlacing theorem each Ritz value is at most the
    eigenvalue of the same rank, theta_j <= mu_j, so min(delta^2, theta_j)
    + (mu_j - theta_j) >= min(delta^2, mu_j) and the head's tail mass tr K
    - sum theta is at least sum_{j>k} min(delta^2, mu_j): the head's R is
    never below the true R, so its delta_n is never below the true one
    and its d_n never above.  The dense oracle is itself exact only to
    rounding: eigvalsh's eigenvalues are off by up to about tau = n eps
    mu_1, which moves a rank-4 spectrum's delta_n by up to 1.5e-7 relative
    at sigma = 0.002 through the noise it leaves in place of zeros.  So
    theta_j may exceed mu_j by tau (worst seen 0.09 tau), and delta_n is
    compared with that of the spectrum mu - tau.  Each head read counts,
    not only the last: at sigma = 0.002 every sobolev1 case gives way to
    the dense spectrum after 2-15 heads, while the gaussian and
    polynomial(3) kernels settle (d_n <= 11)."""

    @pytest.mark.parametrize(
        "spec", [KernelSpec.sobolev1(), KernelSpec.gaussian(0.25), KernelSpec.polynomial(3)],
        ids=["sobolev1", "gaussian", "polynomial3"],
    )
    @pytest.mark.parametrize("design", ["uniform_grid", "irregular", "iid_uniform"])
    @pytest.mark.parametrize("n", [64, 257, 1200])
    def test_every_head_bounds_the_dense_profile(self, monkeypatch, spec, design, n):
        config = ExperimentConfig(kernel=spec, design=design, n_grid=(n,))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # sobolev1 on the irregular design
            K = build_kernel_matrix(spec, generate_data(config, n, n).pts)
        mu = np.clip(np.linalg.eigvalsh(K.matrix)[::-1], 0.0, None)
        tau = n * np.finfo(np.float64).eps * mu[0]
        trace = float(np.trace(K.matrix))
        heads, original = [], complexity.block_krylov

        def recording(apply, n, block):
            for theta, residuals, vectors in original(apply, n, block):
                heads.append(np.clip(theta, 0.0, None))
                yield theta, residuals, vectors

        monkeypatch.setattr(complexity, "block_krylov", recording)
        for sigma, gives_way in ((0.125, False), (0.002, spec.kind == "sobolev1")):
            heads.clear()
            K._eig = None
            got = complexity_profile(K, n, sigma)
            assert heads and (K._eig is not None) == gives_way
            floor = critical_radius(np.clip(mu - tau, 0.0, None), n, sigma)
            d_n = statistical_dimension(mu, critical_radius(mu, n, sigma))
            for theta in heads:
                assert (theta <= mu[: theta.size] + tau).all()
                delta = complexity._critical_radius(theta, max(trace - theta.sum(), 0.0), n, sigma)
                assert delta >= floor
                assert (theta > delta * delta).sum() <= d_n
            assert got.delta_n >= floor and got.d_n <= d_n


@pytest.mark.parametrize("spectrum", [[], [[0.5, 0.25]]], ids=["empty", "two-axes"])
def test_spectrum_of_wrong_shape_rejected(spectrum):
    with pytest.raises(DomainError, match="spectrum must be a nonempty 1-D sequence"):
        critical_radius(spectrum, 4, 1.0)
