import re
import warnings

import numpy as np
import pytest

import sketchkrr.kernels as kernels
from helpers import sobolev_uniform_matrix
from sketchkrr import (
    DesignPoints,
    DomainError,
    ExperimentConfig,
    KernelMatrix,
    KernelSpec,
    NumericalError,
    build_kernel_matrix,
    complexity_profile,
    generate_data,
    kernel_eval,
)
from sketchkrr.kernels import EIG_CLAMP_REL, _psd_by_construction

SPECS = [
    KernelSpec.polynomial(2),
    KernelSpec.gaussian(0.25),
    KernelSpec.sobolev1(),
]


class TestKernelSpec:
    def test_factories(self):
        assert KernelSpec.polynomial(3).degree == 3
        assert KernelSpec.gaussian(0.5).bandwidth == 0.5
        assert KernelSpec.sobolev1().kind == "sobolev1"

    @pytest.mark.parametrize(
        "bad",
        [
            lambda: KernelSpec.polynomial(0),
            lambda: KernelSpec.gaussian(0.0),
            lambda: KernelSpec.gaussian(-1.0),
            lambda: KernelSpec("fourier"),
            lambda: KernelSpec("sobolev1", degree=2),
        ],
    )
    def test_invalid_specs(self, bad):
        with pytest.raises(DomainError):
            bad()

    @pytest.mark.parametrize("h", [np.inf, 1e300, 1e-200])
    def test_bandwidth_needs_finite_positive_scale(self, h):
        # 2*h*h overflows to inf or underflows to 0
        with pytest.raises(DomainError, match=f"bandwidth .*got {re.escape(repr(h))}$"):
            KernelSpec.gaussian(h)


class TestKernelEval:
    def test_known_values(self):
        assert kernel_eval(KernelSpec.sobolev1(), 0.3, 0.7) == 0.3
        assert kernel_eval(KernelSpec.polynomial(2), 1.0, 1.0) == 4.0
        assert kernel_eval(KernelSpec.gaussian(0.25), 0.9, 0.9) == 1.0
        # exponent (0.5)^2 / (2 * 0.25^2) = 2
        np.testing.assert_allclose(
            kernel_eval(KernelSpec.gaussian(0.25), 0.0, 0.5), np.exp(-2.0), rtol=1e-15
        )

    @pytest.mark.parametrize("spec", SPECS)
    def test_symmetry(self, spec):
        # u is a vector, a 0-d array, or predict's q x 1 query column against
        # the n training points; either order gives the out-of-place formula
        rng = np.random.default_rng(0)
        v = rng.uniform(0, 1, 200)
        for shape in [(200,), (), (7, 1)]:
            u = rng.uniform(0, 1, shape)
            if spec.kind == "polynomial":
                oracle = (1.0 + u * v) ** spec.degree
            elif spec.kind == "gaussian":
                oracle = np.exp(-((u - v) * (u - v)) / (2.0 * spec.bandwidth**2))
            else:
                oracle = np.minimum(u, v)
            np.testing.assert_array_equal(kernel_eval(spec, u, v), oracle)
            np.testing.assert_array_equal(kernel_eval(spec, v, u), oracle)

    @pytest.mark.parametrize("spec", SPECS)
    def test_positive_semidefinite_quadratic_forms(self, spec):
        rng = np.random.default_rng(1)
        for _ in range(20):
            pts = rng.uniform(0, 1, rng.integers(1, 12))
            w = rng.standard_normal(pts.size)
            gram = kernel_eval(spec, pts[:, None], pts[None, :])
            quad = w @ gram @ w
            assert quad >= -1e-10 * max(1.0, np.abs(gram).max()) * (w @ w)

    def test_nonfinite_input_rejected(self):
        with pytest.raises(DomainError):
            kernel_eval(KernelSpec.sobolev1(), np.nan, 0.5)
        with pytest.raises(DomainError):
            kernel_eval(KernelSpec.gaussian(1.0), 0.1, np.inf)

    def test_tiny_bandwidth_reaches_the_limit_without_warning(self):
        # 2*h*h is a positive subnormal: every off-diagonal quotient
        # overflows to -inf and exp(-inf) = 0 is the kernel's limit
        n = 64
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            K = build_kernel_matrix(KernelSpec.gaussian(1e-160), DesignPoints(np.arange(n) / n))
        np.testing.assert_array_equal(K.matrix, np.eye(n) / n)


class TestDesignPoints:
    def test_basic(self):
        pts = DesignPoints(np.array([0.1, 0.9]))
        assert pts.n == 2
        assert not pts.x.flags.writeable

    def test_invalid(self):
        with pytest.raises(DomainError):
            DesignPoints(np.array([]))
        with pytest.raises(DomainError):
            DesignPoints(np.array([[0.1], [0.2]]))
        with pytest.raises(DomainError):
            DesignPoints(np.array([0.1, np.nan]))


class TestBuildKernelMatrix:
    def test_sobolev_two_points(self):
        # min(., .)/2 on {0.5, 1.0}, evaluated by hand
        K = build_kernel_matrix(KernelSpec.sobolev1(), DesignPoints(np.array([0.5, 1.0])))
        np.testing.assert_array_equal(K.matrix, [[0.25, 0.25], [0.25, 0.5]])

    def test_single_point_keeps_full_kernel_value(self):
        spec = KernelSpec.gaussian(0.3)
        K = build_kernel_matrix(spec, DesignPoints(np.array([0.4])))
        assert K.matrix[0, 0] == kernel_eval(spec, 0.4, 0.4)

    def test_linear_kernel_repeated_origin(self):
        K = build_kernel_matrix(KernelSpec.polynomial(1), DesignPoints(np.array([0.0, 0.0])))
        np.testing.assert_array_equal(K.matrix, [[0.5, 0.5], [0.5, 0.5]])

    @pytest.mark.parametrize("spec", SPECS)
    def test_exact_symmetry(self, spec):
        rng = np.random.default_rng(2)
        K = build_kernel_matrix(spec, DesignPoints(rng.uniform(0, 1, 37)))
        assert np.abs(K.matrix - K.matrix.T).max() == 0.0

    def test_sobolev_warns_outside_unit_interval(self):
        with pytest.warns(UserWarning):
            build_kernel_matrix(KernelSpec.sobolev1(), DesignPoints(np.array([0.5, 1.5])))

    def test_matrix_is_readonly(self):
        K = build_kernel_matrix(KernelSpec.sobolev1(), DesignPoints(np.array([0.5, 1.0])))
        with pytest.raises(ValueError):
            K.matrix[0, 0] = 9.0

    @pytest.mark.parametrize("spec", SPECS + [KernelSpec.polynomial(3)])
    @pytest.mark.parametrize("design", ["uniform_grid", "irregular", "iid_uniform"])
    def test_in_place_build_is_bit_identical(self, spec, design):
        # oracle: each family's formula evaluated out of place, one
        # temporary per step, then divided by n
        config = ExperimentConfig(kernel=spec, design=design)
        n = 257
        x = generate_data(config, n, 4).pts.x
        u, v = x[:, None], x[None, :]
        if spec.kind == "polynomial":
            oracle = (1.0 + u * v) ** spec.degree
        elif spec.kind == "gaussian":
            d = u - v
            oracle = np.exp(-(d * d) / (2.0 * spec.bandwidth**2))
        else:
            oracle = np.minimum(u, v)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # irregular points pass 1 for sobolev1
            K = build_kernel_matrix(spec, DesignPoints(x))
        np.testing.assert_array_equal(K.matrix, oracle / n)
        np.testing.assert_array_equal(K.matrix, kernel_eval(spec, u, v) / n)

    def test_polynomial_overflow_is_scanned(self):
        # (1 + 0 * 1e110)^3 is finite, (1 + 1e220)^3 overflows
        with np.errstate(over="ignore"), pytest.raises(DomainError, match="kernel matrix must be finite"):
            build_kernel_matrix(KernelSpec.polynomial(3), DesignPoints([0.0, 1e110]))

    def test_tiny_bandwidth_builds_a_finite_matrix(self):
        # h**2 underflows to 0 here while 2 h h, which KernelSpec checks, does
        # not; 0 / -0 on the diagonal would be NaN, and nothing scans for it
        K = build_kernel_matrix(KernelSpec.gaussian(1.3e-162), DesignPoints([0.0, 1.0, 2.0]))
        np.testing.assert_array_equal(K.matrix, np.eye(3) / 3)

    @pytest.mark.parametrize(
        "build, scans",
        [
            (lambda x: build_kernel_matrix(KernelSpec.gaussian(0.25), DesignPoints(x)), 0),
            (lambda x: build_kernel_matrix(KernelSpec.sobolev1(), DesignPoints(x)), 0),
            (lambda x: build_kernel_matrix(KernelSpec.polynomial(3), DesignPoints(x)), 1),
            (lambda x: KernelMatrix(np.minimum.outer(x, x) / x.size), 1),
        ],
        ids=["gaussian", "sobolev1", "polynomial", "hand-built"],
    )
    def test_only_what_may_overflow_is_scanned(self, build, scans, monkeypatch):
        calls, original = [], kernels.check_floats

        def spy(value, name, *, finite=False):
            calls.append((np.shape(value), finite))
            return original(value, name, finite=finite)

        monkeypatch.setattr(kernels, "check_floats", spy)
        n = 200
        build(np.arange(1, n + 1) / n)
        assert calls.count(((n, n), True)) == scans

    def test_copy_false_keeps_the_buffer(self):
        a = np.eye(3)
        K = KernelMatrix(a, copy=False)
        assert K.matrix is a and not a.flags.writeable
        b = np.eye(3)
        assert KernelMatrix(b).matrix is not b and b.flags.writeable


@pytest.fixture
def gate_factors(monkeypatch):
    """Record the size n of every factor the PSD gate of KernelMatrix makes."""
    sizes = []
    original = kernels.rfp_factor_shifted

    def counting(matrix, shift):
        sizes.append(matrix.shape[0])
        return original(matrix, shift)

    monkeypatch.setattr(kernels, "rfp_factor_shifted", counting)
    return sizes


class TestPsdByConstruction:
    """Dense oracles for the argument that lets build_kernel_matrix skip the
    symmetry comparison and the PSD gate."""

    @pytest.mark.parametrize(
        "spec",
        [
            KernelSpec.sobolev1(),
            KernelSpec.gaussian(0.25),
            KernelSpec.gaussian(0.05),
            KernelSpec.polynomial(3),
            KernelSpec.polynomial(8),
        ],
        ids=["sobolev1", "gaussian0.25", "gaussian0.05", "polynomial3", "polynomial8"],
    )
    @pytest.mark.parametrize("design", ["uniform_grid", "irregular", "iid_uniform"])
    @pytest.mark.parametrize("n", [64, 257, 1200])
    def test_marked_matrix_is_symmetric_and_psd(self, spec, design, n, gate_factors):
        config = ExperimentConfig(kernel=spec, design=design, n_grid=(n,))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # irregular points pass 1 for sobolev1
            K = build_kernel_matrix(spec, generate_data(config, n, n).pts)
        assert gate_factors == []  # marked: the gate did not run
        assert np.array_equal(K.matrix, K.matrix.T)
        mu = np.linalg.eigvalsh(K.matrix)
        # the argument allows -n * c * eps * mu_max (about -3e-12 for
        # polynomial(8) at n = 1200); dense eigvalsh sees far less
        assert mu[0] >= -1e-12 * mu[-1]

    def test_size_beyond_the_rounding_margin_is_not_marked(self):
        # n * (D + 3) * eps > EIG_CLAMP_REL from n = 40 941 on for D = 8;
        # the decision reads only the family and n, so a small stand-in
        # array of that length is enough to check it
        eps = np.finfo(np.float64).eps
        big = int(EIG_CLAMP_REL / (11 * eps)) + 1
        assert not _psd_by_construction(KernelSpec.polynomial(8), np.zeros(big))
        assert _psd_by_construction(KernelSpec.polynomial(8), np.zeros(big - 1))

    def test_direct_matrix_keeps_the_symmetry_check(self):
        with pytest.raises(DomainError, match="symmetric"):
            KernelMatrix(np.array([[1.0, 0.5], [0.25, 1.0]]))


class TestPsdGate:
    """A hand-built KernelMatrix is checked for PSD-ness once, when it is
    constructed; a built one is proven, and no consumer checks again."""

    def test_one_factor_per_hand_built_construction(self, gate_factors):
        n = 512
        K = KernelMatrix(sobolev_uniform_matrix(n))
        assert gate_factors == [n]
        # the profile runs no check, also where its head grows (d_n = 12)
        first = complexity_profile(K, n, 0.125)
        assert first.d_n == 12 and complexity_profile(K, n, 0.125) == first
        assert gate_factors == [n]
        KernelMatrix(K.matrix, copy=False)
        assert gate_factors == [n, n]

    @pytest.mark.parametrize(
        "spec", [KernelSpec.sobolev1(), KernelSpec.gaussian(0.25)], ids=["sobolev1", "gaussian"]
    )
    def test_built_matrix_skips_the_gate(self, spec, gate_factors):
        n = 512
        built = build_kernel_matrix(spec, DesignPoints(np.arange(1, n + 1) / n))
        from_build = complexity_profile(built, n, 0.125)
        assert gate_factors == []
        assert complexity_profile(KernelMatrix(built.matrix), n, 0.125) == from_build
        assert gate_factors == [n]

    @pytest.mark.parametrize(
        "matrix",
        [
            np.diag([1.0, -1.0]),
            np.diag([1.0, -0.5]),
            np.diag(np.r_[np.linspace(1.0, 0.1, 63), -0.5]),
            -np.eye(64),
        ],
        ids=["two-by-two", "two-by-two-half", "one-negative", "negative-definite"],
    )
    def test_indefinite_matrix_rejected(self, matrix):
        with pytest.raises(NumericalError, match="not PSD"):
            KernelMatrix(matrix)

    def test_sobolev1_on_negative_points_rejected(self, gate_factors):
        # min(u, v) on points of both signs is indefinite: not marked, so gated
        with pytest.warns(UserWarning), pytest.raises(NumericalError, match="not PSD"):
            build_kernel_matrix(KernelSpec.sobolev1(), DesignPoints(np.linspace(-1.0, 1.0, 64)))
        assert gate_factors == [64]


class TestEigendecompose:
    def test_scaled_identity(self):
        n = 5
        K = KernelMatrix(np.eye(n) / n)
        U, mu = K.eig()
        np.testing.assert_allclose(mu, np.full(n, 1.0 / n), rtol=1e-14)
        np.testing.assert_allclose(U.T @ U, np.eye(n), atol=1e-12)

    def test_two_by_two_closed_form(self):
        # characteristic polynomial of [[1/4, 1/4], [1/4, 1/2]]: roots (3 +- sqrt(5))/8
        K = KernelMatrix(np.array([[0.25, 0.25], [0.25, 0.5]]))
        _, mu = K.eig()
        np.testing.assert_allclose(mu, [(3 + np.sqrt(5)) / 8, (3 - np.sqrt(5)) / 8], rtol=1e-12)

    def test_zero_matrix(self):
        _, mu = KernelMatrix(np.zeros((4, 4))).eig()
        np.testing.assert_array_equal(mu, np.zeros(4))

    def test_roundoff_negatives_clamped(self):
        K = KernelMatrix(np.diag([1.0, -1e-12]))
        _, mu = K.eig()
        assert mu[1] == 0.0

    def test_decomposition_is_cached(self):
        K = build_kernel_matrix(KernelSpec.sobolev1(), DesignPoints(np.array([0.2, 0.8])))
        U1, mu1 = K.eig()
        U2, mu2 = K.eig()
        assert U1 is U2 and mu1 is mu2


class TestSpectralInvariants:
    @pytest.mark.parametrize("spec", SPECS)
    @pytest.mark.parametrize("n", [3, 17, 64, 256])
    def test_reconstruction_orthonormality_trace(self, spec, n):
        rng = np.random.default_rng(n)
        K = build_kernel_matrix(spec, DesignPoints(np.sort(rng.uniform(0, 1, n))))
        U, mu = K.eig()
        recon = (U * mu) @ U.T
        fro = np.linalg.norm(K.matrix)
        assert np.linalg.norm(recon - K.matrix) <= 1e-8 * max(1.0, fro)
        assert np.abs(U.T @ U - np.eye(n)).max() <= 1e-10
        assert abs(mu.sum() - np.trace(K.matrix)) <= 1e-10 * max(1.0, np.trace(K.matrix))
        assert (np.diff(mu) <= 1e-15).all()

    def test_polynomial_kernel_has_rank_at_most_degree_plus_one(self):
        rng = np.random.default_rng(9)
        for degree in (1, 2, 3, 5):
            n = 32
            K = build_kernel_matrix(
                KernelSpec.polynomial(degree), DesignPoints(rng.uniform(0, 1, n))
            )
            mu = K.eigenvalues
            assert (mu > 1e-8 * mu[0]).sum() <= degree + 1


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: KernelSpec("polynomial", degree=2, bandwidth=0.5), "polynomial kernel takes no bandwidth"),
        (lambda: KernelMatrix(np.ones((2, 3))), "kernel matrix must be square and nonempty"),
        (lambda: KernelMatrix(np.full((2, 2), np.nan)), "kernel matrix must be finite"),
        (lambda: KernelSpec.gaussian("x"), "gaussian kernel needs bandwidth .*got 'x'"),
        (lambda: KernelSpec.polynomial("x"), "polynomial kernel needs integer degree >= 1, got 'x'"),
        (lambda: DesignPoints(["a", "b"]), "design points must be numeric"),
        (lambda: kernel_eval(KernelSpec.sobolev1(), "a", 0.5), "u must be numeric"),
        (lambda: KernelMatrix("x"), "kernel matrix must be numeric"),
        (lambda: kernel_eval("x", 0.2, 0.5), "spec must be a KernelSpec, got str"),
        (lambda: build_kernel_matrix("x", DesignPoints([0.2, 0.5])), "spec must be a KernelSpec, got str"),
        (lambda: build_kernel_matrix(KernelSpec.sobolev1(), "x"), "pts must be a DesignPoints, got str"),
    ],
    ids=[
        "polynomial-bandwidth", "non-square-matrix", "non-finite-matrix",
        "text-bandwidth", "text-degree", "text-points", "text-kernel-argument", "text-matrix",
        "text-kernel-spec", "text-build-spec", "text-build-points",
    ],
)
def test_bad_input_raises_a_named_error(call, match):
    with pytest.raises(DomainError, match=match):
        call()
