import re
import warnings

import numpy as np
import pytest

from sketchkrr import (
    DesignPoints,
    DomainError,
    ExperimentConfig,
    KernelMatrix,
    KernelSpec,
    NumericalError,
    build_kernel_matrix,
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
        rng = np.random.default_rng(0)
        u = rng.uniform(0, 1, 200)
        v = rng.uniform(0, 1, 200)
        np.testing.assert_array_equal(kernel_eval(spec, u, v), kernel_eval(spec, v, u))

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

    def test_copy_false_keeps_the_buffer(self):
        a = np.eye(3)
        K = KernelMatrix(a, copy=False)
        assert K.matrix is a and not a.flags.writeable
        b = np.eye(3)
        assert KernelMatrix(b).matrix is not b and b.flags.writeable


class TestPsdByConstruction:
    """Dense oracles for the argument that lets build_kernel_matrix skip the
    symmetry comparison and the profile's PSD check."""

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
    def test_marked_matrix_is_symmetric_and_psd(self, spec, design, n):
        config = ExperimentConfig(kernel=spec, design=design, n_grid=(n,))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # irregular points pass 1 for sobolev1
            K = build_kernel_matrix(spec, generate_data(config, n, n).pts)
        assert K._proven
        assert np.array_equal(K.matrix, K.matrix.T)
        mu = np.linalg.eigvalsh(K.matrix)
        # the argument allows -n * c * eps * mu_max (about -3e-12 for
        # polynomial(8) at n = 1200); dense eigvalsh sees far less
        assert mu[0] >= -1e-12 * mu[-1]

    def test_sobolev1_on_negative_points_is_not_marked(self):
        with pytest.warns(UserWarning):
            K = build_kernel_matrix(KernelSpec.sobolev1(), DesignPoints(np.linspace(-1.0, 1.0, 64)))
        assert not K._proven

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
        assert not KernelMatrix(np.eye(3))._proven


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

    def test_indefinite_matrix_rejected(self):
        K = KernelMatrix(np.diag([1.0, -0.5]))
        with pytest.raises(NumericalError):
            K.eig()

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
