import dataclasses
import math

import numpy as np
import pytest

from helpers import sobolev_uniform_matrix
from sketchkrr import satisfiability, sketch
from sketchkrr._util import block_krylov
from sketchkrr.sketch import _ros_transform_pays
from sketchkrr import (
    ComplexityProfile,
    DomainError,
    KernelMatrix,
    SketchOperator,
    check_k_satisfiable,
    complexity_profile,
    draw_sketch,
    identity_sketch,
    materialize,
    recommended_sketch_dim,
)


@pytest.fixture(scope="module")
def sobolev_setup():
    n = 128
    K = KernelMatrix(sobolev_uniform_matrix(n))
    profile = complexity_profile(K.eigenvalues, n, 1.0)
    return n, K, profile


@pytest.fixture(scope="module")
def sobolev_at():
    """n -> (K, profile, U, mu) on the uniform grid, with the oracle's own
    descending dense eigendecomposition, built once per n."""
    cache = {}

    def get(n):
        if n not in cache:
            K = KernelMatrix(sobolev_uniform_matrix(n))
            mu, U = np.linalg.eigh(K.matrix)
            cache[n] = K, complexity_profile(K.eigenvalues, n, 1.0), U[:, ::-1], np.clip(mu[::-1], 0.0, None)
        return cache[n]

    return get


def dense_tail_norm(S, U, mu, d) -> float:
    """||S U2 D2^(1/2)||_2 from the explicit trailing block."""
    return float(np.linalg.norm((S @ U[:, d:]) * np.sqrt(mu[d:]), 2))


# the fewest rows that take the Lanczos route to the tail norm
WIDE = satisfiability.DENSE_TAIL_MAX_M + 1


class TestCheckKSatisfiable:
    @pytest.mark.parametrize("n, m", [(128, 11), (255, WIDE)])
    def test_leaves_the_sketch_rows_unchanged(self, sobolev_at, n, m):
        # T is applied through the sketch's maps and never written; both are
        # ros sketches with stored rows, the second takes the Lanczos tail
        K, profile, _, _ = sobolev_at(n)
        S = draw_sketch("ros", m, n, 8)
        assert S.matrix is not None
        before = S.matrix.copy()
        check_k_satisfiable(S, K, profile)
        np.testing.assert_array_equal(S.matrix, before)

    def test_leading_eigenvector_sketch_is_perfect(self, sobolev_setup):
        n, K, profile = sobolev_setup
        U = K.eigenvectors
        report = check_k_satisfiable(U[:, : profile.d_n].T, K, profile)
        assert report.lhs_isometry <= 1e-10
        assert report.lhs_tail <= 1e-10
        assert report.passed

    def test_identity_sketch(self, sobolev_setup):
        n, K, profile = sobolev_setup
        report = check_k_satisfiable(identity_sketch(n), K, profile)
        assert report.lhs_isometry <= 1e-10
        # tail block keeps orthonormal rows, so its norm is sqrt(mu_{d_n+1})
        mu = K.eigenvalues
        np.testing.assert_allclose(report.lhs_tail, np.sqrt(mu[profile.d_n]), rtol=1e-10)
        assert report.lhs_tail <= profile.delta_n
        assert check_k_satisfiable(identity_sketch(n), K, profile, c_threshold=1.0).passed

    def test_empty_head_is_vacuous(self, monkeypatch, sobolev_at):
        # and needs no eigendecomposition: T = S, so the tail is ||S K^(1/2)||
        ros = draw_sketch("ros", WIDE, 1024, 0)
        assert ros.matrix is None  # the transform route
        sketches = (materialize(draw_sketch("gaussian", 4, 128, 0)),
                    np.random.default_rng(2).standard_normal((WIDE, 128)), ros)
        setups = {n: sobolev_at(n) for n in (128, 1024)}  # the oracle's own eigh
        calls = []
        original = KernelMatrix.eig

        def spy(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(KernelMatrix, "eig", spy)
        for S in sketches:
            n = 1024 if S is ros else 128
            K, _, U, mu = setups[n]
            huge = ComplexityProfile(sigma=1.0, delta_n=10.0, d_n=0, n=n)
            report = check_k_satisfiable(S, K, huge)
            assert report.lhs_isometry == 0.0
            dense = materialize(S) if S is ros else S
            np.testing.assert_allclose(report.lhs_tail, dense_tail_norm(dense, U, mu, 0), rtol=1e-12)
        assert calls == []

    def test_full_head_has_zero_tail(self, sobolev_setup):
        n, K, _ = sobolev_setup
        full = ComplexityProfile(sigma=1.0, delta_n=0.0, d_n=n, n=n)
        report = check_k_satisfiable(draw_sketch("gaussian", n, n, 0), K, full)
        assert report.lhs_tail == 0.0

    def test_scaling_up_never_helps(self, sobolev_setup):
        # at t = 2 both raw norms grow for near-isometric draws
        n, K, profile = sobolev_setup
        for seed in range(10):
            S = materialize(draw_sketch("gaussian", 8 * max(profile.d_n, 1), n, seed))
            base = check_k_satisfiable(S, K, profile)
            doubled = check_k_satisfiable(2.0 * S, K, profile)
            assert doubled.lhs_isometry >= base.lhs_isometry - 1e-12
            assert doubled.lhs_tail >= base.lhs_tail - 1e-12

    def test_isometry_error_improves_with_sketch_size(self, sobolev_setup):
        n, K, profile = sobolev_setup
        d = max(profile.d_n, 1)
        medians = []
        for mult in (1, 2, 4, 8):
            vals = [
                check_k_satisfiable(
                    draw_sketch("gaussian", min(mult * d, n), n, 100 * mult + s), K, profile
                ).lhs_isometry
                for s in range(50)
            ]
            medians.append(np.median(vals))
        assert all(a >= b for a, b in zip(medians, medians[1:]))

    def test_pass_flag_consistent_with_thresholds(self, sobolev_setup):
        n, K, profile = sobolev_setup
        for seed in range(20):
            S = draw_sketch("gaussian", 16, n, seed)
            r = check_k_satisfiable(S, K, profile, c_threshold=2.0)
            assert r.passed == (r.lhs_isometry <= 0.5 and r.lhs_tail <= 2.0 * r.delta_n)

    # the first five take the dense route, the rest the Lanczos route;
    # ros-64-n1200 is a transform-route sketch, with no stored rows
    @pytest.mark.parametrize("kind,m,n", [
        pytest.param("gaussian", 1, 128, id="gaussian-1"),
        pytest.param("gaussian", 24, 128, id="gaussian-24"),
        pytest.param("ros", 100, 128, id="ros-100"),
        pytest.param("subsample", 64, 128, id="subsample-64"),
        pytest.param("ros", 64, 1200, id="ros-64-n1200"),
        pytest.param("ros", 462, 1024, id="ros-462-n1024"),
        pytest.param("ros", 924, 1024, id="ros-924-n1024"),
        pytest.param("gaussian", WIDE, 1024, id="gaussian-wide-n1024"),
        pytest.param("ros", 462, 1200, id="ros-462-n1200"),
        pytest.param("subsample", WIDE, 1024, id="subsample-wide-n1024"),
        pytest.param("identity", 256, 256, id="identity-256"),
    ])
    def test_tail_norm_matches_dense_svd(self, sobolev_at, kind, m, n):
        K, profile, U, mu = sobolev_at(n)
        S = identity_sketch(n) if kind == "identity" else draw_sketch(kind, m, n, 5)
        want = dense_tail_norm(materialize(S), U, mu, profile.d_n)
        report = check_k_satisfiable(S, K, profile)
        np.testing.assert_allclose(report.lhs_tail, want, rtol=1e-12)
        assert check_k_satisfiable(S, K, profile).lhs_tail == report.lhs_tail

    def test_rows_in_head_span_have_zero_tail(self, sobolev_at):
        # T = S - (S U1) U1^T vanishes: exactly for zero rows (the first
        # Ritz pair has zero value and residual), to rounding for rows R U1^T
        n = 256
        K, profile, U, mu = sobolev_at(n)
        zero = np.zeros((WIDE, n))
        assert check_k_satisfiable(zero, K, profile).lhs_tail == 0.0 == dense_tail_norm(zero, U, mu, profile.d_n)
        S = np.random.default_rng(3).standard_normal((WIDE, profile.d_n)) @ K.eigenvectors[:, : profile.d_n].T
        tail = check_k_satisfiable(S, K, profile).lhs_tail
        assert tail <= 1e-10
        np.testing.assert_allclose(tail, dense_tail_norm(S, U, mu, profile.d_n), atol=1e-12)

    def test_equal_rows_give_rank_one_tail(self, sobolev_at):
        # T K T^T = (t^T K t) 1 1^T has rank one
        n = 256
        K, profile, U, mu = sobolev_at(n)
        S = np.tile(np.random.default_rng(4).standard_normal(n), (WIDE, 1))
        report = check_k_satisfiable(S, K, profile)
        np.testing.assert_allclose(report.lhs_tail, dense_tail_norm(S, U, mu, profile.d_n), rtol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("m", [4, WIDE])
    def test_non_finite_sketch_rejected(self, sobolev_setup, bad, m):
        n, K, profile = sobolev_setup
        S = materialize(draw_sketch("gaussian", min(m, n), n, 0))
        S[1, 2] = bad
        with pytest.raises(DomainError, match="gaussian sketch matrix must be finite"):
            check_k_satisfiable(S, K, profile)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_ros_operator_rejected(self, bad):
        # a hand-built transform-route operator, which the certificate would
        # apply as a transform without seeing its rows: it fails where it is
        # made, so no certificate or fit is handed a non-finite sketch
        drawn = draw_sketch("ros", WIDE, 1024, 0)
        assert _ros_transform_pays(drawn)
        signs = drawn.signs.copy()
        signs[2] = bad
        with pytest.raises(DomainError, match="ros sketch signs must be finite"):
            SketchOperator("ros", WIDE, 1024, 0, signs=signs, indices=drawn.indices, n_pad=drawn.n_pad)

    @pytest.mark.parametrize("kind", ["gaussian", "ros", "subsample"])
    @pytest.mark.parametrize("m", [satisfiability.DENSE_TAIL_MAX_M, WIDE])
    def test_never_builds_the_sketch_rows(self, monkeypatch, sobolev_at, kind, m):
        # both routes apply S through its maps; the benchmark's tracer
        # counts sketchkrr.satisfiability.materialize
        K, profile, _, _ = sobolev_at(1024)
        S = draw_sketch(kind, m, 1024, 6)

        def forbidden(S):
            raise AssertionError("the certificate built the sketch's rows")

        monkeypatch.setattr(satisfiability, "materialize", forbidden)
        monkeypatch.setattr(sketch, "_ros_rows", forbidden)
        check_k_satisfiable(S, K, profile)

    @pytest.mark.parametrize("m", [24, WIDE])
    def test_operator_and_its_matrix_agree_bitwise(self, sobolev_at, m):
        # a gaussian operator's maps are its matrix's own products
        K, profile, _, _ = sobolev_at(1024)
        S = draw_sketch("gaussian", m, 1024, 9)
        assert check_k_satisfiable(S, K, profile) == check_k_satisfiable(S.matrix, K, profile)

    def test_dense_matrix_argument_is_not_modified(self, sobolev_setup):
        n, K, profile = sobolev_setup
        S = materialize(draw_sketch("gaussian", 8, n, 1))
        before = S.copy()
        check_k_satisfiable(S, K, profile)
        np.testing.assert_array_equal(S, before)

    @pytest.mark.parametrize(
        "call, match",
        [
            (
                lambda n, K, p: check_k_satisfiable(identity_sketch(n), K, p, 0.0),
                "c_threshold must be finite and > 0, got 0.0",
            ),
            (
                lambda n, K, p: check_k_satisfiable(identity_sketch(n), K, p, "x"),
                "c_threshold must be finite and > 0, got 'x'",
            ),
            (lambda n, K, p: check_k_satisfiable([["a"] * n], K, p), "sketch must be numeric"),
            (
                lambda n, K, p: check_k_satisfiable(identity_sketch(n), K, dataclasses.replace(p, d_n=n + 1)),
                "profile d_n=129 out of range for n=128",
            ),
            (
                lambda n, K, p: check_k_satisfiable(identity_sketch(n), K, dataclasses.replace(p, d_n=2.5)),
                "profile d_n=2.5 out of range for n=128",
            ),
            (lambda n, K, p: check_k_satisfiable(np.ones(n), K, p), "sketch must be a matrix"),
            (lambda n, K, p: recommended_sketch_dim("gaussian", 2, 20, "x"), "c must be finite and > 0, got 'x'"),
            (
                lambda n, K, p: check_k_satisfiable(identity_sketch(n), K, "p"),
                "profile must be a ComplexityProfile, got str",
            ),
            (
                lambda n, K, p: check_k_satisfiable(identity_sketch(n), K.matrix, p),
                "K must be a KernelMatrix, got ndarray",
            ),
        ],
        ids=[
            "zero-threshold", "text-threshold", "text-sketch", "d_n-above-n", "fractional-d_n", "vector-sketch",
            "text-c", "text-profile", "array-K",
        ],
    )
    def test_bad_input_raises_a_named_error(self, sobolev_setup, call, match):
        with pytest.raises(DomainError, match=match):
            call(*sobolev_setup)

    def test_wrong_width_rejected(self, sobolev_setup):
        n, K, profile = sobolev_setup
        with pytest.raises(DomainError):
            check_k_satisfiable(np.ones((2, n + 1)), K, profile)

    def test_profile_of_other_size_rejected(self, sobolev_setup):
        n, K, _ = sobolev_setup
        other = complexity_profile(K.eigenvalues[:64], 64, 1.0)
        with pytest.raises(DomainError, match=f"n=64.*{n}"):
            check_k_satisfiable(identity_sketch(n), K, other)


class TestLanczosTop:
    """The eigensolver with one column per block, as the tail norm drives it."""

    @pytest.mark.parametrize("m,rank", [(1, 1), (2, 2), (5, 5), (40, 40), (40, 3), (40, 0)])
    def test_matches_dense_top_eigenvalue(self, m, rank):
        # T K T^T = G G^T for T = G and K = I, through the Krylov route
        G = np.random.default_rng(m + rank).standard_normal((m, rank))
        K = np.eye(rank)
        top = satisfiability._top_eigenvalue_tkt(lambda x: G @ (K @ (G.T @ x)), m)
        np.testing.assert_allclose(top, np.linalg.eigvalsh(G @ G.T)[-1] if rank else 0.0, rtol=1e-12, atol=0.0)

    def test_zero_operator_breaks_down_until_k_equals_m(self):
        # every block breaks down and continues from a fresh vector
        # orthogonal to the basis, so the m products see an orthonormal
        # basis of R^m
        m = 7
        seen = []

        def apply(X):
            seen.append(X[:, 0].copy())
            return np.zeros_like(X)

        heads = list(block_krylov(apply, m, 1))
        assert [theta.size for theta, _, _ in heads] == list(range(1, m + 1))
        assert all((theta == 0.0).all() and (res == 0.0).all() for theta, res, _ in heads)
        Q = np.array(seen)
        np.testing.assert_allclose(Q @ Q.T, np.eye(m), atol=1e-14)


class TestRecommendedSketchDim:
    def test_gaussian_rule(self):
        assert recommended_sketch_dim("gaussian", 5, 100, 2.0) == 10

    def test_ros_log_factor_at_small_n(self):
        # ln(2)^4 = 0.23 rounds up to one row, ln(3)^4 = 1.46 to two
        assert recommended_sketch_dim("ros", 1, 2, 1.0) == 1
        assert recommended_sketch_dim("ros", 1, 3, 1.0) == 2

    def test_clamped_to_ambient_dimension(self):
        assert recommended_sketch_dim("gaussian", 50, 50, 2.0) == 50
        assert recommended_sketch_dim("ros", 10, 64, 3.0) == 64

    def test_ros_rule_value(self):
        n, d, c = 1024, 3, 1.5
        expected = math.ceil(c * d * math.log(n) ** 4)
        assert recommended_sketch_dim("ros", d, n, c) == min(expected, n)

    @pytest.mark.parametrize("d_n", [0, -1, 2.5, 2.0, math.inf, math.nan])
    @pytest.mark.parametrize("kind", ["gaussian", "ros"])
    def test_rejects_non_count_d_n(self, kind, d_n):
        with pytest.raises(DomainError, match=f"d_n must be an integer >= 1, got {d_n}"):
            recommended_sketch_dim(kind, d_n, 100, 2.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            recommended_sketch_dim("subsample", 2, 10, 1.0)
        for kind in ("gaussian", "ros"):
            for n in (0, -3, 2.5, math.inf):
                with pytest.raises(DomainError, match=f"n must be an integer >= 1, got {n}"):
                    recommended_sketch_dim(kind, 2, n, 1.0)
            for c in (math.inf, math.nan, 0.0):
                with pytest.raises(DomainError, match=f"c must be finite and > 0, got {c}"):
                    recommended_sketch_dim(kind, 2, 10, c)
