import numpy as np
import pytest

from helpers import naive_hadamard, ros_dense_oracle
from sketchkrr import (
    DomainError,
    SketchOperator,
    apply_sketch,
    apply_sketch_t,
    draw_sketch,
    fwht,
    identity_sketch,
    materialize,
)

KINDS = ("gaussian", "ros", "subsample")


class TestDrawSketch:
    @pytest.mark.parametrize("kind", KINDS)
    def test_seed_determinism(self, kind):
        a = draw_sketch(kind, 5, 17, 12345)
        b = draw_sketch(kind, 5, 17, 12345)
        np.testing.assert_array_equal(materialize(a), materialize(b))
        for field in ("matrix", "signs", "indices"):
            fa, fb = getattr(a, field), getattr(b, field)
            if fa is not None:
                np.testing.assert_array_equal(fa, fb)

    @pytest.mark.parametrize("kind", KINDS)
    def test_distinct_seeds_differ(self, kind):
        a = draw_sketch(kind, 5, 17, 1)
        b = draw_sketch(kind, 5, 17, 2)
        assert not np.array_equal(materialize(a), materialize(b))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            draw_sketch("gaussian", 0, 4, 0)
        with pytest.raises(DomainError):
            draw_sketch("gaussian", 5, 4, 0)
        with pytest.raises(DomainError):
            draw_sketch("rademacher", 2, 4, 0)

    def test_subsample_full_dimension_is_permutation(self):
        n = 9
        S = draw_sketch("subsample", n, n, 3)
        dense = materialize(S)
        assert sorted(S.indices.tolist()) == list(range(n))
        np.testing.assert_array_equal(dense @ dense.T, np.eye(n))
        assert set(np.unique(dense)) == {0.0, 1.0}

    def test_identity_sketch(self):
        np.testing.assert_array_equal(materialize(identity_sketch(6)), np.eye(6))

    def test_gaussian_entry_mean(self):
        # CLT bound on the empirical mean of m*n iid N(0, 1/m) entries
        m, n = 24, 96
        S = draw_sketch("gaussian", m, n, 2024)
        assert abs(S.matrix.mean()) <= 4.0 * np.sqrt(1.0 / (m * m * n))

    def test_subsample_entries(self):
        S = draw_sketch("subsample", 3, 12, 7)
        dense = materialize(S)
        scale = np.sqrt(12 / 3)
        assert set(np.unique(dense)) == {0.0, scale}
        assert (np.count_nonzero(dense, axis=1) == 1).all()

    def test_ros_full_rows_are_orthogonal(self):
        # m = n = n_pad: signed row-sampled Hadamard keeps orthonormal rows
        S = draw_sketch("ros", 4, 4, 11)
        dense = materialize(S)
        np.testing.assert_allclose(dense @ dense.T, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(dense, axis=0), np.ones(4), atol=1e-12)


class TestFwht:
    def test_two_point(self):
        np.testing.assert_allclose(fwht(np.array([1.0, 0.0])), np.array([1.0, 1.0]) / np.sqrt(2))

    def test_four_point_constant(self):
        np.testing.assert_array_equal(fwht(np.ones(4)), [2.0, 0.0, 0.0, 0.0])

    def test_involution(self):
        rng = np.random.default_rng(8)
        v = rng.standard_normal(64)
        np.testing.assert_allclose(fwht(fwht(v)), v, atol=1e-12)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(DomainError):
            fwht(np.ones(6))

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
    def test_matches_naive_hadamard(self, n):
        rng = np.random.default_rng(n)
        v = rng.standard_normal(n)
        np.testing.assert_allclose(fwht(v, normalized=False), naive_hadamard(n) @ v, atol=1e-10)

    def test_matrix_input_transforms_columns(self):
        rng = np.random.default_rng(10)
        M = rng.standard_normal((8, 3))
        out = fwht(M)
        for j in range(3):
            np.testing.assert_allclose(out[:, j], fwht(M[:, j]), atol=1e-13)


class TestApplySketch:
    def test_subsample_row_gather(self):
        S = SketchOperator("subsample", 2, 2, 0, indices=np.array([1, 0]))
        np.testing.assert_array_equal(apply_sketch(S, np.eye(2)), [[0.0, 1.0], [1.0, 0.0]])

    @pytest.mark.parametrize("kind", KINDS)
    def test_zero_input(self, kind):
        S = draw_sketch(kind, 4, 10, 5)
        np.testing.assert_array_equal(apply_sketch(S, np.zeros(10)), np.zeros(4))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [5, 16, 33, 64])
    def test_matches_materialization(self, kind, n):
        rng = np.random.default_rng(n)
        m = int(rng.integers(1, n + 1))
        S = draw_sketch(kind, m, n, 100 + n)
        dense = materialize(S)
        v = rng.standard_normal(n)
        M = rng.standard_normal((n, 3))
        assert np.abs(apply_sketch(S, v) - dense @ v).max() <= 1e-10
        assert np.abs(apply_sketch(S, M) - dense @ M).max() <= 1e-10

    @pytest.mark.parametrize("kind", KINDS)
    def test_transpose_apply_matches_materialization(self, kind):
        rng = np.random.default_rng(13)
        n, m = 23, 7
        S = draw_sketch(kind, m, n, 77)
        dense = materialize(S)
        v = rng.standard_normal(m)
        M = rng.standard_normal((m, 4))
        assert np.abs(apply_sketch_t(S, v) - dense.T @ v).max() <= 1e-12
        assert np.abs(apply_sketch_t(S, M) - dense.T @ M).max() <= 1e-12

    def test_dimension_mismatch(self):
        S = draw_sketch("gaussian", 3, 8, 0)
        with pytest.raises(DomainError):
            apply_sketch(S, np.ones(9))
        with pytest.raises(DomainError):
            apply_sketch_t(S, np.ones(8))

    @pytest.mark.parametrize(
        "n, m",
        [pytest.param(n, None, id=str(n)) for n in (48, 100, 256)]
        + [pytest.param(1200, 11, id="1200-11"), pytest.param(1200, 1200, id="1200-1200")],
    )
    def test_ros_fast_path_vs_dense_oracle(self, n, m):
        # independent oracle: explicit Sylvester Hadamard, signed and row-sampled;
        # n = 1200 pads to 2048
        rng = np.random.default_rng(n + 1)
        if m is None:
            m = int(rng.integers(1, n // 2))
        S = draw_sketch("ros", m, n, 500 + n)
        dense = ros_dense_oracle(S)
        M = rng.standard_normal((n, 5))
        V = rng.standard_normal((m, 5))
        assert np.abs(materialize(S) - dense).max() <= 1e-10
        assert np.abs(apply_sketch(S, M) - dense @ M).max() <= 1e-10
        assert np.abs(apply_sketch_t(S, V) - dense.T @ V).max() <= 1e-10


class TestIsotropy:
    def test_gaussian_mean_gram_near_identity(self):
        n, m, seeds = 64, 32, 200
        acc = np.zeros((n, n))
        for s in range(seeds):
            S = draw_sketch("gaussian", m, n, 9000 + s)
            acc += S.matrix.T @ S.matrix - np.eye(n)
        assert np.abs(acc / seeds).max() <= 0.1

    def test_subsample_mean_gram_near_identity(self):
        # per-entry sd of the seed average is sqrt((n/m - 1)/seeds); 200 seeds
        # put the max over 64 diagonal entries near 0.17, so more draws are
        # needed for the 0.1 tolerance to be a sound test of E[S^T S] = I
        n, m, seeds = 64, 32, 2000
        diag = np.zeros(n)
        for s in range(seeds):
            S = draw_sketch("subsample", m, n, 15000 + s)
            diag[S.indices] += n / m
        assert np.abs(diag / seeds - 1.0).max() <= 0.1
