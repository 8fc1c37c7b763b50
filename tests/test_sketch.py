import dataclasses

import numpy as np
import pytest

from helpers import naive_hadamard, ros_dense_oracle, sample_without_replacement_loop
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
from sketchkrr.sketch import _ros_transform_pays, _sample_without_replacement

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

    @pytest.mark.parametrize("kind", KINDS)
    def test_counts_must_be_integers(self, kind):
        with pytest.raises(DomainError, match="m must be an integer"):
            draw_sketch(kind, 2.5, 64, 0)
        with pytest.raises(DomainError, match="n must be an integer"):
            draw_sketch(kind, 2, 64.0, 0)
        S = draw_sketch(kind, np.int64(5), np.int32(17), 12345)
        np.testing.assert_array_equal(materialize(S), materialize(draw_sketch(kind, 5, 17, 12345)))

    def test_subsample_full_dimension_is_permutation(self):
        n = 9
        S = draw_sketch("subsample", n, n, 3)
        dense = materialize(S)
        assert sorted(S.indices.tolist()) == list(range(n))
        np.testing.assert_array_equal(dense @ dense.T, np.eye(n))
        assert set(np.unique(dense)) == {0.0, 1.0}

    @pytest.mark.parametrize("kind, m", [("gaussian", 11), ("ros", 11), ("ros", 462), ("subsample", 11)])
    def test_materialize_is_a_new_writable_array(self, kind, m):
        # the certificate forms T in place of it
        S = draw_sketch(kind, m, 1024, 4)
        dense = materialize(S)
        assert dense.flags.writeable
        assert S.matrix is None or not np.shares_memory(dense, S.matrix)

    def test_identity_sketch(self):
        np.testing.assert_array_equal(materialize(identity_sketch(6)), np.eye(6))
        with pytest.raises(DomainError, match="n must be an integer"):
            identity_sketch(2.5)

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

    @pytest.mark.parametrize("pool_size, m", [(1, 1), (7, 3), (17, 17), (1024, 11), (1024, 924), (2048, 462)])
    def test_sampling_matches_one_draw_per_slot(self, pool_size, m):
        # the same indices, and the generator left in the same state
        for seed in range(20):
            want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            want = sample_without_replacement_loop(want_rng, pool_size, m)
            got = _sample_without_replacement(got_rng, pool_size, m)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
            assert got_rng.integers(1 << 62) == want_rng.integers(1 << 62)

    def test_ros_full_rows_are_orthogonal(self):
        # m = n = n_pad: signed row-sampled Hadamard keeps orthonormal rows
        S = draw_sketch("ros", 4, 4, 11)
        dense = materialize(S)
        np.testing.assert_allclose(dense @ dense.T, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(dense, axis=0), np.ones(4), atol=1e-12)


class TestHandBuiltOperator:
    """The stored state must fit (kind, m, n) when the operator is made."""

    @pytest.mark.parametrize(
        "kind, fields, match",
        [
            ("sparse", {}, "unknown sketch kind 'sparse'"),
            ("gaussian", {}, r"gaussian sketch needs matrix of shape \(3, 8\), got NoneType"),
            ("gaussian", {"matrix": np.ones((2, 8))}, r"matrix of shape \(3, 8\), got \(2, 8\)"),
            ("ros", {}, "ros sketch needs n_pad = 8 for n = 8, got None"),
            ("ros", {"n_pad": 16}, "n_pad = 8"),
            ("ros", {"n_pad": 8, "indices": np.arange(3)}, r"signs of shape \(8,\), got NoneType"),
            ("ros", {"n_pad": 8, "signs": np.ones(7), "indices": np.arange(3)}, r"signs of shape \(8,\)"),
            ("ros", {"n_pad": 8, "signs": np.ones(8)}, r"indices of shape \(3,\), got NoneType"),
            ("ros", {"n_pad": 8, "signs": np.ones(8), "indices": np.array([0, 1, 8])}, r"in \[0, 8\)"),
            (
                "ros",
                {"n_pad": 8, "signs": np.ones(8), "indices": np.arange(3), "matrix": np.ones((3, 7))},
                r"matrix of shape \(3, 8\), got \(3, 7\)",
            ),
            ("subsample", {"indices": np.arange(2)}, r"indices of shape \(3,\), got \(2,\)"),
            ("subsample", {"indices": [0, 1, 2]}, r"indices of shape \(3,\), got list"),
            ("subsample", {"indices": np.array([0, 1, 8])}, r"subsample sketch needs integer indices in \[0, 8\)"),
            ("subsample", {"indices": np.array([-1, 1, 2])}, r"in \[0, 8\)"),
            ("subsample", {"indices": np.array([0.0, 1.0, 2.0])}, "integer indices"),
        ],
    )
    def test_state_that_does_not_fit_is_named(self, kind, fields, match):
        with pytest.raises(DomainError, match=match):
            SketchOperator(kind, 3, 8, 0, **fields)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind, field", [("gaussian", "matrix"), ("ros", "signs"), ("ros", "matrix")])
    def test_non_finite_state_is_named(self, kind, field, bad):
        # unchecked, solve_sketched_krr returned NaN fitted values for these
        drawn = draw_sketch(kind, 8, 64, 0)  # a ros sketch that keeps its rows
        value = getattr(drawn, field).copy()
        value.flat[2] = bad
        with pytest.raises(DomainError, match=f"{kind} sketch {field} must be finite"):
            dataclasses.replace(drawn, **{field: value})

    @pytest.mark.parametrize("m, n", [(3, 2.5), (0, 8)])
    def test_counts_must_be_integers(self, m, n):
        with pytest.raises(DomainError, match="must be an integer >= 1"):
            SketchOperator("subsample", m, n, 0, indices=np.arange(3))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("m, n", [(1, 1), (3, 8), (11, 1024), (924, 1024), (5, 1023)])
    def test_drawn_operators_pass(self, kind, m, n):
        S = draw_sketch(kind, m, n, 7)
        rebuilt = dataclasses.replace(S)  # runs the checks again
        for field in ("matrix", "signs", "indices"):
            assert getattr(rebuilt, field) is getattr(S, field)
        assert dataclasses.replace(identity_sketch(n)).indices.shape == (n,)


SKETCH = draw_sketch("gaussian", 3, 8, 0)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: apply_sketch(SKETCH, ["x"] * 8), "operand must be numeric"),
        (lambda: apply_sketch_t(SKETCH, ["x"] * 3), "operand must be numeric"),
        (lambda: fwht("x"), "v must be numeric"),
        (lambda: fwht(1.0), r"v must have a power-of-two length along axis 0, got shape \(\)"),
        (
            lambda: SketchOperator("gaussian", 1, 2, 0, matrix=np.array([["a", "b"]])),
            "gaussian sketch matrix must be numeric",
        ),
        (lambda: apply_sketch("x", np.ones(8)), "S must be a SketchOperator, got str"),
        (lambda: apply_sketch_t("x", np.ones(3)), "S must be a SketchOperator, got str"),
        (lambda: materialize("x"), "S must be a SketchOperator, got str"),
    ],
    ids=[
        "text-operand", "text-transpose-operand", "text-fwht", "scalar-fwht", "text-matrix",
        "text-sketch", "text-transpose-sketch", "text-materialize",
    ],
)
def test_bad_input_raises_a_named_error(call, match):
    with pytest.raises(DomainError, match=match):
        call()


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
    @pytest.mark.parametrize("apply", [apply_sketch, apply_sketch_t], ids=["forward", "transpose"])
    def test_operand_of_three_axes_rejected(self, apply):
        with pytest.raises(DomainError, match="operand must be a vector or a matrix"):
            apply(draw_sketch("gaussian", 4, 10, 5), np.ones((10, 4, 1)))

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


ROS_ORACLE_CASES = sorted(
    {(n, min(m, n)) for n in (1, 2, 3, 17, 1000, 1024, 1200) for m in (1, 11, 33, 462, n)}
)


class TestRosTransform:
    @pytest.mark.parametrize("n, m", ROS_ORACLE_CASES, ids=[f"{n}-{m}" for n, m in ROS_ORACLE_CASES])
    def test_apply_matches_dense_oracle(self, n, m):
        # S and S^T, each on a vector, a C-ordered matrix and an F-ordered
        # transposed view, with 67 columns: more than one pass and a short
        # last one; and no columns
        rng = np.random.default_rng(n * 7919 + m)
        S = draw_sketch("ros", m, n, 900 + n + m)
        dense = ros_dense_oracle(S)
        for apply, D, rows in ((apply_sketch, dense, n), (apply_sketch_t, dense.T, m)):
            operands = (rng.standard_normal(rows), rng.standard_normal((rows, 67)),
                        rng.standard_normal((67, rows)).T, np.zeros((rows, 0)))
            for X in operands:
                got = apply(S, X)
                assert got.shape == (D.shape[0], *X.shape[1:])
                np.testing.assert_allclose(got, D @ X, rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("n, m, dense", [
        (1024, 11, True), (1200, 11, True), (17, 5, True), (1023, 462, True),
        (1024, 462, False), (1200, 924, False),
    ])
    def test_dense_route_keeps_its_rows(self, n, m, dense):
        # the dense route's rows (always for odd n) are built once at the
        # draw, read-only; the transform route keeps none
        S = draw_sketch("ros", m, n, 70 + m)
        assert _ros_transform_pays(S) is not dense
        if dense:
            assert not S.matrix.flags.writeable
            np.testing.assert_allclose(S.matrix, ros_dense_oracle(S), rtol=0.0, atol=1e-15)
        else:
            assert S.matrix is None

    def test_oracle_cases_cover_both_routes(self):
        routes = {_ros_transform_pays(draw_sketch("ros", m, n, 0)) for n, m in ROS_ORACLE_CASES}
        assert routes == {True, False}
        for n in (1024, 1200):
            assert not _ros_transform_pays(draw_sketch("ros", 11, n, 0))
            assert _ros_transform_pays(draw_sketch("ros", 462, n, 0))


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
