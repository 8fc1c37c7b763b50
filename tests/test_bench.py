import dataclasses
import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from helpers import count_calls, spy_routes
from sketchkrr import (
    CSV_HEADER,
    ArmSummary,
    DomainError,
    ExperimentConfig,
    KernelSpec,
    NumericalError,
    TrialRecord,
    complexity_profile,
    derive_seed,
    draw_sketch,
    emit_plot_script,
    fstar_values,
    generate_data,
    kernel_eval,
    load_config,
    parse_config,
    population_eigenvalues,
    rate_exponent_check,
    rate_factor,
    read_csv,
    run_error_vs_n,
    run_nystrom_failure_demo,
    summarize_records,
    write_csv,
)
from sketchkrr.bench import _SweepLog, _arm_sketch, _data_seed, _shared_inputs, flatness_ratio

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def small_config(**overrides):
    base = dict(
        kernel=KernelSpec.sobolev1(),
        fstar="abs_shift",
        design="uniform_grid",
        sigma=1.0,
        n_grid=(8, 16),
        sketch_kinds=("exact", "gaussian"),
        m_rule="cuberoot",
        lambda_rule="two_delta_sq",
        trials=3,
        base_seed=99,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            small_config(n_grid=(1, 8))
        with pytest.raises(DomainError):
            small_config(trials=0)
        with pytest.raises(DomainError):
            small_config(sketch_kinds=("gaussian", "gaussian"))
        with pytest.raises(DomainError):
            small_config(m_rule="fixed")  # missing m_fixed
        with pytest.raises(DomainError):
            small_config(lambda_rule="fixed")  # missing lambda_fixed
        with pytest.raises(DomainError):
            small_config(fstar="cubic")

    @pytest.mark.parametrize(
        "field, overrides",
        [
            ("sigma", dict(sigma=math.inf)),
            ("c_statdim", dict(m_rule="statdim", c_statdim=math.inf)),
            ("lambda_fixed", dict(lambda_rule="fixed", lambda_fixed=math.inf)),
        ],
    )
    def test_non_finite_parameters_rejected(self, field, overrides):
        with pytest.raises(DomainError, match=field):
            small_config(**overrides)

    @pytest.mark.parametrize(
        "field, overrides",
        [
            ("trials", dict(trials=1.5)),
            ("m_fixed", dict(m_rule="fixed", m_fixed=2.5)),
            ("n_grid", dict(n_grid=(64.7,))),
        ],
    )
    def test_counts_must_be_integers(self, field, overrides):
        # unchecked, a float count fails late in range() or is truncated
        with pytest.raises(DomainError, match=f"{field}.*must be an integer"):
            small_config(**overrides)

    def test_numpy_integer_counts_accepted(self):
        config = small_config(n_grid=(np.int64(8),), trials=np.int32(2), m_rule="fixed", m_fixed=np.int64(3))
        assert (config.n_grid, config.trials, config.m_fixed) == ((8,), 2, 3)


class TestTargetsAndRates:
    def test_fstar_values(self):
        assert fstar_values("abs_shift", 0.5) == 0.5
        assert fstar_values("quad", 0.5) == -0.5

    def test_rate_factors(self):
        assert rate_factor(KernelSpec.sobolev1(), 64) == 64 ** (2 / 3)
        assert rate_factor(KernelSpec.gaussian(0.25), 64) == 64 / math.sqrt(math.log(64))
        assert rate_factor(KernelSpec.polynomial(2), 64) == 64.0

    @pytest.mark.parametrize("n", [1, 0, 64.0, 2.5])
    def test_rate_factor_needs_an_integer_n_of_two_or_more(self, n):
        # the gaussian rate divides by log(n), zero at n = 1
        with pytest.raises(DomainError, match=f"n must be an integer >= 2, got {n!r}"):
            rate_factor(KernelSpec.gaussian(0.25), n)


class TestGenerateData:
    def test_deterministic_in_seed(self):
        cfg = small_config(design="iid_uniform")
        a = generate_data(cfg, 32, 7)
        b = generate_data(cfg, 32, 7)
        np.testing.assert_array_equal(a.pts.x, b.pts.x)
        np.testing.assert_array_equal(a.y, b.y)

    def test_uniform_grid_points(self):
        sample = generate_data(small_config(), 8, 0)
        np.testing.assert_allclose(sample.pts.x, np.arange(1, 9) / 8, rtol=1e-15)

    def test_zero_noise_returns_fstar_exactly(self):
        cfg = small_config(sigma=0.0, lambda_rule="fixed", lambda_fixed=0.1)
        sample = generate_data(cfg, 16, 3)
        np.testing.assert_array_equal(sample.y, sample.fstar)

    def test_irregular_design_shape(self):
        cfg = small_config(design="irregular", kernel=KernelSpec.gaussian(0.25), fstar="quad")
        n = 400
        k = math.ceil(math.sqrt(n))
        sample = generate_data(cfg, n, 11)
        bulk, cluster = sample.pts.x[: n - k], sample.pts.x[n - k :]
        assert bulk.min() >= 0.0 and bulk.max() <= 0.5
        assert np.abs(cluster - 1.0).max() <= 5.0 / math.sqrt(n)

    def test_small_n_rejected(self):
        with pytest.raises(DomainError):
            generate_data(small_config(), 1, 0)

    @pytest.mark.parametrize("n", [1, 10.5, "10", None])
    def test_n_must_be_an_integer_of_two_or_more(self, n):
        # unchecked, a float n reached numpy's array shape and raised TypeError
        with pytest.raises(DomainError, match=f"n must be an integer >= 2, got {n!r}"):
            generate_data(small_config(), n, 0)


class TestSeedDerivation:
    def test_no_collisions_across_config_triples(self):
        cfg = small_config(
            n_grid=(8, 16, 32, 64),
            sketch_kinds=("exact", "gaussian", "ros", "subsample"),
            trials=50,
        )
        seeds = {
            derive_seed(cfg.base_seed, n, kind, t)
            for n in cfg.n_grid
            for kind in cfg.sketch_kinds
            for t in range(cfg.trials)
        }
        assert len(seeds) == 4 * 4 * 50

    def test_deterministic(self):
        assert derive_seed(1, 64, "ros", 3) == derive_seed(1, 64, "ros", 3)
        assert derive_seed(1, 64, "ros", 3) != derive_seed(2, 64, "ros", 3)

    def test_unknown_kind_is_named(self):
        with pytest.raises(DomainError, match="unknown sketch kind 'bogus'"):
            derive_seed(0, 10, "bogus", 0)

    @pytest.mark.parametrize(
        "n, kind, trial, match",
        [
            (10.5, "ros", 0, "n must be an integer >= 1, got 10.5"),
            (0, "ros", 0, "n must be an integer >= 1, got 0"),
            (-10, "ros", 0, "n must be an integer >= 1, got -10"),
            (10, "ros", 1.5, "trial must be an integer >= 0, got 1.5"),
            (10, "ros", -1, "trial must be an integer >= 0, got -1"),
            (10, ["ros"], 0, r"unknown sketch kind \['ros'\]"),
            (10, None, 0, "unknown sketch kind None"),
        ],
    )
    def test_bad_arguments_are_named(self, n, kind, trial, match):
        # unchecked, these raised a bare TypeError or returned a seed
        with pytest.raises(DomainError, match=match):
            derive_seed(0, n, kind, trial)


SEED_ENTRIES = {
    "draw_sketch": lambda seed: draw_sketch("gaussian", 3, 8, seed),
    "derive_seed": lambda seed: derive_seed(seed, 8, "gaussian", 0),
    "ExperimentConfig": lambda seed: ExperimentConfig(kernel=KernelSpec.sobolev1(), base_seed=seed),
    "generate_data": lambda seed: generate_data(small_config(), 8, seed),
    "run_nystrom_failure_demo": lambda seed: run_nystrom_failure_demo(8, 2, 2, seed),
}


@pytest.mark.parametrize("entry", sorted(SEED_ENTRIES))
class TestSeedsMustBeIntegers:
    @pytest.mark.parametrize("seed", [1.5, 2.0, "3", None, np.float64(4.0)])
    def test_non_integer_seed_is_named(self, entry, seed):
        with pytest.raises(DomainError, match=r"seed must be an integer, got"):
            SEED_ENTRIES[entry](seed)

    @pytest.mark.parametrize("seed", [7, -7, np.int64(7), np.uint64(2**64 - 1)])
    def test_integer_seeds_are_taken(self, entry, seed):
        SEED_ENTRIES[entry](seed)



def test_numpy_integer_seed_gives_the_int_result():
    assert derive_seed(np.int32(7), 8, "ros", 0) == derive_seed(7, 8, "ros", 0)
    assert ExperimentConfig(kernel=KernelSpec.sobolev1(), base_seed=np.int64(7)).base_seed == 7
    np.testing.assert_array_equal(
        draw_sketch("gaussian", 3, 8, np.int64(7)).matrix, draw_sketch("gaussian", 3, 8, 7).matrix
    )


class TestRunErrorVsN:
    def test_row_count_and_order(self):
        cfg = small_config()
        records = run_error_vs_n(cfg)
        assert len(records) == len(cfg.n_grid) * len(cfg.sketch_kinds) * cfg.trials
        keys = [(r.n, cfg.sketch_kinds.index(r.sketch), r.trial) for r in records]
        assert keys == sorted(keys)

    def test_rescaled_error_column(self):
        for r in run_error_vs_n(small_config()):
            assert abs(r.rescaled_error - r.error * rate_factor(KernelSpec.sobolev1(), r.n)) <= (
                1e-12 * max(1.0, r.rescaled_error)
            )

    def test_exact_arm_matches_direct_solve(self):
        from sketchkrr import build_kernel_matrix, complexity_profile, empirical_error, solve_krr

        # every trial, not only the first: uniform_grid shares K and the
        # profile across the trials of an n but draws each trial's sample
        cfg = small_config(sketch_kinds=("exact",), trials=2)
        for r in run_error_vs_n(cfg):
            sample = generate_data(cfg, r.n, _data_seed(cfg.base_seed, r.n, r.trial))
            K = build_kernel_matrix(cfg.kernel, sample.pts)
            prof = complexity_profile(K, r.n, cfg.sigma)
            fit = solve_krr(K, sample.y, 2 * prof.delta_n_sq, _head=prof._head)
            assert r.m == r.n
            assert r.error == empirical_error(fit.fitted, sample.fstar)

    def test_deterministic_repetition(self):
        assert run_error_vs_n(small_config()) == run_error_vs_n(small_config())

    def test_failing_trials_become_marker_rows(self):
        # two_delta_sq needs sigma > 0, so every trial fails but is recorded
        cfg = small_config(sigma=0.0)
        records = run_error_vs_n(cfg)
        assert len(records) == len(cfg.n_grid) * len(cfg.sketch_kinds) * cfg.trials
        assert all(math.isnan(r.error) for r in records)

    def test_numerical_errors_become_marker_rows(self, monkeypatch):
        import sketchkrr.bench as bench

        def failing(*args, **kwargs):
            raise NumericalError("injected")

        monkeypatch.setattr(bench, "solve_krr", failing)
        records = run_error_vs_n(small_config())
        assert [math.isnan(r.error) for r in records] == [r.sketch == "exact" for r in records]

    def test_programming_errors_propagate(self, monkeypatch):
        import sketchkrr.bench as bench

        def broken(*args, **kwargs):
            raise TypeError("injected")

        monkeypatch.setattr(bench, "complexity_profile", broken)
        with pytest.raises(TypeError, match="injected"):
            run_error_vs_n(small_config())

    def test_failing_profile_marks_every_arm_of_its_trial(self, monkeypatch):
        import sketchkrr.bench as bench

        calls = []

        def fail_second(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:  # n = 8, trial 1: loops run n, then trial
                raise NumericalError("injected")
            return complexity_profile(*args, **kwargs)

        monkeypatch.setattr(bench, "complexity_profile", fail_second)
        cfg = small_config(design="iid_uniform", sketch_kinds=("exact", "gaussian", "ros"))
        records = run_error_vs_n(cfg)
        assert len(records) == len(cfg.n_grid) * len(cfg.sketch_kinds) * cfg.trials
        markers = {(r.n, r.sketch, r.trial) for r in records if math.isnan(r.error)}
        assert markers == {(8, kind, 1) for kind in cfg.sketch_kinds}
        assert all(r.seed == derive_seed(cfg.base_seed, r.n, r.sketch, r.trial) for r in records)

    def test_timing_flag_populates_wall_time(self):
        cfg = small_config(n_grid=(8,), sketch_kinds=("exact",), trials=1)
        assert run_error_vs_n(cfg)[0].wall_time_ms == 0.0
        assert run_error_vs_n(cfg, timing=True)[0].wall_time_ms > 0.0


class TestPairedArms:
    KINDS = ("exact", "gaussian", "ros", "subsample")

    def spy(self, monkeypatch, name):
        import sketchkrr.bench as bench

        calls = []
        original = getattr(bench, name)

        def counted(*args, **kwargs):
            calls.append(None)
            return original(*args, **kwargs)

        monkeypatch.setattr(bench, name, counted)
        return calls

    def test_random_design_builds_once_per_trial(self, monkeypatch):
        data = self.spy(monkeypatch, "generate_data")
        builds = self.spy(monkeypatch, "build_kernel_matrix")
        profiles = self.spy(monkeypatch, "complexity_profile")
        cfg = small_config(design="iid_uniform", sketch_kinds=self.KINDS)
        run_error_vs_n(cfg)
        trials = len(cfg.n_grid) * cfg.trials
        assert len(data) == len(builds) == len(profiles) == trials

    def test_uniform_grid_builds_once_per_n(self, monkeypatch):
        data = self.spy(monkeypatch, "generate_data")
        builds = self.spy(monkeypatch, "build_kernel_matrix")
        profiles = self.spy(monkeypatch, "complexity_profile")
        cfg = small_config(sketch_kinds=self.KINDS)
        run_error_vs_n(cfg)
        assert len(data) == len(cfg.n_grid) * cfg.trials
        assert len(builds) == len(profiles) == len(cfg.n_grid)

    def test_arms_share_regularization_and_profile(self):
        cfg = small_config(design="irregular", kernel=KernelSpec.gaussian(0.25),
                           sketch_kinds=self.KINDS, n_grid=(16, 40))
        groups = {}
        for r in run_error_vs_n(cfg):
            groups.setdefault((r.n, r.trial), set()).add((r.lambda_n, r.delta_n_sq, r.d_n))
        assert len(groups) == len(cfg.n_grid) * cfg.trials
        assert all(len(values) == 1 for values in groups.values())
        # the trials themselves draw different data
        assert len({next(iter(v)) for v in groups.values()}) == len(groups)

    def test_arms_see_the_same_data(self, monkeypatch):
        import sketchkrr.bench as bench

        seen = []
        original = bench.solve_sketched_krr

        def recording(K, y, S, lambda_n):
            seen.append((S.kind, K.matrix.tobytes(), y.tobytes()))
            return original(K, y, S, lambda_n)

        monkeypatch.setattr(bench, "solve_sketched_krr", recording)
        cfg = small_config(design="iid_uniform", n_grid=(16,), trials=1, sketch_kinds=self.KINDS)
        run_error_vs_n(cfg)
        assert [kind for kind, _, _ in seen] == ["gaussian", "ros", "subsample"]
        assert len({(K, y) for _, K, y in seen}) == 1

    def test_timing_charges_shared_work_to_first_arm(self, monkeypatch):
        import types

        import sketchkrr.bench as bench

        # a clock that advances 1 ms per reading and 5 s per profile
        clock = [0.0]

        def perf_counter():
            clock[0] += 1e-3
            return clock[0]

        def slow_profile(*args, **kwargs):
            clock[0] += 5.0
            return complexity_profile(*args, **kwargs)

        monkeypatch.setattr(bench, "time", types.SimpleNamespace(perf_counter=perf_counter))
        monkeypatch.setattr(bench, "complexity_profile", slow_profile)
        cfg = small_config(design="iid_uniform", sketch_kinds=("exact", "gaussian", "ros"))
        records = run_error_vs_n(cfg, timing=True)
        # each row spans one clock reading; the trial's first row also spans
        # the profile, so the rows add up to the sweep's time
        for r in records:
            want = 5001.0 if r.sketch == "exact" else 1.0
            assert r.wall_time_ms == pytest.approx(want, abs=1e-6)


class TestExactArmRoutes:
    """Wherever a trial has a profile, on every design, the exact arm runs
    conjugate gradients preconditioned with the eigenpairs the profile
    holds: a Krylov head's Ritz pairs, or the full spectrum of the dense
    fallback (n < 32, or a head that gives way).  It factors K + 2*lam*I
    only with no profile (sigma = 0), and then in every trial.  The route
    spy counts a "factor" at each packed double factorization, the factor
    route's first step."""

    @pytest.mark.parametrize("trials", [1, 2, 4])
    def test_grid_factors_nothing_and_matches_a_direct_solve_bit_for_bit(self, monkeypatch, trials):
        # n = 8 profiles densely and n = 40 on a Krylov head; later trials
        # of a grid reuse the first one's K and profile
        import sketchkrr.bench as bench
        from sketchkrr import build_kernel_matrix, empirical_error, solve_krr

        solves = []
        original = bench.solve_krr

        def recording(K, y, lambda_n, **kwargs):
            fit = original(K, y, lambda_n, **kwargs)
            solves.append(fit)
            return fit

        monkeypatch.setattr(bench, "solve_krr", recording)
        routes = spy_routes(monkeypatch)
        cfg = small_config(kernel=KernelSpec.gaussian(0.25), n_grid=(8, 40),
                           sketch_kinds=("exact", "gaussian"), trials=trials)
        records = run_error_vs_n(cfg)
        exact = [r for r in records if r.sketch == "exact"]
        assert len(solves) == len(exact) == len(cfg.n_grid) * trials
        assert routes == ["cg"] * len(exact)
        for r, swept in zip(exact, solves):
            sample = generate_data(cfg, r.n, _data_seed(cfg.base_seed, r.n, r.trial))
            K = build_kernel_matrix(cfg.kernel, sample.pts)
            head = complexity_profile(K, r.n, cfg.sigma)._head
            fresh = solve_krr(K, sample.y, r.lambda_n, _head=head)
            np.testing.assert_array_equal(swept.fitted, fresh.fitted)
            assert r.error == empirical_error(fresh.fitted, sample.fstar)

    def test_random_design_solves_on_the_profile_at_every_n(self, monkeypatch):
        # n = 16 is below one head (4 * HEAD_START > n): its profile holds
        # K.eig()'s pairs; n = 40 holds a Krylov head
        routes = spy_routes(monkeypatch)
        cfg = small_config(design="irregular", kernel=KernelSpec.gaussian(0.25),
                           sketch_kinds=("exact", "gaussian"), n_grid=(16, 40))
        run_error_vs_n(cfg)
        assert routes == ["cg"] * (2 * cfg.trials)

    @pytest.mark.parametrize("design", ["uniform_grid", "irregular"])
    def test_sweep_without_a_profile_factors_every_trial(self, monkeypatch, design):
        routes = spy_routes(monkeypatch)
        cfg = small_config(design=design, kernel=KernelSpec.gaussian(0.25), sketch_kinds=("exact",),
                           n_grid=(40,), sigma=0.0, lambda_rule="fixed", lambda_fixed=0.01)
        run_error_vs_n(cfg)
        assert routes == ["factor"] * cfg.trials

    def test_dense_fallback_takes_at_most_two_iterations(self, monkeypatch):
        # sobolev1 at sigma = 0.01 gives way to K.eig() at n = 128 (d_n =
        # 43-46).  On the full spectrum the preconditioner is the inverse
        # up to a scale, so one iteration solves to rounding; that rounding,
        # about eps cond(K + 2 lam I) ||b||, sits at the size of dsposv's
        # test, and a second iteration then meets it
        import sketchkrr.solver as solver

        products = count_calls(monkeypatch, solver, "symv")
        routes = spy_routes(monkeypatch)
        cfg = small_config(design="iid_uniform", sketch_kinds=("exact",), sigma=0.01, n_grid=(128,))
        run_error_vs_n(cfg)
        assert routes == ["cg"] * cfg.trials
        assert len(products) <= 2 * cfg.trials

    @pytest.mark.parametrize("n", [8, 40])
    def test_every_profile_carries_its_eigenpairs(self, n):
        cfg = small_config(kernel=KernelSpec.gaussian(0.25), n_grid=(n,))
        for design in ("uniform_grid", "irregular"):
            shared = _shared_inputs(dataclasses.replace(cfg, design=design), n, 0, None)
            theta, V = shared.profile._head
            if n < 32:  # the dense fallback's pairs, not copied
                U, mu = shared.K.eig()
                assert theta is mu and V is U
            else:
                assert V.shape == (n, len(theta)) and len(theta) < n

    def test_sweep_without_exact_arm_factors_nothing(self, monkeypatch):
        routes = spy_routes(monkeypatch)
        run_error_vs_n(small_config(sketch_kinds=("gaussian", "ros")))
        assert routes == []

    def test_failing_factorization_marks_only_exact_rows(self, monkeypatch):
        # with no profile (sigma = 0) every exact solve factors
        import sketchkrr.solver as solver

        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("injected")

        monkeypatch.setattr(solver, "rfp_factor_shifted", failing)
        cfg = small_config(sketch_kinds=("exact", "gaussian", "ros"), trials=4,
                           sigma=0.0, lambda_rule="fixed", lambda_fixed=0.01)
        records = run_error_vs_n(cfg)
        assert len(records) == len(cfg.n_grid) * len(cfg.sketch_kinds) * cfg.trials
        for r in records:
            if r.sketch == "exact":
                assert math.isnan(r.error)
            else:
                assert math.isfinite(r.error) and math.isfinite(r.rescaled_error)


class TestGridExactOracle:
    """The grid sweep's exact arm against the dense oracle of
    ``tests/helpers.py``, on the shipped grid configs and on a grid whose
    profile gives way to K.eig() (sobolev1 at sigma = 0.002, d_n = 242).

    Conjugate gradients stop once the residual r of (K + 2 lam I) w =
    y / sqrt(n) meets dsposv's test, ||r||_inf <= t = ``_target``(||K +
    2 lam I||_F, w); the fitted values sqrt(n) K w then miss the exact
    ones by sqrt(n) ||K (K + 2 lam I)^-1 r||_2 <= sqrt(n) ||r||_2 <= n t.
    The worst case used 8.4e-4 of n t (gaussian, n = 1024).  The
    iteration counts are those of both trials, one BLAS thread or two."""

    @pytest.mark.parametrize(
        "name, n, overrides, iterations",
        [
            ("sobolev_curves", 256, {}, 5),
            ("sobolev_curves", 1024, {}, 5),
            ("gaussian_kernel_curves", 256, {}, 2),
            ("gaussian_kernel_curves", 1024, {}, 1),
            ("sobolev_curves", 1024, dict(sigma=0.002), 2),
        ],
        ids=["sobolev-256", "sobolev-1024", "gaussian-256", "gaussian-1024", "dense-fallback-1024"],
    )
    def test_fitted_values_match_the_dense_oracle(self, monkeypatch, name, n, overrides, iterations):
        import sketchkrr.bench as bench
        import sketchkrr.solver as solver
        from helpers import ridge_fitted_oracle
        from sketchkrr import build_kernel_matrix

        fits, products_so_far, original = [], [], bench.solve_krr
        products = count_calls(monkeypatch, solver, "symv")
        routes = spy_routes(monkeypatch)

        def recording(K, y, lambda_n, **kwargs):
            fits.append(original(K, y, lambda_n, **kwargs))
            products_so_far.append(len(products))
            return fits[-1]

        monkeypatch.setattr(bench, "solve_krr", recording)
        cfg = dataclasses.replace(
            load_config(CONFIG_DIR / f"{name}.cfg"), n_grid=(n,), sketch_kinds=("exact",), trials=2, **overrides
        )
        records = run_error_vs_n(cfg)
        assert routes == ["cg", "cg"]
        assert products_so_far == [iterations, 2 * iterations]
        for r, fit in zip(records, fits):
            sample = generate_data(cfg, n, _data_seed(cfg.base_seed, n, r.trial))
            K = build_kernel_matrix(cfg.kernel, sample.pts)
            norm = np.linalg.norm(K.matrix + 2.0 * r.lambda_n * np.eye(n))
            tolerance = n * solver._target(norm, fit.coefficients)
            want = ridge_fitted_oracle(K.matrix, sample.y, r.lambda_n)
            assert np.abs(fit.fitted - want).max() <= tolerance


class TestSweepLog:
    """What a sweep reports besides its records: each failure's exception,
    once per trial for a shared step and once per arm otherwise, and its
    rank-deficient sketched fits."""

    def test_shared_step_failure_is_named_once_per_trial(self):
        cfg = small_config(sigma=0.0)  # two_delta_sq needs sigma > 0
        log = _SweepLog()
        run_error_vs_n(cfg, _log=log)
        reason = "DomainError: lambda rule 'two_delta_sq' needs sigma > 0"
        assert log.failures == [
            f"n={n} trial {trial}, every arm: {reason}" for n in cfg.n_grid for trial in range(cfg.trials)
        ]

    def test_arm_failure_is_named_once_per_arm(self, monkeypatch):
        import sketchkrr.bench as bench

        def failing(*args, **kwargs):
            raise NumericalError("injected")

        monkeypatch.setattr(bench, "solve_krr", failing)
        cfg = small_config()
        log = _SweepLog()
        run_error_vs_n(cfg, _log=log)
        assert log.failures == [
            f"n={n} trial {trial}, exact arm: NumericalError: injected"
            for n in cfg.n_grid for trial in range(cfg.trials)
        ]
        assert (log.sketched, log.rank_deficient) == (len(cfg.n_grid) * cfg.trials, 0)

    def test_rank_deficient_sketched_fits_are_counted(self):
        from sketchkrr import solve_sketched_krr

        cfg = small_config(
            kernel=KernelSpec.gaussian(0.25), fstar="quad", design="irregular", sigma=0.125,
            n_grid=(64,), sketch_kinds=("exact", "subsample"), m_rule="logfour", trials=10,
            base_seed=606,
        )
        log = _SweepLog()
        records = run_error_vs_n(cfg, _log=log)
        assert records == run_error_vs_n(cfg)  # the log changes no record
        flagged = 0
        for trial in range(cfg.trials):
            shared = _shared_inputs(cfg, 64, trial, None)
            S = _arm_sketch(cfg, shared.profile, 64, "subsample", derive_seed(606, 64, "subsample", trial))
            flagged += solve_sketched_krr(shared.K, shared.sample.y, S, shared.lam).rank_deficient
        assert flagged > 0
        assert (log.failures, log.sketched, log.rank_deficient) == ([], cfg.trials, flagged)


class TestCsv:
    def test_header_names_record_fields_in_order(self):
        names = [f.name for f in dataclasses.fields(TrialRecord)]
        assert CSV_HEADER.split(",") == ["lambda" if f == "lambda_n" else f for f in names]

    def test_header_only_for_empty_records(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv([], path)
        assert path.read_bytes() == (CSV_HEADER + "\n").encode()

    def test_round_trip_identity(self, tmp_path):
        records = run_error_vs_n(small_config())
        path = tmp_path / "r.csv"
        write_csv(records, path)
        assert read_csv(path) == records

    def test_seventeen_digit_floats_round_trip(self, tmp_path):
        rec = TrialRecord(
            n=8, m=2, sketch="ros", trial=0, seed=123456789012345678,
            lambda_n=1 / 3, delta_n_sq=math.pi * 1e-7, d_n=2,
            error=2 / 7, rescaled_error=0.1, wall_time_ms=0.0,
        )
        path = tmp_path / "one.csv"
        write_csv([rec], path)
        assert read_csv(path) == [rec]

    def test_write_is_deterministic(self, tmp_path):
        records = run_error_vs_n(small_config())
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(records, p1)
        write_csv(records, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER + "\n1,2,gaussian,0,0,0.1\n")
        with pytest.raises(DomainError, match="line 2"):
            read_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("nope\n")
        with pytest.raises(DomainError, match="line 1"):
            read_csv(path)


class TestConfigParsing:
    TEXT = """
    # benchmark setup
    kernel = gaussian
    bandwidth = 0.25
    fstar = quad
    design = uniform-grid
    sigma = 1.0
    n_grid = 32, 64
    sketches = exact, ros
    m_rule = loggauss
    lambda_rule = two-delta-sq
    trials = 2
    seed = 5
    """

    def test_full_parse(self):
        cfg = parse_config(self.TEXT)
        assert cfg.kernel == KernelSpec.gaussian(0.25)
        assert cfg.fstar == "quad"
        assert cfg.design == "uniform_grid"
        assert cfg.n_grid == (32, 64)
        assert cfg.sketch_kinds == ("exact", "ros")
        assert cfg.m_rule == "loggauss"
        assert cfg.lambda_rule == "two_delta_sq"
        assert cfg.trials == 2 and cfg.base_seed == 5

    def test_unknown_key_names_line(self):
        with pytest.raises(DomainError, match="line 1"):
            parse_config("padding = 3")

    def test_missing_kernel(self):
        with pytest.raises(DomainError, match="kernel"):
            parse_config("sigma = 1.0")

    def test_polynomial_needs_degree(self):
        with pytest.raises(DomainError, match="degree"):
            parse_config("kernel = polynomial")

    def test_stray_hyperparameter_rejected(self):
        with pytest.raises(DomainError, match="cfg: gaussian kernel takes no degree"):
            parse_config("kernel = gaussian\nbandwidth = 0.25\ndegree = 3", source="cfg")

    @pytest.mark.parametrize("h", ["inf", "1e300", "1e-200"])
    def test_bandwidth_that_breaks_the_kernel_names_source(self, h):
        with pytest.raises(DomainError, match="^cfg: gaussian kernel needs bandwidth"):
            parse_config(f"kernel = gaussian\nbandwidth = {h}", source="cfg")

    @pytest.mark.parametrize(
        "line, key",
        [
            ("trials = x", "trials"),
            ("degree = 2.5", "degree"),
            ("n_grid = 8,,16", "n_grid"),
            ("sigma = abc", "sigma"),
        ],
    )
    def test_bad_value_names_source_line_and_key(self, line, key):
        text = f"kernel = polynomial\n{line}\n"
        with pytest.raises(DomainError, match=f"^cfg: line 2: .*'{key}'"):
            parse_config(text, source="cfg")

    def test_shipped_configs_load_as_written(self):
        paths = sorted(CONFIG_DIR.glob("*.cfg"))
        assert paths
        for path in paths:
            written = {}
            for line in path.read_text().splitlines():
                key, sep, value = line.split("#", 1)[0].partition("=")
                if sep:
                    written[key.strip()] = value.strip()
            cfg = load_config(path)
            assert cfg.kernel.kind == written["kernel"], path
            bandwidth = written.get("bandwidth")
            assert cfg.kernel.bandwidth == (float(bandwidth) if bandwidth else None), path
            degree = written.get("degree")
            assert cfg.kernel.degree == (int(degree) if degree else None), path
            assert cfg.design == written["design"].replace("-", "_"), path
            sketches = tuple(v.strip() for v in written["sketches"].split(","))
            assert cfg.sketch_kinds == sketches, path

    def test_sweep_is_pure_function_of_text(self):
        a = run_error_vs_n(parse_config(self.TEXT))
        b = run_error_vs_n(parse_config(self.TEXT))
        assert a == b


class TestSummaries:
    def test_mean_and_stderr(self):
        cfg = small_config(n_grid=(8,), sketch_kinds=("exact",), trials=4)
        records = run_error_vs_n(cfg)
        from sketchkrr import summarize_records

        (summary,) = summarize_records(records)
        errs = np.array([r.error for r in records])
        assert summary.trials == 4
        np.testing.assert_allclose(summary.mean_error, errs.mean(), rtol=1e-15)
        np.testing.assert_allclose(
            summary.stderr_error, errs.std(ddof=1) / 2.0, rtol=1e-12
        )

    def test_marker_rows_skipped(self):
        from sketchkrr import summarize_records

        cfg = small_config(sigma=0.0)  # every trial fails under two_delta_sq
        assert summarize_records(run_error_vs_n(cfg)) == []

    def test_flatness_ratio_uses_upper_half(self):
        from sketchkrr import flatness_ratio

        cfg = small_config(n_grid=(8, 16, 32, 64), sketch_kinds=("exact",), trials=3)
        records = run_error_vs_n(cfg)
        ratio = flatness_ratio(records, "exact")
        means = {
            n: np.mean([r.rescaled_error for r in records if r.n == n]) for n in (32, 64)
        }
        np.testing.assert_allclose(
            ratio, max(means.values()) / min(means.values()), rtol=1e-12
        )

    def test_flatness_ratio_even_grid_takes_top_half(self):
        from sketchkrr import flatness_ratio

        # the second-smallest n (16) lies far outside the range of the top two
        rescaled = {8: 1.0, 16: 10.0, 32: 2.0, 64: 3.0}
        records = [
            TrialRecord(
                n=n, m=n, sketch="exact", trial=0, seed=0, lambda_n=0.1,
                delta_n_sq=0.05, d_n=2, error=v / n, rescaled_error=v, wall_time_ms=0.0,
            )
            for n, v in rescaled.items()
        ]
        assert flatness_ratio(records, "exact") == 1.5
        assert flatness_ratio(records[:3], "exact") == 5.0  # odd: the middle one counts

    def test_emitted_plot_script_compiles(self, tmp_path):
        from sketchkrr import emit_plot_script

        script = emit_plot_script(tmp_path / "results.csv")
        compile(script, "<plot script>", "exec")

    def test_emitted_plot_script_plots_the_summaries(self, tmp_path, monkeypatch, capsys):
        # run under a stub matplotlib.pyplot that records each errorbar call
        from sketchkrr import emit_plot_script

        records = run_error_vs_n(small_config(sketch_kinds=("exact", "gaussian", "ros")))
        records[1] = dataclasses.replace(records[1], error=math.nan)  # a marker row
        path = tmp_path / "results.csv"
        write_csv(records, path)
        plotted, saved = {}, []

        class Stub:
            def errorbar(self, x, y, yerr, label, **_):
                plotted[label] = (list(x), list(y), list(yerr))

            def savefig(self, name, **_):
                saved.append(name)

            def __getattr__(self, _):
                return lambda *args, **kwargs: None

        pyplot = types.ModuleType("matplotlib.pyplot")
        pyplot.subplots = lambda **_: (Stub(), Stub())
        matplotlib = types.ModuleType("matplotlib")
        matplotlib.pyplot = pyplot
        monkeypatch.setitem(sys.modules, "matplotlib", matplotlib)
        monkeypatch.setitem(sys.modules, "matplotlib.pyplot", pyplot)
        out = str(tmp_path / "errors.png")
        exec(compile(emit_plot_script(path, out), "<plot script>", "exec"), {"__name__": "__main__"})

        expected = {}
        for s in summarize_records(read_csv(path)):
            arm = expected.setdefault(s.sketch, ([], [], []))
            for column, value in zip(arm, (s.n, s.mean_error, s.stderr_error)):
                column.append(value)
        assert plotted == expected
        assert sorted(plotted) == ["exact", "gaussian", "ros"]
        assert saved == [out] and capsys.readouterr().out == f"wrote {out}\n"


class TestNystromFailureDemo:
    def test_missed_block_is_insensitive(self):
        # seed chosen so the sub-sample draws only block-1 rows
        for seed in range(20):
            result = run_nystrom_failure_demo(64, 4, 6, seed)
            if result.missed_second_block:
                assert result.subsample_block2_sensitivity == 0.0
                assert result.gaussian_block2_sensitivity > 1e-6
                break
        else:
            pytest.fail("no miss in 20 seeds; expected ~70% miss rate")

    def test_full_subsample_cannot_miss(self):
        # m = n keeps every row, and the premise then allows only k = 1
        result = run_nystrom_failure_demo(32, 32, 1, 0)
        assert not result.missed_second_block

    def test_block_size_premise_enforced(self):
        # k must stay within ceil((n/m) ln 2)
        with pytest.raises(DomainError):
            run_nystrom_failure_demo(64, 32, 6, 0)

    def test_deterministic(self):
        assert run_nystrom_failure_demo(64, 4, 6, 3) == run_nystrom_failure_demo(64, 4, 6, 3)

    @pytest.mark.parametrize(
        "args, match",
        [
            ((256.5, 8, 16, 0), "n must be an integer >= 1, got 256.5"),
            ((256, 8.0, 16, 0), "m must be an integer >= 1, got 8.0"),
            ((256, 8, 16.0, 0), "k must be an integer >= 1, got 16.0"),
            ((256, 8, 0, 0), "k must be an integer >= 1, got 0"),
            ((256, 8, 16, 1.5), "seed must be an integer, got 1.5"),
            ((256, 8, 16, "0"), "seed must be an integer, got '0'"),
        ],
    )
    def test_bad_counts_named_before_any_work(self, monkeypatch, args, match):
        import sketchkrr.bench as bench

        def unexpected(*_):
            raise AssertionError("the kernel matrix was profiled")

        monkeypatch.setattr(bench, "complexity_profile", unexpected)
        with pytest.raises(DomainError, match=match):
            run_nystrom_failure_demo(*args)


def _write_then_read(path, text):
    path.write_text(text)
    return read_csv(path)


# Each remaining raise of the module, by the input that reaches it: a
# callable of a temporary directory, the exception and a pattern of its message.
BAD_INPUTS = {
    "config-kernel-not-a-spec": (
        lambda d: small_config(kernel="sobolev1"), DomainError, "kernel must be a KernelSpec"),
    "config-unknown-design": (lambda d: small_config(design="grid"), DomainError, "unknown design 'grid'"),
    "config-negative-sigma": (lambda d: small_config(sigma=-1.0), DomainError, "sigma must be finite and >= 0, got -1.0"),
    "config-empty-n-grid": (lambda d: small_config(n_grid=()), DomainError, "n_grid must be nonempty"),
    "config-unknown-kind": (
        lambda d: small_config(sketch_kinds=("exact", "sparse")), DomainError, "unknown sketch kind 'sparse'"),
    "config-unknown-m-rule": (lambda d: small_config(m_rule="sqrt"), DomainError, "unknown m_rule 'sqrt'"),
    "config-statdim-without-c": (
        lambda d: small_config(m_rule="statdim"), DomainError, "m_rule 'statdim' needs c_statdim > 0"),
    "config-unknown-lambda-rule": (
        lambda d: small_config(lambda_rule="cv"), DomainError, "unknown lambda_rule 'cv'"),
    "config-text-sigma": (lambda d: small_config(sigma="x"), DomainError, "sigma must be finite and >= 0, got 'x'"),
    "config-none-sigma": (lambda d: small_config(sigma=None), DomainError, "sigma must be finite and >= 0, got None"),
    "config-text-c-statdim": (
        lambda d: small_config(c_statdim="x"), DomainError, "c_statdim must be finite and > 0, got 'x'"),
    "config-text-lambda-fixed": (
        lambda d: small_config(lambda_fixed="x"), DomainError, "lambda_fixed must be finite and > 0, got 'x'"),
    "fstar-unknown": (lambda d: fstar_values("cubic", [0.5]), DomainError, "unknown fstar 'cubic'"),
    "fstar-text-points": (lambda d: fstar_values("quad", "x"), DomainError, "x must be numeric"),
    "nystrom-m-above-n": (
        lambda d: run_nystrom_failure_demo(8, 9, 1, 0), DomainError, "need 1 <= m <= n, got m=9, n=8"),
    "nystrom-k-above-n-1": (
        lambda d: run_nystrom_failure_demo(8, 2, 8, 0), DomainError, "need 1 <= k <= n - 1, got k=8"),
    "flatness-no-records": (lambda d: flatness_ratio([], "ros"), DomainError, "no records for sketch kind 'ros'"),
    "flatness-zero-mean": (
        lambda d: flatness_ratio([TrialRecord(8, 8, "ros", 0, 0, 0.1, 0.05, 2, 0.0, 0.0, 0.0)], "ros"),
        DomainError, "flatness ratio of 'ros' needs positive means, got 0.0"),
    "csv-write-to-a-directory": (lambda d: write_csv([], d), OSError, "cannot write results to"),
    "csv-read-missing-file": (lambda d: read_csv(d / "missing.csv"), OSError, "cannot read results from"),
    "csv-unparsable-field": (
        lambda d: _write_then_read(d / "bad.csv", f"{CSV_HEADER}\n{','.join(['x'] * 11)}\n"),
        DomainError, r"bad\.csv: line 2: invalid literal for int\(\)"),
    "config-line-without-equals": (
        lambda d: parse_config("kernel sobolev1"), DomainError, "<config>: line 1: expected 'key = value'"),
    "config-duplicate-key": (
        lambda d: parse_config("kernel = sobolev1\nkernel = gaussian"), DomainError,
        "<config>: line 2: duplicate key 'kernel'"),
    "config-empty-value": (
        lambda d: parse_config("kernel ="), DomainError, "<config>: line 1: empty value for 'kernel'"),
    "rate-text-spec": (lambda d: rate_factor("x", 10), DomainError, "spec must be a KernelSpec, got str"),
    "population-text-spec": (
        lambda d: population_eigenvalues("x", 5), DomainError, "spec must be a KernelSpec, got str"),
    "data-text-config": (
        lambda d: generate_data("x", 8, 0), DomainError, "config must be an ExperimentConfig, got str"),
    "sweep-text-config": (
        lambda d: run_error_vs_n("x"), DomainError, "config must be an ExperimentConfig, got str"),
    "summary-text-records": (
        lambda d: summarize_records("x"), DomainError, "record must be a TrialRecord, got str"),
    "flatness-text-records": (
        lambda d: flatness_ratio("x", "ros"), DomainError, "record must be a TrialRecord, got str"),
    "csv-text-records": (
        lambda d: write_csv("x", d / "out.csv"), DomainError, "record must be a TrialRecord, got str"),
    "csv-summary-record": (
        lambda d: write_csv([ArmSummary(1, "ros", 1, 1.0, 0.0, 1.0, 0.0)], d / "out.csv"), DomainError,
        "record must be a TrialRecord, got ArmSummary"),
}


# A wrong-type argument at each boundary that once let it escape as a bare
# AttributeError or TypeError: a callable of a temporary directory and a
# pattern of the message that names the argument.
WRONG_TYPES = {
    "parse-config-text": (lambda d: parse_config(object()), "text must be a str, got object"),
    "summary-records": (lambda d: summarize_records(object()), "records must be an Iterable, got object"),
    "flatness-records": (lambda d: flatness_ratio(object(), "ros"), "records must be an Iterable, got object"),
    "csv-write-records": (
        lambda d: write_csv(object(), d / "out.csv"), "records must be an Iterable, got object"),
    "rate-exponent-n-grid": (
        lambda d: rate_exponent_check(KernelSpec.sobolev1(), object(), 1.0),
        "n_grid must be an Iterable, got object"),
    "load-config-path": (lambda d: load_config(object()), "path must be a str or os.PathLike, got object"),
    "csv-read-path": (lambda d: read_csv(object()), "path must be a str or os.PathLike, got object"),
}


# Arguments that once escaped as a bare ValueError or TypeError, reported
# the wrong thing ("unknown sketch kind 'e'"), or returned a plot script
# that calls read_csv(3): a call and a pattern of the message that names
# the argument.
UNNAMED_ERRORS = {
    "kernel-eval-shapes": (
        lambda: kernel_eval(KernelSpec.sobolev1(), np.ones(3), np.ones(4)),
        r"u and v must broadcast together, got shapes \(3,\) and \(4,\)"),
    "config-n-grid-int": (
        lambda: ExperimentConfig(kernel=KernelSpec.sobolev1(), n_grid=64), "n_grid must be a sequence, got 64"),
    "config-n-grid-none": (
        lambda: ExperimentConfig(kernel=KernelSpec.sobolev1(), n_grid=None),
        "n_grid must be a sequence, got None"),
    "config-kinds-int": (
        lambda: ExperimentConfig(kernel=KernelSpec.sobolev1(), sketch_kinds=3),
        "sketch_kinds must be a sequence, got 3"),
    "config-kinds-text": (
        lambda: ExperimentConfig(kernel=KernelSpec.sobolev1(), sketch_kinds="exact"),
        "sketch_kinds must be a sequence, got 'exact'"),
    "plot-script-path": (lambda: emit_plot_script(3), "path must be a str or os.PathLike, got int"),
}


@pytest.mark.parametrize("case", sorted(UNNAMED_ERRORS))
def test_unnamed_error_is_a_named_domain_error(case):
    call, match = UNNAMED_ERRORS[case]
    with pytest.raises(DomainError, match=match):
        call()


@pytest.mark.parametrize("case", sorted(WRONG_TYPES))
def test_wrong_type_argument_is_named(case, tmp_path):
    call, match = WRONG_TYPES[case]
    with pytest.raises(DomainError, match=match):
        call(tmp_path)


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_raises_a_named_error(case, tmp_path):
    call, error, match = BAD_INPUTS[case]
    with pytest.raises(error, match=match):
        call(tmp_path)
