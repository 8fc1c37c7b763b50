import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from sketchkrr import (
    CSV_HEADER,
    DomainError,
    ExperimentConfig,
    KernelSpec,
    NumericalError,
    TrialRecord,
    complexity_profile,
    derive_seed,
    fstar_values,
    generate_data,
    load_config,
    parse_config,
    rate_factor,
    read_csv,
    run_error_vs_n,
    run_nystrom_failure_demo,
    write_csv,
)
from sketchkrr.bench import _data_seed

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


class TestTargetsAndRates:
    def test_fstar_values(self):
        assert fstar_values("abs_shift", 0.5) == 0.5
        assert fstar_values("quad", 0.5) == -0.5

    def test_rate_factors(self):
        assert rate_factor(KernelSpec.sobolev1(), 64) == 64 ** (2 / 3)
        assert rate_factor(KernelSpec.gaussian(0.25), 64) == 64 / math.sqrt(math.log(64))
        assert rate_factor(KernelSpec.polynomial(2), 64) == 64.0


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
            prof = complexity_profile(K.eigenvalues, r.n, cfg.sigma)
            fit = solve_krr(K, sample.y, 2 * prof.delta_n_sq)
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


class TestGridExactFactor:
    """A uniform grid's exact arm factors K + 2*lam*I at most twice per n
    (trial 0's own, then the one kept from trial 1 on); a random design
    factors once per trial."""

    @staticmethod
    def count_factorizations(monkeypatch):
        import sketchkrr.solver as solver

        calls = []
        original = solver.cho_factor_shifted

        def counted(*args, **kwargs):
            calls.append(args[0].shape[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(solver, "cho_factor_shifted", counted)
        return calls

    @pytest.mark.parametrize("trials", [1, 2, 4])
    def test_grid_factors_at_most_twice_per_n_with_unchanged_bits(self, monkeypatch, trials):
        import sketchkrr.bench as bench
        from sketchkrr import build_kernel_matrix, empirical_error, solve_krr

        solves = []
        original = bench.solve_krr

        def recording(K, y, lambda_n, **kwargs):
            fit = original(K, y, lambda_n, **kwargs)
            solves.append(fit)
            return fit

        monkeypatch.setattr(bench, "solve_krr", recording)
        factorizations = self.count_factorizations(monkeypatch)
        cfg = small_config(kernel=KernelSpec.gaussian(0.25), n_grid=(8, 40),
                           sketch_kinds=("exact", "gaussian"), trials=trials)
        records = run_error_vs_n(cfg)
        assert factorizations == [n for n in cfg.n_grid for _ in range(min(trials, 2))]
        exact = [r for r in records if r.sketch == "exact"]
        assert len(solves) == len(exact) == len(cfg.n_grid) * trials
        for r, kept in zip(exact, solves):
            sample = generate_data(cfg, r.n, _data_seed(cfg.base_seed, r.n, r.trial))
            K = build_kernel_matrix(cfg.kernel, sample.pts)
            fresh = solve_krr(K, sample.y, r.lambda_n)
            np.testing.assert_array_equal(kept.fitted, fresh.fitted)
            assert r.error == empirical_error(fresh.fitted, sample.fstar)

    def test_random_design_factors_once_per_trial(self, monkeypatch):
        factorizations = self.count_factorizations(monkeypatch)
        cfg = small_config(design="irregular", kernel=KernelSpec.gaussian(0.25),
                           sketch_kinds=("exact", "gaussian"), n_grid=(16, 40))
        run_error_vs_n(cfg)
        assert factorizations == [n for n in cfg.n_grid for _ in range(cfg.trials)]

    def test_sweep_without_exact_arm_factors_nothing(self, monkeypatch):
        factorizations = self.count_factorizations(monkeypatch)
        run_error_vs_n(small_config(sketch_kinds=("gaussian", "ros")))
        assert factorizations == []

    def test_failing_factorization_marks_only_exact_rows(self, monkeypatch):
        import sketchkrr.solver as solver

        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("injected")

        monkeypatch.setattr(solver, "cho_factor_shifted", failing)
        cfg = small_config(sketch_kinds=("exact", "gaussian", "ros"), trials=4)
        records = run_error_vs_n(cfg)
        assert len(records) == len(cfg.n_grid) * len(cfg.sketch_kinds) * cfg.trials
        for r in records:
            if r.sketch == "exact":
                assert math.isnan(r.error)
            else:
                assert math.isfinite(r.error) and math.isfinite(r.rescaled_error)

    def test_grid_timing_charges_the_factor_to_the_row_that_builds_it(self, monkeypatch):
        import types

        import sketchkrr.bench as bench

        # a clock that advances 1 ms per reading and 5 s per kept factor
        clock = [0.0]
        original = bench._factor_krr

        def perf_counter():
            clock[0] += 1e-3
            return clock[0]

        def slow_factor(*args, **kwargs):
            clock[0] += 5.0
            return original(*args, **kwargs)

        monkeypatch.setattr(bench, "time", types.SimpleNamespace(perf_counter=perf_counter))
        monkeypatch.setattr(bench, "_factor_krr", slow_factor)
        cfg = small_config(n_grid=(8,), sketch_kinds=("gaussian", "exact"), trials=3)
        records = run_error_vs_n(cfg, timing=True)
        for r in records:
            want = 5001.0 if (r.sketch, r.trial) == ("exact", 1) else 1.0
            assert r.wall_time_ms == pytest.approx(want, abs=1e-6)


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
