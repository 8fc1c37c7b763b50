import json

import pytest

from sketchkrr import bench, draw_sketch, read_csv
from sketchkrr.cli import main

CONFIG_TEXT = """\
kernel = sobolev1
fstar = abs_shift
design = uniform_grid
sigma = 1.0
n_grid = 8,16
sketches = exact,gaussian
m_rule = cuberoot
lambda_rule = two_delta_sq
trials = 2
seed = 4
"""


class TestCriticalRadius:
    ARGS = [
        "critical-radius", "--kernel", "sobolev1", "--n", "64",
        "--sigma", "1", "--design", "uniform-grid",
    ]

    def test_text_output(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "delta_n_sq=" in out and "d_n=" in out

    def test_deterministic(self, capsys):
        main(self.ARGS)
        first = capsys.readouterr().out
        main(self.ARGS)
        assert capsys.readouterr().out == first

    def test_json_matches_library(self, capsys):
        import numpy as np

        from sketchkrr import DesignPoints, KernelSpec, build_kernel_matrix, complexity_profile

        assert main(self.ARGS + ["--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        K = build_kernel_matrix(
            KernelSpec.sobolev1(), DesignPoints(np.arange(1, 65) / 64)
        )
        profile = complexity_profile(K.eigenvalues, 64, 1.0)
        assert payload["delta_n_sq"] == pytest.approx(profile.delta_n_sq, rel=1e-12)
        assert payload["d_n"] == profile.d_n


class TestFit:
    def test_smoke_ros(self, capsys):
        code = main(
            [
                "fit", "--kernel", "gaussian", "--bandwidth", "0.25", "--n", "128",
                "--sketch", "ros", "--m-rule", "loggauss", "--seed", "7",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1
        assert "error=" in out[0]

    def test_json(self, capsys):
        assert main(
            ["fit", "--kernel", "sobolev1", "--n", "32", "--sketch", "exact", "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 32 and payload["sketch"] == "exact"

    def test_missing_bandwidth_is_usage_error(self, capsys):
        assert main(["fit", "--kernel", "gaussian", "--n", "16"]) == 2

    def test_fixed_rules(self, capsys):
        code = main(
            [
                "fit", "--kernel", "sobolev1", "--n", "32", "--sketch", "subsample",
                "--m-rule", "fixed", "--m-fixed", "6",
                "--lambda-rule", "fixed", "--lambda", "0.05",
                "--format", "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["m"] == 6 and payload["lambda_n"] == 0.05


class TestOneTrialPath:
    """fit, critical-radius and check-sketch work on trial 0 of one config."""

    ARGS = [
        "--kernel", "gaussian", "--bandwidth", "0.25", "--sigma", "0.125",
        "--n", "200", "--seed", "0", "--format", "json",
    ]

    @staticmethod
    def run_json(argv, capsys):
        assert main(argv) == 0
        return json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("design", ["irregular", "iid-uniform"])
    def test_subcommands_agree_on_random_designs(self, design, capsys):
        args = self.ARGS + ["--design", design]
        radius = self.run_json(["critical-radius", *args], capsys)
        fit = self.run_json(["fit", *args], capsys)
        check = self.run_json(["check-sketch", *args], capsys)
        assert fit["delta_n_sq"] == radius["delta_n_sq"]
        assert check["delta_n"] == radius["delta_n"]
        assert fit["d_n"] == radius["d_n"] == check["d_n"]

    def test_subcommands_agree_on_a_failed_trial(self, capsys):
        # the default lambda rule, two_delta_sq, needs sigma > 0
        args = ["--kernel", "sobolev1", "--n", "30", "--sigma", "0"]
        for command in ("fit", "critical-radius", "check-sketch"):
            assert main([command, *args]) == 1, command
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: lambda rule 'two_delta_sq' needs sigma > 0\n"

    def test_check_sketch_draws_the_fit_sketch(self, monkeypatch, capsys):
        calls = []

        def spy(*args):
            calls.append(args)
            return draw_sketch(*args)

        monkeypatch.setattr(bench, "draw_sketch", spy)
        args = self.ARGS + ["--design", "irregular", "--sketch", "ros", "--m", "12"]
        fit = self.run_json(["fit", "--m-rule", "fixed", *args], capsys)
        check = self.run_json(["check-sketch", *args], capsys)
        assert fit["m"] == check["m"] == 12
        assert len(calls) == 2 and calls[0] == calls[1]


class TestUsageErrors:
    @pytest.mark.parametrize(
        "flags",
        [
            ["--kernel", "sobolev1", "--m-rule", "fixed"],  # no --m-fixed
            ["--kernel", "gaussian", "--bandwidth", "0.25", "--degree", "3"],
            ["--kernel", "polynomial"],  # no --degree
            # bandwidths whose 2*h*h is not a positive finite float
            ["--kernel", "gaussian", "--bandwidth", "inf"],
            ["--kernel", "gaussian", "--bandwidth", "1e300"],
            ["--kernel", "gaussian", "--bandwidth", "1e-200"],
        ],
    )
    def test_invalid_config_is_usage_error(self, flags, capsys):
        assert main(["fit", "--n", "16", *flags]) == 2
        assert capsys.readouterr().err.startswith("usage error: ")

    def test_invalid_bench_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(CONFIG_TEXT.replace("kernel = sobolev1", "kernel = gaussian\nbandwidth = inf"))
        assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and "bad.cfg" in err
        assert not (tmp_path / "o.csv").exists()

    def test_unknown_flag(self, capsys):
        assert main(["critical-radius", "--kernel", "sobolev1", "--n", "8", "--frob"]) == 2

    def test_unknown_subcommand(self, capsys):
        assert main(["transmogrify"]) == 2

    def test_missing_required(self, capsys):
        assert main(["critical-radius", "--kernel", "sobolev1"]) == 2


class TestBench:
    def test_runs_and_is_byte_identical(self, tmp_path, capsys):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(CONFIG_TEXT)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["bench", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["bench", "--config", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert len(read_csv(out1)) == 2 * 2 * 2
        assert capsys.readouterr().err == ""  # no failed trials to summarize

    def test_all_trials_failing_exits_nonzero(self, tmp_path, capsys):
        # lambda rule two_delta_sq needs sigma > 0, so every trial fails
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(CONFIG_TEXT.replace("sigma = 1.0", "sigma = 0"))
        out = tmp_path / "o.csv"
        assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "8 of 8 trials failed" in err
        assert len(read_csv(out)) == 8

    def test_some_trials_failing_are_summarized(self, tmp_path, capsys):
        # with sigma = 0 the statdim rule fails the sketched arm only
        text = CONFIG_TEXT.replace("sigma = 1.0", "sigma = 0")
        text = text.replace("m_rule = cuberoot", "m_rule = statdim\nc_statdim = 2")
        text = text.replace("lambda_rule = two_delta_sq", "lambda_rule = fixed\nlambda_fixed = 0.01")
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(text)
        assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 0
        assert "4 of 8 trials failed" in capsys.readouterr().err

    def test_missing_config_is_runtime_error(self, tmp_path, capsys):
        assert main(["bench", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "o.csv")]) == 1
        assert "error" in capsys.readouterr().err


class TestCheckSketchAndDemo:
    def test_check_sketch_text(self, capsys):
        code = main(
            [
                "check-sketch", "--kernel", "sobolev1", "--n", "64", "--sketch", "gaussian",
                "--m", "24", "--seed", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "lhs_isometry=" in out and "passed=" in out

    def test_check_sketch_json(self, capsys):
        assert main(
            [
                "check-sketch", "--kernel", "sobolev1", "--n", "64", "--sketch", "ros",
                "--m", "32", "--format", "json",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) >= {"lhs_isometry", "lhs_tail", "delta_n", "c_threshold", "passed"}

    def test_demo(self, capsys):
        assert main(["demo-nystrom-failure", "--n", "64", "--m", "4", "--k", "6", "--seed", "1"]) == 0
        assert "missed_second_block=" in capsys.readouterr().out
