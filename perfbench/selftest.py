"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py [--seconds 2]

Checks, from the root of a checkout:

1. Failure accounting: a sweep that can never succeed (sigma = 0 with the
   two_delta_sq lambda rule; every trial is a marker row) reports
   failed_frac = 1 and an incorrect run.
2. Two traced runs of each workload at the same seed report identical exact
   counts (every *_calls, *_n3, *_bytes and kernels.eig_distinct), are
   correct (identical untraced/traced outputs, oracle matches, no negative
   self time), and report no negative *_self_s.
3. In a directory holding only BENCHMARK.json and the benchmark's files,
   the command exits nonzero without printing a result.

Exits nonzero on the first failed check.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT_SUFFIXES = ("_calls", "_n3", "_bytes")


def bench(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def run_module_setup() -> None:
    """Pin BLAS threads and import the package from src/, as run.py does."""
    import run

    run.pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))


def check_failure_accounting() -> None:
    import run
    import sketchkrr as sk
    from workloads import Sweep

    run.OUT_DIR.mkdir(exist_ok=True)
    # sigma = 0 leaves delta_n undefined, so every trial is a marker row
    never = Sweep("never-succeeds", 0, 1.0, 1, kernel=sk.KernelSpec.sobolev1(), sigma=0.0,
                  n_grid=(64,), sketch_kinds=("exact", "gaussian"), lambda_rule="two_delta_sq")
    state = never.setup(0)
    untraced, traced, tracer = run.paired_passes(never, state, 3)
    correct, failed, _, quality = run.check_outputs(never, state, traced.ops, untraced, traced, tracer)
    frac = quality["failed_frac"][0]
    assert frac == 1.0 and failed == len(traced.ops) == 6 and not correct, (frac, failed, correct)
    print(f"ok: a sweep that cannot succeed reports failed_frac = {frac}")


def traced_result(workload: str, seconds: str) -> dict:
    proc = bench(["--workload", workload, "--seed", "7", "--seconds", seconds, "--trace", "1"])
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_traced_runs(seconds: str) -> None:
    from workloads import WORKLOADS

    for workload in WORKLOADS:
        first, second = (traced_result(workload, seconds) for _ in range(2))
        for result in (first, second):
            assert result["correct"], f"{workload}: traced run not correct"
        exact = [name for name in first["metrics"]
                 if name.endswith(EXACT_SUFFIXES) or name == "kernels.eig_distinct"]
        differ = [name for name in exact
                  if first["metrics"][name]["value"] != second["metrics"][name]["value"]]
        assert not differ, f"{workload}: exact counts differ between traced runs: {differ}"
        negative = [name for name, m in first["metrics"].items()
                    if name.endswith("_self_s") and m["value"] < 0]
        assert not negative, f"{workload}: negative self time: {negative}"
        print(f"ok: {workload}: {len(exact)} exact counts repeat, self times >= 0")


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench(["--workload", "grid-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
                     cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stdout
    print(f"ok: without src/ the command exits {proc.returncode} and prints no result")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", default="2", help="--seconds of each traced run")
    args = parser.parse_args(argv)
    run_module_setup()
    check_failure_accounting()
    check_traced_runs(args.seconds)
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
