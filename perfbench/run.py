"""Benchmark of sketchkrr, driven through its public API.

    python3 perfbench/run.py --workload grid-sweep --seed 20240807 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ``src/``
there, and the command fails (exit 2, no result) when it is missing.

``--trace 0`` measures the end-to-end metrics with tracing off: set-up
time (median of several fresh processes), throughput, op latency, per-arm
latency and peak memory.  It then replays the first unit of work untraced
and traced, requires byte-identical outputs, and checks the traced calls
against dense oracles.  ``--trace 1`` runs the same work twice, untraced
and then traced, and reports the per-layer metrics of the traced pass, the
tracing overhead between the two, and the same output and oracle checks.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
report every metric by name with its unit and sample count.  Those lines
also carry metrics that have no bound in BENCHMARK.json: ``failed_frac``,
``err_ratio_max``, ``cert_pass_frac`` and the latency of the arms that not
every workload runs (``arm_ms_p50.exact``, ``arm_ms_p50.subsample``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_SAMPLES = 5
# Two BLAS threads on the two-core reference machine made the mid-size
# products of most ops slower and far noisier (thread wake-up between short
# calls); one thread was as fast on grid-sweep and certify-fit.
BLAS_THREADS = 1

# units of the metrics a run prints that BENCHMARK.json does not list
UNLISTED_UNITS = {
    "arm_ms_p50.exact": "ms",
    "arm_ms_p50.subsample": "ms",
    "failed_frac": "ratio",
    "err_ratio_max": "ratio",
    "cert_pass_frac": "ratio",
}


def load_spec() -> dict:
    """BENCHMARK.json: the names and units of the reported metrics."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="size of the measured work, in seconds on the reference machine")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up and exit (one sample of setup_s)")
    return parser.parse_args(argv)


def pin_blas_threads() -> int:
    """Fix the BLAS thread count before numpy loads; returns it."""
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def machine_facts(threads: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "loadavg": os.getloadavg(),
    }


def time_setups(workload: str, seed: int) -> list[float]:
    """Wall time of fresh processes that import, generate inputs and warm up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        # a pipe makes run() wake on the child's exit; waiting on a timeout
        # alone polls at up to 50 ms and rounds the sample up to that step
        subprocess.run(cmd, check=True, stdout=subprocess.PIPE, timeout=120)
        samples.append(time.perf_counter() - start)
    return samples


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def arm_latency(ops, arm: str) -> tuple[float, int]:
    """Median op time of one arm, averaged over its sketch sizes, and its sample count."""
    sizes = sorted({op.m for op in ops if op.arm == arm})
    medians = [statistics.median(op.ms for op in ops if op.arm == arm and op.m == m) for m in sizes]
    return statistics.fmean(medians), sum(op.arm == arm for op in ops)


def paired_passes(wl, state, units: int):
    """Run the same work untraced, then traced; returns both passes and the tracer."""
    from spans import Tracer

    untraced = wl.run(state, units, False, OUT_DIR / f"{wl.name}.untraced.out")
    with Tracer() as tracer:
        traced = wl.run(state, units, False, OUT_DIR / f"{wl.name}.traced.out")
    return untraced, traced, tracer


def measure_end_to_end(wl, state, seed: int, seconds: float):
    """Untraced run sized by ``seconds``, then a one-unit untraced/traced replay
    for the output checks.  Returns (metrics, ops, untraced, traced, tracer)."""
    setups = time_setups(wl.name, seed)
    units = max(wl.min_units, math.ceil(seconds * wl.units_per_s))
    measured = wl.run(state, units, True, OUT_DIR / f"{wl.name}.measured.out")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ops = measured.ops
    ms = [op.ms for op in ops]
    p90 = percentile(ms, 90)
    metrics = {
        "setup_s": (statistics.median(setups), f"median of {len(setups)} processes"),
        "ops_per_s": (len(ops) / measured.elapsed_s, f"{len(ops)} ops"),
        "op_ms_p50": (percentile(ms, 50), f"n={len(ops)}"),
        "op_ms_p90": (p90, f"n={len(ops)}, {sum(v > p90 for v in ms)} above"),
    }
    for arm in ("exact", "gaussian", "ros", "subsample"):
        if any(op.arm == arm for op in ops):
            value, count = arm_latency(ops, arm)
            metrics[f"arm_ms_p50.{arm}"] = (value, f"n={count}")
    metrics["peak_rss_mb"] = (peak_rss_mb, "ru_maxrss of this process")
    return (metrics, ops, *paired_passes(wl, state, 1))


def measure_layers(wl, state, seconds: float, names: list[str]):
    """Untraced and traced passes of the same work, each half of ``seconds``;
    ``names`` are the per-layer metrics to report.
    Returns (metrics, ops, untraced, traced, tracer)."""
    units = max(1, math.ceil(seconds * wl.units_per_s / 2))
    untraced, traced, tracer = paired_passes(wl, state, units)
    overhead = traced.elapsed_s / untraced.elapsed_s - 1.0
    note = f"{len(tracer.spans)} spans, {len(traced.ops)} ops"
    metrics = {name: (value, note) for name, value in tracer.layer_metrics(names, overhead).items()}
    with open(OUT_DIR / f"trace-{wl.name}.jsonl", "w") as fh:
        for record in tracer.span_records():
            fh.write(json.dumps(record) + "\n")
    return metrics, traced.ops, untraced, traced, tracer


def check_outputs(wl, state, ops, untraced, traced, tracer):
    """Output checks and failure accounting.

    A failed op is a marker row (NaN error), an exception, or a captured call
    that misses its oracle.  The run is correct when nothing failed, the
    untraced and traced passes wrote identical bytes, and no span has a
    negative self time.  Returns (correct, failed, report lines, quality
    metrics)."""
    import oracle

    captures = tracer.captures + wl.setup_calls(state)
    checks = oracle.check_captures(captures)
    mismatches = [(name, dev, tol) for name, dev, tol in checks if not dev <= tol]
    identical = untraced.output == traced.output
    self_ok = min(tracer.self_times_ns(), default=0) >= 0
    failed = min(len(ops), sum(op.failed for op in ops) + len(mismatches))
    correct = failed == 0 and identical and self_ok and bool(checks)

    worst = max((dev / tol for _, dev, tol in checks), default=math.nan)
    lines = [f"check oracle: {len(checks)} calls, {len(mismatches)} mismatches, "
             f"worst deviation {worst:.3g} of tolerance"]
    lines += [f"check oracle mismatch: {name} deviation {dev:.3g} > {tol:.3g}"
              for name, dev, tol in mismatches]
    lines.append("note sketched fits: worst objective excess over the least-squares optimum "
                 f"{oracle.worst_objective_excess(captures):.3g} (reported, not checked)")
    lines.append(f"check outputs untraced == traced: {identical} ({len(traced.output)} bytes)")
    lines.append(f"check self times >= 0: {self_ok}")

    def mean_error(arm):
        errors = [op.error for op in ops if op.arm == arm and not op.failed]
        return statistics.fmean(errors) if errors else math.nan

    ratio = max(mean_error("gaussian"), mean_error("ros")) / wl.exact_error(state, ops)
    quality = {
        "failed_frac": (failed / len(ops), f"{failed}/{len(ops)} ops"),
        "err_ratio_max": (ratio, "mean sketched / mean exact error, gaussian and ros"),
    }
    certs = [op.passed for op in ops if op.passed is not None]
    if certs:
        quality["cert_pass_frac"] = (sum(certs) / len(certs),
                                     f"{sum(certs)}/{len(certs)} certificates")
    return correct, failed, lines, quality


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "sketchkrr" / "__init__.py").is_file():
        print(f"error: no sketchkrr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    threads = pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    seed = wl.seed if args.seed is None else args.seed
    if args.setup_only:
        wl.setup(seed)
        return 0

    print("machine " + json.dumps(machine_facts(threads)))
    OUT_DIR.mkdir(exist_ok=True)
    spec = load_spec()
    reported = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    unit_of = {**UNLISTED_UNITS, **{m["name"]: m["unit"] for m in reported}}
    state = wl.setup(seed)
    if args.trace == 0:
        metrics, ops, *passes = measure_end_to_end(wl, state, seed, args.seconds)
    else:
        metrics, ops, *passes = measure_layers(wl, state, args.seconds, [m["name"] for m in reported])
    correct, failed, lines, quality = check_outputs(wl, state, ops, *passes)

    for name, (value, note) in {**metrics, **quality}.items():
        print(f"metric {name:30s} {value!r:>24} {unit_of[name]:6s} ({note})")
    print("\n".join(lines))
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in reported},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
