"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload grid-sweep --seeds 1-10 [--trace 0] [--out FILE]

For every metric, including those a run only prints on its ``metric``
lines, it prints the median of the runs and the distance between the first
and third quartile (``statistics.quantiles(values, n=4)``) as a share of
that median, next to the metric's bound from BENCHMARK.json.
The runs are sequential, each a fresh process; with ``--out`` the raw
results are written as JSON for a later comparison.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    cmd = spec["command"]
    if cmd[0] == "python3":
        cmd = [sys.executable, *cmd[1:]]
    runs = []
    for seed in args.seeds:
        start = time.perf_counter()
        proc = subprocess.run(
            [*cmd, "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        printed = {line.split()[1]: float(line.split()[2])
                   for line in lines if line.startswith("metric ")}
        machine = json.loads(lines[0].removeprefix("machine "))
        wall_s = time.perf_counter() - start
        runs.append({"seed": seed, **result, "printed": printed, "machine": machine,
                     "wall_s": wall_s})
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} wall {wall_s:.1f} s", flush=True)

    print(f"{'metric':30s} {'median':>14s} {'iqr/median':>11s} {'bound':>6s}")
    for name in runs[0]["printed"]:
        values = [r["printed"][name] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / abs(median) if median else float("nan")
        bound = bounds.get(name)
        print(f"{name:30s} {median:14.6g} {share:11.4f} {bound if bound is not None else '-':>6}")
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload, "trace": args.trace,
                                        "runs": runs}, indent=1) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
