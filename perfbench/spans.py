"""In-memory span tracer for the per-layer run of the benchmark.

The tracer replaces sketchkrr's public functions with timing wrappers at
the places where their callers look them up (``sketchkrr.bench.solve_krr``,
``sketchkrr.solver.apply_sketch``, ``KernelMatrix.eig``, ...), plus the two
dense factorizations the program asks numpy/scipy for.  Nothing inside the
package changes; uninstalling restores every original attribute.

Each wrapped call records a span ``[name, start_ns, end_ns, parent]``.
Calls are single-threaded and strictly nested, so a span's self time is
its duration minus the summed durations of its direct children.  Integer
nanoseconds keep that difference exact.  Some layers also record an exact
work count (bytes computed from shapes, sum of n^3 over factorizations),
and the oracle-checked calls keep their arguments for a later check.
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc
import weakref
from collections import Counter, defaultdict

import numpy as np

# span name -> where callers look the function up: (module, attribute path)
# (the package-level names are the ones the workloads call in a traced pass)
PATCH_SITES = {
    "bench.sweep": [("sketchkrr", "run_error_vs_n")],
    "bench.generate_data": [("sketchkrr.bench", "generate_data")],
    "bench.write_csv": [("sketchkrr", "write_csv")],
    "kernels.build": [("sketchkrr.bench", "build_kernel_matrix")],
    "kernels.eig": [("sketchkrr.kernels", "KernelMatrix.eig")],
    "complexity.profile": [("sketchkrr.bench", "complexity_profile")],
    "sketch.draw": [("sketchkrr.bench", "draw_sketch"), ("sketchkrr", "draw_sketch")],
    "sketch.apply": [("sketchkrr.solver", "apply_sketch")],
    "sketch.materialize": [("sketchkrr.satisfiability", "materialize")],
    "solver.exact": [("sketchkrr.bench", "solve_krr")],
    "solver.sketched": [("sketchkrr.bench", "solve_sketched_krr"), ("sketchkrr", "solve_sketched_krr")],
    "satisfiability.check": [("sketchkrr", "check_k_satisfiable")],
    "lapack.eigh": [("numpy.linalg", "eigh")],
    "lapack.chol": [("scipy.linalg", "cho_factor")],
}

# calls whose arguments and result the oracle re-checks: the first
# CAPTURES_PER_KEY of each name and sketch shape
CAPTURED = ("kernels.build", "solver.exact", "solver.sketched", "satisfiability.check")
CAPTURES_PER_KEY = 2


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _sketch_of(name: str, args, kwargs):
    if name == "solver.sketched":
        return args[2] if len(args) > 2 else kwargs["S"]
    if name == "satisfiability.check":
        return args[0] if args else kwargs["S"]
    return None


class Tracer:
    """Spans, exact work counts and oracle captures of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.captures: list[tuple[str, tuple, dict, object]] = []
        self.peak_bytes = 0
        self._captured_keys: Counter = Counter()
        self._stack: list[int] = []
        self._decomposed = weakref.WeakSet()
        self._saved: list[tuple[object, str, object]] = []

    # --- installation ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for name, sites in PATCH_SITES.items():
            for module, path in sites:
                owner, attr = _resolve(module, path)
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
        tracemalloc.start()
        return self

    def __exit__(self, *exc) -> None:
        self.peak_bytes = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer.spans.append([name, time.perf_counter_ns(), None, parent])
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.spans[index][2] = time.perf_counter_ns()
                tracer._stack.pop()
            tracer._record(name, args, kwargs, result)
            return result

        return wrapper

    def _record(self, name: str, args, kwargs, result) -> None:
        if name == "sketch.apply":
            self.counts["sketch.apply_bytes"] += np.asarray(args[1]).nbytes + result.nbytes
        elif name == "kernels.build":
            self.counts["kernels.build_bytes"] += result.matrix.nbytes
        elif name == "kernels.eig":
            if args[0] not in self._decomposed:
                self._decomposed.add(args[0])
                self.counts["kernels.eig_distinct"] += 1
        elif name in ("lapack.eigh", "lapack.chol"):
            n = int(np.shape(args[0])[-1])
            self.counts[name + "_n3"] += n**3
        elif name == "solver.sketched":
            self.counts["solver.rank_deficient_fits"] += int(result.rank_deficient)
        if name in CAPTURED:
            S = _sketch_of(name, args, kwargs)
            key = (name, S.kind, S.m) if S is not None else (name,)
            if self._captured_keys[key] < CAPTURES_PER_KEY:
                self._captured_keys[key] += 1
                self.captures.append((name, args, kwargs, result))

    # --- aggregation -------------------------------------------------------

    def self_times_ns(self) -> list[int]:
        """Self time of every span, in span order."""
        covered = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [end - start - covered[i] for i, (_, start, end, _) in enumerate(self.spans)]

    def layer_metrics(self, names: list[str], overhead_frac: float) -> dict[str, float]:
        """The per-layer metrics ``names``, from the recorded spans and counts."""
        total: defaultdict = defaultdict(int)
        own: defaultdict = defaultdict(int)
        calls: Counter = Counter()
        for (name, start, end, _), self_ns in zip(self.spans, self.self_times_ns()):
            total[name] += end - start
            own[name] += self_ns
            calls[name] += 1

        def seconds(ns: int) -> float:
            return ns / 1e9

        out = {}
        for layer in ("sketch.apply", "kernels.build", "kernels.eig", "sketch.materialize",
                      "sketch.draw", "complexity.profile", "bench.generate_data",
                      "satisfiability.check"):
            out[layer + "_s"] = seconds(total[layer])
            out[layer + "_calls"] = calls[layer]
        for layer in ("lapack.eigh", "lapack.chol", "solver.sketched"):
            out[layer + "_calls"] = calls[layer]
        out["sketch.apply_bytes"] = self.counts["sketch.apply_bytes"]
        out["kernels.build_bytes"] = self.counts["kernels.build_bytes"]
        out["kernels.eig_distinct"] = self.counts["kernels.eig_distinct"]
        eig_calls = calls["kernels.eig"]
        out["kernels.eig_reuse"] = 1.0 - out["kernels.eig_distinct"] / eig_calls if eig_calls else 0.0
        out["lapack.eigh_n3"] = self.counts["lapack.eigh_n3"]
        out["lapack.chol_n3"] = self.counts["lapack.chol_n3"]
        out["solver.exact_s"] = seconds(total["solver.exact"])
        out["solver.sketched_s"] = seconds(total["solver.sketched"])
        out["solver.sketched_self_s"] = seconds(own["solver.sketched"])
        sketched = calls["solver.sketched"]
        fallbacks = self.counts["solver.rank_deficient_fits"]
        out["solver.rank_deficient"] = fallbacks / sketched if sketched else 0.0
        out["satisfiability.check_self_s"] = seconds(own["satisfiability.check"])
        out["bench.sweep_s"] = seconds(total["bench.sweep"])
        out["bench.self_s"] = seconds(own["bench.sweep"])
        out["bench.write_csv_s"] = seconds(total["bench.write_csv"])
        out["trace.peak_mb"] = self.peak_bytes / 2**20
        out["trace.overhead_frac"] = overhead_frac
        return {name: out[name] for name in names}

    def span_records(self):
        """The spans as dicts, for the JSON-lines trace file."""
        return [
            {"id": i, "name": name, "start_ns": start, "end_ns": end, "parent": parent}
            for i, (name, start, end, parent) in enumerate(self.spans)
        ]
