"""The benchmark's three workloads.

Every workload builds its inputs from the seed alone and reaches sketchkrr
only through attributes of the package (``sk.solve_krr`` and so on),
looked up at call time so that the tracer's wrappers see every call.

An op is one trial (one CSV row) in the sweeps, and one
draw -> certify -> fit in ``certify-fit``.  A unit is the smallest amount
of work a pass can be sized in: one trial index (every arm once) in the
sweeps, one round over the five sketch arms in ``certify-fit``.
"""

from __future__ import annotations

import dataclasses
import math
import time
import traceback
from pathlib import Path

import numpy as np
import scipy.linalg

import sketchkrr as sk

_SEED_MASK = (1 << 64) - 1


@dataclasses.dataclass
class Op:
    """One timed operation and its outcome."""

    arm: str
    m: int
    ms: float
    error: float
    failed: bool
    passed: bool | None = None  # certificate outcome, certify-fit only


@dataclasses.dataclass
class Pass:
    """The ops of one pass, its wall time and the bytes it wrote."""

    ops: list[Op]
    elapsed_s: float
    output: bytes


def _warm_up_lapack() -> None:
    # the first factorization in a process pays ~0.8 s of one-time library
    # start-up; a 256 x 256 one absorbs it
    a = np.random.default_rng(0).standard_normal((256, 256))
    a = a @ a.T + 256.0 * np.eye(256)
    np.linalg.eigh(a)
    scipy.linalg.cho_factor(a, lower=True)


class Workload:
    """Name, default seed and how to size the workload; BENCHMARK.json says why
    each workload exists.

    ``units_per_s`` is the rate measured on the reference machine (2 cores,
    OpenBLAS, one BLAS thread).  A pass of ``seconds`` runs
    ``ceil(seconds * units_per_s)`` units, and never fewer than
    ``min_units`` when it reports latency, so that the op p90 has at least
    ten samples above it.
    """

    def __init__(self, name: str, seed: int, units_per_s: float, min_units: int):
        self.name = name
        self.seed = seed
        self.units_per_s = units_per_s
        self.min_units = min_units


class Sweep(Workload):
    """``run_error_vs_n`` at one n; a pass of u units runs u trials per arm."""

    def __init__(self, name, seed, units_per_s, min_units, **config):
        super().__init__(name, seed, units_per_s, min_units)
        self.config = config

    def setup(self, seed: int):
        _warm_up_lapack()
        return sk.ExperimentConfig(base_seed=seed, trials=1, **self.config)

    def setup_calls(self, state) -> list:
        return []

    def exact_error(self, state, ops: list[Op]) -> float:
        return float(np.mean([op.error for op in ops if op.arm == "exact"]))

    def run(self, state, units: int, timing: bool, out_path: Path) -> Pass:
        """One sweep of ``units`` trials per arm; its CSV goes to ``out_path``."""
        config = dataclasses.replace(state, trials=units)
        start = time.perf_counter()
        records = sk.run_error_vs_n(config, timing=timing)
        elapsed = time.perf_counter() - start
        sk.write_csv(records, out_path)
        ops = [Op(r.sketch, r.m, r.wall_time_ms, r.error, math.isnan(r.error)) for r in records]
        return Pass(ops, elapsed, out_path.read_bytes())


@dataclasses.dataclass
class CertifyState:
    sample: object
    K: object
    profile: object
    lam: float
    exact: object
    arms: list[tuple[str, int]]
    seed: int


class CertifyFit(Workload):
    """The paper's workflow on one fixed K: size a sketch from d_n, certify
    it against the spectrum, then fit with it."""

    n = 1024

    def setup(self, seed: int) -> CertifyState:
        _warm_up_lapack()
        n = self.n
        config = sk.ExperimentConfig(kernel=sk.KernelSpec.sobolev1(), n_grid=(n,), trials=1)
        sample = sk.generate_data(config, n, seed & _SEED_MASK)
        K = sk.build_kernel_matrix(config.kernel, sample.pts)
        K.eig()
        profile = sk.complexity_profile(K.eigenvalues, n, config.sigma)
        lam = 2.0 * profile.delta_n_sq
        exact = sk.solve_krr(K, sample.y, lam)
        arms = [("gaussian", sk.recommended_sketch_dim("gaussian", profile.d_n, n, c)) for c in (6.0, 20.0)]
        arms += [("ros", sk.recommended_sketch_dim("ros", profile.d_n, n, c)) for c in (0.05, 0.1)]
        arms.append(("subsample", min(6 * profile.d_n, n)))
        return CertifyState(sample, K, profile, lam, exact, arms, seed)

    def setup_calls(self, state: CertifyState) -> list:
        """The set-up's kernel build and exact fit, in the tracer's capture form."""
        spec = sk.KernelSpec.sobolev1()
        return [
            ("kernels.build", (spec, state.sample.pts), {}, state.K),
            ("solver.exact", (state.K, state.sample.y, state.lam), {}, state.exact),
        ]

    def exact_error(self, state: CertifyState, ops: list[Op]) -> float:
        return sk.empirical_error(state.exact.fitted, state.sample.fstar)

    def run(self, state: CertifyState, units: int, timing: bool, out_path: Path) -> Pass:
        """``units`` rounds over the arms; every op is timed, whatever ``timing``
        says, and the per-op results go to ``out_path``."""
        sample, K, profile, lam = state.sample, state.K, state.profile, state.lam
        ops: list[Op] = []
        rows: list[str] = []
        start = time.perf_counter()
        for rnd in range(units):
            for i, (kind, m) in enumerate(state.arms):
                seq = np.random.SeedSequence([state.seed & _SEED_MASK, rnd, i])
                sketch_seed = int(seq.generate_state(1, np.uint64)[0])
                op_start = time.perf_counter()
                try:
                    S = sk.draw_sketch(kind, m, K.n, sketch_seed)
                    report = sk.check_k_satisfiable(S, K, profile)
                    fit = sk.solve_sketched_krr(K, sample.y, S, lam)
                    err = sk.empirical_error(fit.fitted, sample.fstar)
                except Exception:  # an op that raises is counted as failed
                    traceback.print_exc()
                    ops.append(Op(kind, m, (time.perf_counter() - op_start) * 1e3, math.nan, True))
                    rows.append(f"{rnd},{kind},{m},failed")
                    continue
                ms = (time.perf_counter() - op_start) * 1e3
                ops.append(Op(kind, m, ms, err, not math.isfinite(err), report.passed))
                rows.append(
                    f"{rnd},{kind},{m},{err!r},{report.lhs_isometry!r},"
                    f"{report.lhs_tail!r},{report.passed}"
                )
        elapsed = time.perf_counter() - start
        out_path.write_text("\n".join(rows) + "\n")
        return Pass(ops, elapsed, out_path.read_bytes())


WORKLOADS = {
    w.name: w
    for w in (
        Sweep(
            "grid-sweep", 20240807, units_per_s=16.5, min_units=34,
            kernel=sk.KernelSpec.sobolev1(), fstar="abs_shift", design="uniform_grid",
            sigma=1.0, n_grid=(1024,), sketch_kinds=("exact", "gaussian", "ros"),
            m_rule="cuberoot",
        ),
        Sweep(
            "random-design-sweep", 20240809, units_per_s=0.66, min_units=25,
            kernel=sk.KernelSpec.gaussian(0.25), fstar="quad", design="irregular",
            sigma=0.125, n_grid=(1200,),
            sketch_kinds=("exact", "gaussian", "ros", "subsample"), m_rule="logfour",
        ),
        CertifyFit("certify-fit", 20240810, units_per_s=1.4, min_units=20),
    )
}
