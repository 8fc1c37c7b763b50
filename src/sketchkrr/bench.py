"""Experiment harness: data generation, error-vs-n sweeps, CSV persistence.

A sweep is a pure function of its :class:`ExperimentConfig`, so reruns at
a fixed BLAS thread count are byte-identical.  Its arms are paired: each (n, trial) draws one dataset
y_i = f*(x_i) + sigma * w_i from a seed mixed by splitmix64 from
(base_seed, n, trial) alone, builds the kernel matrix once, computes the
critical radius and statistical dimension once from its top eigenvalues
and trace (see :mod:`sketchkrr.complexity`),
sets the regularization (default 2 * delta_n^2) by rule, and fits every
arm on that same data.  The ``uniform_grid`` design's points do not
depend on the seed, so its kernel matrix, profile and regularization are
computed once per n and only the sample is drawn per trial.  The exact
arm gets the eigenpairs the profile holds, on every design: the Ritz
pairs of its Krylov head, or the full spectrum of its dense fallback
(n < 32, or a head that gives way), and ``solve_krr`` solves by conjugate
gradients preconditioned with them, a few O(n^2) products with K at
lambda = 2 delta_n^2.  It factors K + 2*lambda*I, O(n^3), in the trial
only where there is no profile (sigma = 0), the smallest Ritz value is
above 2*lambda (a small fixed lambda) or the iterations pass ``CG_MAX``;
a failing factorization fails the exact arm alone.  The arms differ
only in the sketch: each draws it from its own trial seed, derived
injectively from (base_seed, n, sketch kind, trial index) and recorded in
the CSV ``seed`` column.  Each arm sets the projection dimension m by rule,
solves, and records the squared empirical prediction error against the
stored f* values, together with the rescaled error (error times the
kernel's known rate factor: n^(2/3) for sobolev1, n/sqrt(ln n) for the
gaussian kernel, n for the finite-rank polynomial kernel).

An arm that fails with a :class:`DomainError`, :class:`NumericalError`
or ``LinAlgError`` records a marker row (NaN error) instead of aborting,
and so does every arm of a trial whose shared data, kernel matrix or
profile fails; a sweep always emits exactly |n_grid| * |kinds| * trials
rows, and any other exception is a bug and propagates.  Wall-clock timing
is off by default because measured times would break the byte-identical
reproducibility of the output; pass ``timing=True`` (or ``--timing`` on
the CLI) to record real milliseconds.  The time of a trial's shared work
is then charged to its first arm's row, so the rows sum to the sweep's
time.  A profiled exact row's ``wall_time_ms`` is then the
conjugate-gradient solve, not the O(n^3) cost of a direct exact solve.
"""

from __future__ import annotations

import math
import numbers
import os
import time
from collections.abc import Iterable
from dataclasses import dataclass, field, replace

import numpy as np

from ._util import ceil_int, check_count, check_floats, check_positive, check_seed, check_type
from .complexity import ComplexityProfile, complexity_profile
from .errors import DomainError, NumericalError
from .kernels import DesignPoints, KernelMatrix, KernelSpec, build_kernel_matrix
from .satisfiability import recommended_sketch_dim
from .sketch import SketchOperator, draw_sketch
from .solver import RegressionSample, empirical_error, solve_krr, solve_sketched_krr

__all__ = [
    "ARM_KINDS",
    "FSTAR_CHOICES",
    "DESIGN_CHOICES",
    "M_RULES",
    "LAMBDA_RULES",
    "CSV_HEADER",
    "ExperimentConfig",
    "TrialRecord",
    "ArmSummary",
    "NystromFailureResult",
    "fstar_values",
    "rate_factor",
    "generate_data",
    "derive_seed",
    "run_error_vs_n",
    "run_nystrom_failure_demo",
    "summarize_records",
    "flatness_ratio",
    "emit_plot_script",
    "write_csv",
    "read_csv",
    "parse_config",
    "load_config",
]

ARM_KINDS = ("exact", "gaussian", "ros", "subsample")
FSTAR_CHOICES = ("abs_shift", "quad")
DESIGN_CHOICES = ("uniform_grid", "irregular", "iid_uniform")
M_RULES = ("cuberoot", "loggauss", "logfour", "fixed", "statdim")
LAMBDA_RULES = ("two_delta_sq", "fixed")

_MASK64 = (1 << 64) - 1
_KIND_CODE = {kind: i for i, kind in enumerate(ARM_KINDS)}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a sweep depends on; see the module docstring for semantics."""

    kernel: KernelSpec
    fstar: str = "abs_shift"
    design: str = "uniform_grid"
    sigma: float = 1.0
    n_grid: tuple[int, ...] = (32, 64, 128, 256, 512, 1024)
    sketch_kinds: tuple[str, ...] = ("exact", "gaussian", "ros")
    m_rule: str = "cuberoot"
    m_fixed: int | None = None
    c_statdim: float | None = None
    lambda_rule: str = "two_delta_sq"
    lambda_fixed: float | None = None
    trials: int = 100
    base_seed: int = 0

    def __post_init__(self) -> None:
        check_type(self.kernel, KernelSpec, "kernel")
        for name in ("c_statdim", "lambda_fixed"):
            if getattr(self, name) is not None:
                check_positive(getattr(self, name), name)
        for name, choices in (("fstar", FSTAR_CHOICES), ("design", DESIGN_CHOICES),
                              ("m_rule", M_RULES), ("lambda_rule", LAMBDA_RULES)):
            if getattr(self, name) not in choices:
                raise DomainError(f"unknown {name} {getattr(self, name)!r}")
        if not (isinstance(self.sigma, numbers.Real) and 0.0 <= self.sigma < math.inf):
            raise DomainError(f"sigma must be finite and >= 0, got {self.sigma!r}")
        for name in ("n_grid", "sketch_kinds"):
            value = getattr(self, name)
            if isinstance(value, str) or not isinstance(value, Iterable):
                raise DomainError(f"{name} must be a sequence, got {value!r}")
        n_grid = tuple(check_count(n, "n_grid entry", 2) for n in self.n_grid)
        if len(n_grid) == 0:
            raise DomainError("n_grid must be nonempty")
        object.__setattr__(self, "n_grid", n_grid)
        kinds = tuple(self.sketch_kinds)
        if len(kinds) == 0 or len(set(kinds)) != len(kinds):
            raise DomainError("sketch_kinds must be nonempty and without duplicates")
        for kind in kinds:
            if kind not in ARM_KINDS:
                raise DomainError(f"unknown sketch kind {kind!r}")
        object.__setattr__(self, "sketch_kinds", kinds)
        if self.m_fixed is not None:
            object.__setattr__(self, "m_fixed", check_count(self.m_fixed, "m_fixed", 1))
        if self.m_rule == "fixed" and self.m_fixed is None:
            raise DomainError("m_rule 'fixed' needs m_fixed >= 1")
        if self.m_rule == "statdim" and self.c_statdim is None:
            raise DomainError("m_rule 'statdim' needs c_statdim > 0")
        if self.lambda_rule == "fixed" and self.lambda_fixed is None:
            raise DomainError("lambda_rule 'fixed' needs lambda_fixed > 0")
        object.__setattr__(self, "trials", check_count(self.trials, "trials", 1))
        object.__setattr__(self, "base_seed", check_seed(self.base_seed, "base_seed"))


@dataclass(frozen=True)
class TrialRecord:
    """One CSV row.  A failed trial has error = NaN (marker row)."""

    n: int
    m: int
    sketch: str
    trial: int
    seed: int
    lambda_n: float
    delta_n_sq: float
    d_n: int
    error: float
    rescaled_error: float
    wall_time_ms: float


# TrialRecord's fields in order, as (CSV column, parser); lambda_n is "lambda"
_CSV_COLUMNS = (
    ("n", int), ("m", int), ("sketch", str), ("trial", int), ("seed", int),
    ("lambda", float), ("delta_n_sq", float), ("d_n", int),
    ("error", float), ("rescaled_error", float), ("wall_time_ms", float),
)
CSV_HEADER = ",".join(column for column, _ in _CSV_COLUMNS)


def fstar_values(name: str, x) -> np.ndarray:
    """Evaluate a built-in target function on an array of covariates."""
    xv = check_floats(x, "x")
    if name == "abs_shift":
        return np.abs(xv + 0.5) - 0.5
    if name == "quad":
        return -1.0 + 2.0 * xv**2
    raise DomainError(f"unknown fstar {name!r}")


def rate_factor(spec: KernelSpec, n: int) -> float:
    """Known decay rate of the prediction error, used to flatten curves."""
    n = check_count(n, "n", 2)
    if check_type(spec, KernelSpec, "spec").kind == "sobolev1":
        return float(n) ** (2.0 / 3.0)
    if spec.kind == "gaussian":
        return n / math.sqrt(math.log(n))
    return float(n)


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _mix_seed(base_seed: int, *parts: int) -> int:
    z = base_seed & _MASK64
    for part in parts:
        z = _splitmix64(z ^ _splitmix64(part & _MASK64))
    return z


def derive_seed(base_seed: int, n: int, kind: str, trial: int) -> int:
    """Injectively mix (base_seed, n, kind, trial) into a 64-bit trial seed."""
    if not isinstance(kind, str) or kind not in _KIND_CODE:
        raise DomainError(f"unknown sketch kind {kind!r}; expected one of {ARM_KINDS}")
    n, trial = check_count(n, "n", 1), check_count(trial, "trial", 0)
    return _mix_seed(check_seed(base_seed, "base_seed"), n, _KIND_CODE[kind], trial)


def _trial_streams(seed: int) -> tuple[int, int]:
    # two independent streams of one seed: a data stream and a sketch stream
    return _splitmix64(seed ^ 1), _splitmix64(seed ^ 2)


def _data_seed(base_seed: int, n: int, trial: int) -> int:
    # no sketch kind in the mix: every arm of (n, trial) sees the same data
    # and draws its sketch from the sketch stream of its own derive_seed,
    # so paired arms differ only in the sketch
    return _trial_streams(_mix_seed(base_seed, n, trial))[0]


def generate_data(config: ExperimentConfig, n: int, seed: int) -> RegressionSample:
    """Draw one dataset: design points per the config, then Gaussian noise.

    Designs: ``uniform_grid`` x_i = i/n; ``iid_uniform`` x_i ~ Unif[0, 1];
    ``irregular`` the clustered design with k = ceil(sqrt(n)) points moved
    to 1 + N(0, 1/n) and the remaining n - k drawn from Unif[0, 1/2].
    """
    n = check_count(n, "n", 2)
    rng = np.random.default_rng(check_seed(seed) & _MASK64)
    if check_type(config, ExperimentConfig, "config").design == "uniform_grid":
        x = np.arange(1, n + 1, dtype=np.float64) / n
    elif config.design == "iid_uniform":
        x = rng.uniform(0.0, 1.0, size=n)
    else:
        k = ceil_int(math.sqrt(n))
        x = np.empty(n)
        x[: n - k] = rng.uniform(0.0, 0.5, size=n - k)
        x[n - k :] = 1.0 + rng.normal(0.0, 1.0 / math.sqrt(n), size=k)
    fstar = fstar_values(config.fstar, x)
    y = fstar + config.sigma * rng.standard_normal(n)
    return RegressionSample(DesignPoints(x), y, fstar=fstar)


def _sketch_dim(config: ExperimentConfig, n: int, d_n: int) -> int:
    if config.m_rule == "cuberoot":
        m = ceil_int(n ** (1.0 / 3.0))
    elif config.m_rule == "loggauss":
        m = ceil_int(1.25 * math.sqrt(math.log(n)))
    elif config.m_rule == "logfour":
        m = ceil_int(4.0 * math.sqrt(math.log(n)))
    elif config.m_rule == "fixed":
        m = int(config.m_fixed)
    else:  # statdim: the paper's m = ceil(c d_n)
        return recommended_sketch_dim("gaussian", max(d_n, 1), n, config.c_statdim)
    return max(1, min(m, n))


def _regularization(config: ExperimentConfig, profile: ComplexityProfile | None) -> float:
    if config.lambda_rule == "two_delta_sq":
        if profile is None:
            raise DomainError("lambda rule 'two_delta_sq' needs sigma > 0")
        return 2.0 * profile.delta_n_sq
    return float(config.lambda_fixed)


_TRIAL_ERRORS = (DomainError, NumericalError, np.linalg.LinAlgError)


@dataclass(frozen=True)
class _SharedInputs:
    """What every arm of one (n, trial) fits on: the dataset, K, its
    profile (None for sigma = 0; with the eigenpairs the exact arm solves
    on) and the regularization."""

    sample: RegressionSample
    K: KernelMatrix
    profile: ComplexityProfile | None
    lam: float


def _shared_inputs(
    config: ExperimentConfig, n: int, trial: int, grid: _SharedInputs | None
) -> _SharedInputs:
    sample = generate_data(config, n, _data_seed(config.base_seed, n, trial))
    if grid is not None:
        return replace(grid, sample=sample)
    K = build_kernel_matrix(config.kernel, sample.pts)
    # sigma = 0 leaves the critical radius undefined; the fit still works
    # with a fixed regularization, so the profile columns become NaN/0
    profile = complexity_profile(K, n, config.sigma) if config.sigma > 0 else None
    return _SharedInputs(sample, K, profile, _regularization(config, profile))


def _marker_row(n: int, kind: str, trial: int, seed: int) -> TrialRecord:
    return TrialRecord(
        n=n, m=0, sketch=kind, trial=trial, seed=seed,
        lambda_n=math.nan, delta_n_sq=math.nan, d_n=0,
        error=math.nan, rescaled_error=math.nan, wall_time_ms=0.0,
    )


@dataclass
class _SweepLog:
    """What a sweep saw besides its records, for the CLI's summary: one line
    per failure naming its exception (once per trial for a shared step),
    and the count of sketched fits and of those flagged rank-deficient."""

    failures: list[str] = field(default_factory=list)
    sketched: int = 0
    rank_deficient: int = 0

    def failed(self, n: int, trial: int, what: str, exc: Exception) -> None:
        self.failures.append(f"n={n} trial {trial}, {what}: {type(exc).__name__}: {exc}")


def run_error_vs_n(
    config: ExperimentConfig, timing: bool = False, *, _log: _SweepLog | None = None
) -> list[TrialRecord]:
    """Run the full sweep; one record per (n, kind, trial), sorted in that
    order.  ``_log`` (for the CLI) collects what the records do not say."""
    log = _SweepLog() if _log is None else _log
    records: list[TrialRecord] = []
    for n in check_type(config, ExperimentConfig, "config").n_grid:
        # uniform_grid points do not depend on the seed: one K, profile and
        # regularization per n, shared by every trial
        grid = None
        for trial in range(config.trials):
            start = time.perf_counter() if timing else 0.0
            try:
                shared = _shared_inputs(config, n, trial, grid)
            except _TRIAL_ERRORS as exc:
                shared = None
                log.failed(n, trial, "every arm", exc)
            else:
                if config.design == "uniform_grid":
                    grid = shared
            for kind in config.sketch_kinds:
                seed = derive_seed(config.base_seed, n, kind, trial)
                record = _marker_row(n, kind, trial, seed)
                if shared is not None:
                    try:
                        record = _fit_arm(config, shared, n, kind, trial, seed, log)
                    except _TRIAL_ERRORS as exc:
                        log.failed(n, trial, f"{kind} arm", exc)
                if timing:
                    # the shared inputs are charged to the trial's first arm
                    now = time.perf_counter()
                    record = replace(record, wall_time_ms=(now - start) * 1e3)
                    start = now
                records.append(record)
            del shared  # release this trial's K before the next one is built
    order = {kind: i for i, kind in enumerate(config.sketch_kinds)}
    records.sort(key=lambda r: (r.n, order[r.sketch], r.trial))
    return records


def _fit_arm(
    config: ExperimentConfig, shared: _SharedInputs,
    n: int, kind: str, trial: int, seed: int, log: _SweepLog | None = None,
) -> TrialRecord:
    sample, K, profile, lam = shared.sample, shared.K, shared.profile, shared.lam
    if kind == "exact":
        m = n
        fit = solve_krr(K, sample.y, lam, _head=profile and profile._head)
    else:
        S = _arm_sketch(config, profile, n, kind, seed)
        m = S.m
        fit = solve_sketched_krr(K, sample.y, S, lam)
        if log is not None:
            log.sketched += 1
            log.rank_deficient += fit.rank_deficient
    err = empirical_error(fit.fitted, sample.fstar)
    return TrialRecord(
        n=n, m=m, sketch=kind, trial=trial, seed=seed,
        lambda_n=lam,
        delta_n_sq=profile.delta_n_sq if profile else math.nan,
        d_n=profile.d_n if profile else 0,
        error=err, rescaled_error=err * rate_factor(config.kernel, n),
        wall_time_ms=0.0,
    )


def _arm_sketch(
    config: ExperimentConfig, profile: ComplexityProfile | None, n: int, kind: str, seed: int
) -> SketchOperator:
    """The sketch of arm ``kind`` with trial seed ``seed``: m by the config's
    rule, drawn from the seed's sketch stream."""
    if config.m_rule == "statdim" and profile is None:
        raise DomainError("m rule 'statdim' needs sigma > 0")
    m = _sketch_dim(config, n, profile.d_n if profile else 0)
    return draw_sketch(kind, m, n, _trial_streams(seed)[1])


@dataclass(frozen=True)
class NystromFailureResult:
    """Outcome of the block-diagonal comparison of sub-sampling vs Gaussian."""

    n: int
    m: int
    k: int
    seed: int
    missed_second_block: bool
    subsample_error: float
    gaussian_error: float
    subsample_block2_sensitivity: float
    gaussian_block2_sensitivity: float


def run_nystrom_failure_demo(n: int, m: int, k: int, seed: int) -> NystromFailureResult:
    """Sub-sampling versus Gaussian sketching on a block-diagonal kernel.

    The kernel matrix is an exact direct sum diag(K1, K2) (first-order
    Sobolev within each block), with the second block holding the last k
    coordinates.  A sub-sampling sketch that draws no row from the second
    block yields an objective that ignores the last k observations: its
    fitted values there are identically zero and insensitive to those
    responses.  Sensitivities are measured by bumping the block-2 responses
    by one and refitting with the same sketches.
    """
    n, m, k = check_count(n, "n", 1), check_count(m, "m", 1), check_count(k, "k", 1)
    seed = check_seed(seed)
    if m > n:
        raise DomainError(f"need 1 <= m <= n, got m={m}, n={n}")
    if k > n - 1:
        raise DomainError(f"need 1 <= k <= n - 1, got k={k}")
    if k > ceil_int((n / m) * math.log(2.0)):
        raise DomainError(
            f"k={k} exceeds ceil((n/m) ln 2)={ceil_int((n / m) * math.log(2.0))}; "
            "the miss probability argument needs a small second block"
        )
    n1 = n - k
    x1 = np.arange(1, n1 + 1, dtype=np.float64) / n1
    x2 = np.arange(1, k + 1, dtype=np.float64) / k
    Kmat = np.zeros((n, n))
    Kmat[:n1, :n1] = np.minimum.outer(x1, x1) / n
    Kmat[n1:, n1:] = np.minimum.outer(x2, x2) / n
    K = KernelMatrix(Kmat)

    rng = np.random.default_rng(seed & _MASK64)
    z_star = np.concatenate([x1, np.ones(k)])
    y = z_star + 0.5 * rng.standard_normal(n)

    profile = complexity_profile(K, n, 0.5)
    lam = 2.0 * profile.delta_n_sq
    sub_seed, gauss_seed = _trial_streams(seed)
    S_sub = draw_sketch("subsample", m, n, sub_seed)
    S_gauss = draw_sketch("gaussian", m, n, gauss_seed)
    missed = bool((S_sub.indices < n1).all())

    fit_sub = solve_sketched_krr(K, y, S_sub, lam)
    fit_gauss = solve_sketched_krr(K, y, S_gauss, lam)
    bump = np.zeros(n)
    bump[n1:] = 1.0
    refit_sub = solve_sketched_krr(K, y + bump, S_sub, lam)
    refit_gauss = solve_sketched_krr(K, y + bump, S_gauss, lam)

    def block2_shift(a, b):
        return float(np.abs(a.fitted[n1:] - b.fitted[n1:]).max())

    return NystromFailureResult(
        n=n, m=m, k=k, seed=seed,
        missed_second_block=missed,
        subsample_error=empirical_error(fit_sub.fitted, z_star),
        gaussian_error=empirical_error(fit_gauss.fitted, z_star),
        subsample_block2_sensitivity=block2_shift(refit_sub, fit_sub),
        gaussian_block2_sensitivity=block2_shift(refit_gauss, fit_gauss),
    )


# --- aggregation -------------------------------------------------------------

@dataclass(frozen=True)
class ArmSummary:
    """Per-(n, sketch) aggregate over trials: mean and standard error."""

    n: int
    sketch: str
    trials: int
    mean_error: float
    stderr_error: float
    mean_rescaled: float
    stderr_rescaled: float


def summarize_records(records) -> list[ArmSummary]:
    """Mean and standard error per (n, sketch kind), skipping marker rows."""
    groups: dict[tuple[int, str], list[TrialRecord]] = {}
    for r in check_type(records, Iterable, "records"):
        if math.isnan(check_type(r, TrialRecord, "record").error):
            continue
        groups.setdefault((r.n, r.sketch), []).append(r)
    out = []
    for (n, kind), rows in sorted(groups.items()):
        err = np.array([r.error for r in rows])
        resc = np.array([r.rescaled_error for r in rows])
        t = len(rows)
        se_err = float(err.std(ddof=1)) / math.sqrt(t) if t > 1 else 0.0
        se_resc = float(resc.std(ddof=1)) / math.sqrt(t) if t > 1 else 0.0
        out.append(
            ArmSummary(
                n=n, sketch=kind, trials=t,
                mean_error=float(err.mean()), stderr_error=se_err,
                mean_rescaled=float(resc.mean()), stderr_rescaled=se_resc,
            )
        )
    return out


def flatness_ratio(records, kind: str) -> float:
    """Max/min of the trial-mean rescaled error over the upper half of the
    n values present for one arm (with the middle one when their number is
    odd); near 1 means the rescaling flattened the curve (the decay rate is
    as predicted)."""
    summaries = [s for s in summarize_records(records) if s.sketch == kind]
    if not summaries:
        raise DomainError(f"no records for sketch kind {kind!r}")
    vals = [s.mean_rescaled for s in summaries[len(summaries) // 2 :]]
    if min(vals) <= 0.0:
        raise DomainError(f"flatness ratio of {kind!r} needs positive means, got {min(vals)}")
    return max(vals) / min(vals)


def emit_plot_script(csv_path, out_png="errors.png") -> str:
    """Return a standalone matplotlib script plotting mean error vs n.

    Keeps graphics dependencies out of the package: the returned text is
    meant to be written to a file and run separately, with sketchkrr
    importable.  It plots each arm of ``summarize_records(read_csv(csv_path))``.
    """
    _check_path(csv_path)
    return f'''"""Plot mean prediction error per arm from a results CSV."""
import matplotlib.pyplot as plt

from sketchkrr import read_csv, summarize_records

summaries = summarize_records(read_csv({str(csv_path)!r}))
fig, ax = plt.subplots(figsize=(6, 4))
for kind in sorted({{s.sketch for s in summaries}}):
    arm = [s for s in summaries if s.sketch == kind]
    ax.errorbar([s.n for s in arm], [s.mean_error for s in arm],
                yerr=[s.stderr_error for s in arm], marker="o", capsize=3, label=kind)
ax.set_xscale("log", base=2)
ax.set_yscale("log")
ax.set_xlabel("sample size n")
ax.set_ylabel("mean squared prediction error")
ax.legend()
fig.tight_layout()
fig.savefig({out_png!r}, dpi=150)
print("wrote", {out_png!r})
'''


# --- CSV persistence --------------------------------------------------------

def _check_path(path) -> None:
    """A :class:`DomainError` that names ``path`` unless ``open`` takes it
    as a file name."""
    if not isinstance(path, (str, bytes, os.PathLike)):
        raise DomainError(f"path must be a str or os.PathLike, got {type(path).__name__}")


def _fmt_float(v: float) -> str:
    # 17 significant digits: lossless float64 round trip
    return f"{v:.17g}"


def write_csv(records, path) -> None:
    """Write records under the fixed header; floats keep 17 significant digits."""
    _check_path(path)
    lines = [CSV_HEADER]
    for r in check_type(records, Iterable, "records"):
        # a dataclass instance's __dict__ holds its fields in declaration order
        row = zip(_CSV_COLUMNS, vars(check_type(r, TrialRecord, "record")).values())
        lines.append(",".join(_fmt_float(v) if parse is float else str(v) for (_, parse), v in row))
    try:
        with open(path, "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write results to {path!r}: {exc}") from exc


def read_csv(path) -> list[TrialRecord]:
    """Read records back; raises with the offending 1-based line number."""
    _check_path(path)
    try:
        with open(path, "r", newline="") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise OSError(f"cannot read results from {path!r}: {exc}") from exc
    if not lines or lines[0] != CSV_HEADER:
        raise DomainError(f"{path}: line 1: expected header {CSV_HEADER!r}")
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(_CSV_COLUMNS):
            raise DomainError(
                f"{path}: line {lineno}: expected {len(_CSV_COLUMNS)} fields, got {len(parts)}"
            )
        try:
            records.append(
                TrialRecord(*(parse(part) for (_, parse), part in zip(_CSV_COLUMNS, parts)))
            )
        except ValueError as exc:
            raise DomainError(f"{path}: line {lineno}: {exc}") from exc
    return records


# --- config files ------------------------------------------------------------

def _name(value: str) -> str:
    return value.strip().replace("-", "_").lower()


def _listed(parse):
    return lambda value: tuple(parse(v) for v in value.split(","))


# config key -> (KernelSpec or ExperimentConfig field, value parser)
_CONFIG_KEYS = {
    "kernel": ("kind", _name), "degree": ("degree", int), "bandwidth": ("bandwidth", float),
    "fstar": ("fstar", _name), "design": ("design", _name), "sigma": ("sigma", float),
    "n_grid": ("n_grid", _listed(int)), "sketches": ("sketch_kinds", _listed(_name)),
    "m_rule": ("m_rule", _name), "m_fixed": ("m_fixed", int), "c_statdim": ("c_statdim", float),
    "lambda_rule": ("lambda_rule", _name), "lambda_fixed": ("lambda_fixed", float),
    "trials": ("trials", int), "seed": ("base_seed", int),
}


def parse_config(text: str, source: str = "<config>") -> ExperimentConfig:
    """Parse the flat key/value config format.

    One ``key = value`` per line; ``#`` starts a comment; list values are
    comma-separated; hyphens and underscores are interchangeable in values.
    Keys: kernel, degree, bandwidth, fstar, design, sigma, n_grid, sketches,
    m_rule, m_fixed, c_statdim, lambda_rule, lambda_fixed, trials, seed.
    The kernel keys go to :class:`KernelSpec`, which rejects a missing or
    stray hyperparameter; the rest go to :class:`ExperimentConfig`.
    """
    fields: dict = {}
    for lineno, line in enumerate(check_type(text, str, "text").splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise DomainError(f"{source}: line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise DomainError(f"{source}: line {lineno}: unknown key {key!r}")
        field, parse = _CONFIG_KEYS[key]
        if field in fields:
            raise DomainError(f"{source}: line {lineno}: duplicate key {key!r}")
        if not value:
            raise DomainError(f"{source}: line {lineno}: empty value for {key!r}")
        try:
            fields[field] = parse(value)
        except ValueError as exc:
            raise DomainError(f"{source}: line {lineno}: bad value {value!r} for {key!r}") from exc

    if "kind" not in fields:
        raise DomainError(f"{source}: missing required key 'kernel'")
    kernel = {f: fields.pop(f) for f in ("kind", "degree", "bandwidth") if f in fields}
    try:
        return ExperimentConfig(kernel=KernelSpec(**kernel), **fields)
    except DomainError as exc:
        raise DomainError(f"{source}: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    _check_path(path)
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as exc:
        raise OSError(f"cannot read config from {path!r}: {exc}") from exc
    return parse_config(text, source=str(path))
