"""Exact, sketched, and dual solvers for the kernel ridge regression program.

With the 1/n-scaled kernel matrix K, the exact coefficient vector solves

    min_w  (1/2) w^T K^2 w - w^T K y / sqrt(n) + lam * w^T K w,

whose stationarity condition is K[(K + 2*lam*I) w - y/sqrt(n)] = 0; the
shifted system (K + 2*lam*I) w = y/sqrt(n) is solved directly (positive
definite for lam > 0): one O(n^3) Cholesky factorization, then O(n^2)
triangular solves.  A sweep on a fixed design keeps the factor and pays
only the solves in later trials (see :func:`solve_krr`).  The fitted
function is f(.) = (1/sqrt(n)) * sum_i w_i kernel(., x_i), so the
training-point values are sqrt(n) * K w.

The sketched program restricts w to the row span of an m x n sketch S,
w = S^T a, giving the m-dimensional normal equations

    (S K^2 S^T + 2*lam * S K S^T) a = S K y / sqrt(n).

A system that Cholesky cannot factor, or that it factors with an
estimated reciprocal condition number below machine epsilon (numerically
singular), falls back to the minimum-norm least-squares solution
(eigenvalues below 1e-12 of the largest truncated) and the result is
flagged.  The same normal equations with y replaced by the noiseless
values z* give the zero-noise projected solution, whose fitted values
split the prediction error into approximation and estimation parts:

    (1/2) ||fhat - f*||_n^2  <=  ||fdag - f*||_n^2 + ||fdag - fhat||_n^2.

Two dual routes are provided as independent checks: the ridge dual
xi = [(n/(2*lam)) K + n I]^{-1} y with w = (sqrt(n)/(2*lam)) xi, and its
sketched counterpart with K replaced by the low-rank surrogate
Ktil = K S^T (S K S^T)^+ S K, which for a sub-sampling sketch is exactly
the Nystrom approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from ._util import cho_factor_shifted
from .errors import DomainError, NumericalError
from .kernels import DesignPoints, KernelMatrix, KernelSpec, kernel_eval
from .sketch import SketchOperator, _dense, apply_sketch, apply_sketch_t

__all__ = [
    "FitResult",
    "RegressionSample",
    "solve_krr",
    "solve_sketched_krr",
    "error_decomposition",
    "predict",
    "empirical_error",
    "solve_dual_krr",
    "solve_nystrom_dual",
    "krr_objective",
    "sketched_krr_objective",
    "zero_noise_objective",
]

# singular values below PINV_REL_CUTOFF * largest are truncated
PINV_REL_CUTOFF = 1e-12


@dataclass(frozen=True)
class RegressionSample:
    """Design points, responses, and (optionally) the true function values."""

    pts: DesignPoints
    y: np.ndarray
    fstar: np.ndarray | None = None
    sigma: float = 0.0

    def __post_init__(self) -> None:
        y = np.asarray(self.y, dtype=np.float64)
        if y.shape != (self.pts.n,):
            raise DomainError(f"y must have length n={self.pts.n}")
        object.__setattr__(self, "y", y)
        if self.fstar is not None:
            f = np.asarray(self.fstar, dtype=np.float64)
            if f.shape != (self.pts.n,):
                raise DomainError(f"fstar must have length n={self.pts.n}")
            object.__setattr__(self, "fstar", f)

    @property
    def n(self) -> int:
        return self.pts.n


@dataclass(frozen=True)
class FitResult:
    """Solver output.

    ``coefficients`` is the n-vector w for variant ``exact`` and the
    m-vector a for variants ``sketched`` / ``nystrom_dual`` (the implied
    expansion weights are then S^T a).  ``fitted`` holds the training-point
    values of the fitted function.  ``rank_deficient`` is set when a
    singular or numerically singular system was resolved by minimum-norm
    pseudo-inversion that truncated directions.
    """

    variant: str
    coefficients: np.ndarray
    sketch: SketchOperator | None
    lambda_n: float
    fitted: np.ndarray
    rank_deficient: bool = False

    def expansion_weights(self) -> np.ndarray:
        """Length-n kernel expansion weights (S^T a for sketched fits)."""
        if self.sketch is None:
            return self.coefficients
        return apply_sketch_t(self.sketch, self.coefficients)


def _check_vector(v, n: int, name: str) -> np.ndarray:
    a = np.asarray(v, dtype=np.float64)
    if a.shape != (n,):
        raise DomainError(f"{name} must be a length-{n} vector, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise DomainError(f"{name} must be finite")
    return a


def _check_lambda(lambda_n: float) -> float:
    if not (lambda_n > 0.0 and math.isfinite(lambda_n)):
        raise DomainError(f"lambda_n must be finite and > 0, got {lambda_n}")
    return float(lambda_n)


def _solve_psd(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, bool]:
    """Solve A x = b for symmetric PSD A.

    Cholesky on the definite path.  When the factorization fails, or
    succeeds with an estimated reciprocal condition number below machine
    epsilon, the minimum-norm least-squares solution from
    :func:`_pinv_psd`, flagged when truncation removed directions.
    """
    try:
        L, lower = sla.cho_factor(A, lower=True, check_finite=False)
    except np.linalg.LinAlgError:
        pass
    else:
        # A is symmetric, so A.T (Fortran-ordered, no copy) has the same 1-norm
        rcond, _ = sla.lapack.dpocon(L, sla.lapack.dlange("1", A.T), uplo="L")
        if rcond >= np.finfo(np.float64).eps:
            return sla.cho_solve((L, lower), b, check_finite=False), False
    pinv, truncated = _pinv_psd(A)
    return pinv @ b, truncated


def _pinv_psd(A: np.ndarray) -> tuple[np.ndarray, bool]:
    """Pseudo-inverse of a symmetric PSD matrix, eigenvalues at or below
    PINV_REL_CUTOFF * largest truncated, and whether any were."""
    w, V = np.linalg.eigh(A)
    cutoff = PINV_REL_CUTOFF * max(float(w[-1]), 0.0)
    keep = w > cutoff
    pinv = (V[:, keep] / w[keep]) @ V[:, keep].T
    return pinv, bool(keep.sum() < A.shape[0])


@dataclass(frozen=True)
class _ShiftedFactor:
    """Cholesky factor of K + 2*lam*I, with the K and lam it was made for."""

    K: KernelMatrix
    lam: float
    cho: tuple[np.ndarray, bool]


def _factor_krr(K: KernelMatrix, lam: float) -> _ShiftedFactor:
    """Factor the exact system K + 2*lam*I, the O(n^3) step of :func:`solve_krr`."""
    try:
        return _ShiftedFactor(K, lam, cho_factor_shifted(K.matrix, 2.0 * lam))
    except np.linalg.LinAlgError as exc:  # unreachable for lam > 0 and PSD K
        raise NumericalError(f"shifted kernel system could not be solved: {exc}") from exc


def solve_krr(
    K: KernelMatrix, y, lambda_n: float, *, _factor: _ShiftedFactor | None = None
) -> FitResult:
    """Exact kernel ridge regression: (K + 2*lam*I) w = y / sqrt(n).

    Factors K + 2*lam*I by Cholesky, O(n^3), then solves with the factor,
    O(n^2).  ``_factor`` is for the sweep (:mod:`sketchkrr.bench`) alone:
    a factor from :func:`_factor_krr` for this same K and lambda_n, kept
    across the trials of a fixed design that share them, so that a call
    pays only the triangular solves and the matvec for the fitted values,
    with the same bits as a fresh factorization.  Such a call's time is
    therefore not the O(n^3) cost of exact KRR.  A factor made for another
    K (another instance, even with equal values) or lambda_n raises
    :class:`DomainError`.
    """
    lam = _check_lambda(lambda_n)
    yv = _check_vector(y, K.n, "y")
    if _factor is None:
        _factor = _factor_krr(K, lam)
    elif _factor.K is not K:
        raise DomainError("factor was made for another kernel matrix")
    elif _factor.lam != lam:
        raise DomainError(f"factor was made for lambda_n={_factor.lam!r}, not {lam!r}")
    omega = sla.cho_solve(_factor.cho, yv / np.sqrt(K.n), check_finite=False)
    fitted = np.sqrt(K.n) * (K.matrix @ omega)
    return FitResult("exact", omega, None, lam, fitted)


def _sketched_normal_system(
    K: KernelMatrix, S: SketchOperator, lam: float
) -> tuple[np.ndarray, np.ndarray]:
    """The m x n product S K and the m x m matrix A = S K (K + 2*lam*I) S^T.

    A gaussian or ros sketch's dense matrix (for ros, its Hadamard rows) is
    built once, and A = S K (S K + 2*lam*S)^T is one GEMM; a fresh dense
    matrix holds S K + 2*lam*S in place.  Sub-sampling gathers rows with
    :func:`apply_sketch`, and its S K S^T is a gather of columns of S K."""
    if S.n != K.n:
        raise DomainError(f"sketch ambient dimension {S.n} != kernel size {K.n}")
    if S.kind == "subsample":
        SK = apply_sketch(S, K.matrix)
        # S K S^T gathered, not multiplied, keeps A exactly symmetric
        return SK, SK @ SK.T + 2.0 * lam * (S.scale * SK[:, S.indices])
    D = _dense(S)
    SK = D @ K.matrix
    if S.kind == "ros":  # rows built for this call: shift in their buffer
        D *= 2.0 * lam
        shifted = D
    else:  # the gaussian operator's own, read-only matrix
        shifted = 2.0 * lam * D
    shifted += SK
    return SK, SK @ shifted.T


def _solve_sketched(
    K: KernelMatrix, rhs: np.ndarray, SK: np.ndarray, A: np.ndarray
) -> tuple[np.ndarray, np.ndarray, bool]:
    b = SK @ rhs / np.sqrt(K.n)
    alpha, rank_def = _solve_psd(A, b)
    fitted = np.sqrt(K.n) * (SK.T @ alpha)
    return alpha, fitted, rank_def


def solve_sketched_krr(K: KernelMatrix, y, S: SketchOperator, lambda_n: float) -> FitResult:
    """Sketched KRR: (S K^2 S^T + 2*lam * S K S^T) a = S K y / sqrt(n)."""
    lam = _check_lambda(lambda_n)
    yv = _check_vector(y, K.n, "y")
    SK, A = _sketched_normal_system(K, S, lam)
    alpha, fitted, rank_def = _solve_sketched(K, yv, SK, A)
    return FitResult("sketched", alpha, S, lam, fitted, rank_deficient=rank_def)


def error_decomposition(
    K: KernelMatrix, z_star, y, S: SketchOperator, lambda_n: float
) -> tuple[float, float, float]:
    """(approximation, estimation, total) squared empirical errors.

    approximation = ||fdag - f*||_n^2 for the zero-noise fit fdag,
    estimation    = ||fdag - fhat||_n^2 against the noisy fit fhat,
    total         = ||fhat - f*||_n^2; half the total never exceeds their sum.
    """
    lam = _check_lambda(lambda_n)
    zv = _check_vector(z_star, K.n, "z_star")
    yv = _check_vector(y, K.n, "y")
    SK, A = _sketched_normal_system(K, S, lam)
    _, fitted_hat, _ = _solve_sketched(K, yv, SK, A)
    _, fitted_dag, _ = _solve_sketched(K, zv, SK, A)
    approx = empirical_error(fitted_dag, zv)
    est = empirical_error(fitted_dag, fitted_hat)
    total = empirical_error(fitted_hat, zv)
    return approx, est, total


def predict(fit: FitResult, spec: KernelSpec, train: DesignPoints, query) -> np.ndarray | float:
    """Evaluate the fitted kernel expansion at query points.

    f(q) = (1/sqrt(n)) * sum_i w_i kernel(q, x_i) with w the expansion
    weights of the fit; at the training points this reproduces ``fitted``.
    """
    w = fit.expansion_weights()
    if w.shape != (train.n,):
        raise DomainError("fit is inconsistent with the training points")
    q = np.asarray(query, dtype=np.float64)
    vals = kernel_eval(spec, q[..., None], train.x) @ w / np.sqrt(train.n)
    if q.ndim == 0:
        return float(vals)
    return vals


def empirical_error(fhat_vals, fstar_vals) -> float:
    """Squared empirical error (1/n) sum_i (fhat(x_i) - f*(x_i))^2."""
    a = np.asarray(fhat_vals, dtype=np.float64)
    b = np.asarray(fstar_vals, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size < 1:
        raise DomainError(f"value vectors must share a 1-D shape, got {a.shape} and {b.shape}")
    d = a - b
    return float(d @ d / a.size)


def solve_dual_krr(K: KernelMatrix, y, lambda_n: float) -> tuple[np.ndarray, np.ndarray]:
    """Dual route to exact KRR.

    Maximizes -(n/(4*lam)) xi^T K xi + xi^T y - (n/2) xi^T xi, i.e. solves
    [(n/(2*lam)) K + n I] xi = y, and recovers w = (sqrt(n)/(2*lam)) xi,
    which matches the primal coefficients.
    """
    lam = _check_lambda(lambda_n)
    yv = _check_vector(y, K.n, "y")
    n = K.n
    A = (n / (2.0 * lam)) * K.matrix + n * np.eye(n)
    try:
        c = sla.cho_factor(A, lower=True, check_finite=False)
        xi = sla.cho_solve(c, yv, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"dual system could not be solved: {exc}") from exc
    omega = (np.sqrt(n) / (2.0 * lam)) * xi
    return xi, omega


def solve_nystrom_dual(K: KernelMatrix, y, S: SketchOperator, lambda_n: float) -> FitResult:
    """Sketched KRR through the dual with the low-rank surrogate
    Ktil = K S^T (S K S^T)^+ S K.

    For a sub-sampling sketch Ktil is the Nystrom approximation of K. The
    dual solve [(n/(2*lam)) Ktil + n I] xi = y recovers
    a = (sqrt(n)/(2*lam)) (S K S^T)^+ S K xi, whose fitted values coincide
    with the primal sketched solution.  Severe ill-conditioning of
    S K S^T is absorbed by the pseudo-inverse and flagged.
    """
    lam = _check_lambda(lambda_n)
    yv = _check_vector(y, K.n, "y")
    n = K.n
    SK = apply_sketch(S, K.matrix)
    SKSt = apply_sketch(S, SK.T)
    gram_pinv, ill = _pinv_psd(0.5 * (SKSt + SKSt.T))
    Ktil = SK.T @ (gram_pinv @ SK)
    A = (n / (2.0 * lam)) * Ktil + n * np.eye(n)
    try:
        c = sla.cho_factor(0.5 * (A + A.T), lower=True, check_finite=False)
        xi = sla.cho_solve(c, yv, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Nystrom dual system could not be solved: {exc}") from exc
    alpha = (np.sqrt(n) / (2.0 * lam)) * (gram_pinv @ (SK @ xi))
    fitted = np.sqrt(n) * (SK.T @ alpha)
    return FitResult("nystrom_dual", alpha, S, lam, fitted, rank_deficient=ill)


def krr_objective(K: KernelMatrix, y, lambda_n: float, omega) -> float:
    """Objective of the exact program at coefficients omega."""
    yv = _check_vector(y, K.n, "y")
    w = _check_vector(omega, K.n, "omega")
    Kw = K.matrix @ w
    return float(0.5 * (Kw @ Kw) - Kw @ yv / np.sqrt(K.n) + lambda_n * (w @ Kw))


def sketched_krr_objective(K: KernelMatrix, y, S: SketchOperator, lambda_n: float, alpha) -> float:
    """Objective of the sketched program at coefficients alpha."""
    return krr_objective(K, y, lambda_n, apply_sketch_t(S, np.asarray(alpha, dtype=np.float64)))


def zero_noise_objective(K: KernelMatrix, z_star, S: SketchOperator, lambda_n: float, alpha) -> float:
    """Objective of the noiseless projected program at coefficients alpha.

    The program minimizes (1/(2n)) ||z* - sqrt(n) K S^T a||^2 +
    lam ||sqrt(K) S^T a||^2; its normal equations are the sketched KRR
    system with y replaced by the true values z*, so its minimizer is
    ``solve_sketched_krr(K, z_star, S, lambda_n).coefficients``.
    """
    zv = _check_vector(z_star, K.n, "z_star")
    w = apply_sketch_t(S, np.asarray(alpha, dtype=np.float64))
    r = zv - np.sqrt(K.n) * (K.matrix @ w)
    return float(r @ r / (2.0 * K.n) + lambda_n * (w @ (K.matrix @ w)))
