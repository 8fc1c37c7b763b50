"""Exact, sketched, and dual solvers for the kernel ridge regression program.

With the 1/n-scaled kernel matrix K, the exact coefficient vector solves

    min_w  (1/2) w^T K^2 w - w^T K y / sqrt(n) + lam * w^T K w,

whose stationarity condition is K[(K + 2*lam*I) w - y/sqrt(n)] = 0; the
shifted system (K + 2*lam*I) w = y/sqrt(n) (positive definite for lam > 0)
is solved on one of two routes.  Given the eigenpairs a kernel matrix's
profile holds (see :mod:`sketchkrr.complexity`): the Ritz pairs of its
Krylov head, whose smallest Ritz value is at most 2*lam at the paper's
lam = 2 delta_n^2, or the full spectrum of its dense fallback, conjugate
gradients preconditioned with those pairs converge in a few O(n^2)
products with K ("sketch and precondition": Avron, Clarkson and Woodruff
2017; Frangella, Tropp and Udell 2023), with no factorization, and stop
at LAPACK dsposv's normwise backward-error test.  Otherwise, or past
``CG_MAX`` iterations, K + 2*lam*I is factored by Cholesky in double
precision, the O(n^3) step of exact KRR that sketching avoids, in
rectangular full packed storage (n (n + 1) / 2 doubles), and solved by
LAPACK's dpftrs, which is backward stable.  The fitted function is
f(.) = (1/sqrt(n)) * sum_i w_i kernel(., x_i), so the training-point
values are sqrt(n) * K w, from products that read one triangle of the
exactly symmetric K: one after the factored solve, or the sum of the
conjugate-gradient steps'.  The factor is made by
:func:`sketchkrr._util.rfp_factor_shifted`; every solve with a Cholesky
factor, packed or full, goes through :func:`sketchkrr._util.solve_factor`,
and every product of K with one vector through
:func:`sketchkrr._util.symv`.

The sketched program restricts w to the row span of an m x n sketch S,
w = S^T a, giving the m-dimensional normal equations

    (S K^2 S^T + 2*lam * S K S^T) a = S K y / sqrt(n).

Their matrix A squares the conditioning of the least-squares problem:
when Cholesky cannot factor A, or estimates its reciprocal condition
number below machine epsilon, the fit is flagged and solved as a ridge
system on a pivoted Cholesky factor of C = S K S^T.  The same normal
equations with y replaced by the noiseless values z* give the zero-noise
projected solution, whose fitted values split the prediction error into
approximation and estimation parts:

    (1/2) ||fhat - f*||_n^2  <=  ||fdag - f*||_n^2 + ||fdag - fhat||_n^2.

Two dual routes are provided as independent checks: the ridge dual
xi = [(n/(2*lam)) K + n I]^{-1} y with w = (sqrt(n)/(2*lam)) xi, and its
sketched counterpart with K replaced by the low-rank surrogate
Ktil = K S^T (S K S^T)^+ S K, which for a sub-sampling sketch is exactly
the Nystrom approximation.  Every n x n system, (K or Ktil) + 2*lam*I,
is factored packed by :func:`_shifted_solve`; ``cho_factor`` serves only
the m x m sketched systems.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from ._util import check_floats, check_positive, check_type, rfp_factor_shifted, solve_factor, symv
from .errors import DomainError, NumericalError
from .kernels import DesignPoints, KernelMatrix, KernelSpec, kernel_eval
from .sketch import SketchOperator, apply_sketch, apply_sketch_t

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

@dataclass(frozen=True)
class RegressionSample:
    """Design points, responses, and (optionally) the true function values."""

    pts: DesignPoints
    y: np.ndarray
    fstar: np.ndarray | None = None

    def __post_init__(self) -> None:
        y = check_floats(self.y, "y")
        if y.shape != (check_type(self.pts, DesignPoints, "pts").n,):
            raise DomainError(f"y must have length n={self.pts.n}")
        object.__setattr__(self, "y", y)
        if self.fstar is not None:
            f = check_floats(self.fstar, "fstar")
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
    values of the fitted function.  ``rank_deficient`` is set on a
    ``sketched`` fit whose A failed the rcond test and was solved through
    the factor of C, and on a ``nystrom_dual`` fit whose C was truncated.
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
    a = check_floats(v, name, finite=True)
    if a.shape != (n,):
        raise DomainError(f"{name} must be a length-{n} vector, got shape {a.shape}")
    return a


# conjugate-gradient iterations the exact solve takes at most on the
# profile's head before it factors K + 2*lam*I instead: with lam = 2
# delta_n^2 it took 1-2 on the gaussian and polynomial(3) kernels and 5-6 on
# sobolev1, on uniform-grid and irregular designs at n = 256 and 1200 and
# sigma = 1 and 0.125, and 1-6 at n = 4096.  An iteration cost about a
# seventieth of the factor at n = 1200 (0.3 against 21-22 ms, one OpenBLAS
# thread), so there a solve that gives way here pays about 1.4 times the
# factor route at most
CG_MAX = 30


def _target(norm: float, w: np.ndarray) -> float:
    """The largest ||r||_inf that LAPACK dsposv's normwise backward-error
    test accepts for the residual r of (K + 2*lam*I) w = b, with norm =
    ||K + 2*lam*I||_F: ||w||_inf norm eps sqrt(n)."""
    return norm * np.finfo(np.float64).eps * math.sqrt(len(w)) * np.abs(w).max()


def _conjugate_gradients(
    K: KernelMatrix, lam: float, b: np.ndarray, head: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray] | None:
    """w with (K + 2*lam*I) w = b, and K w, by conjugate gradients
    preconditioned with the eigenpairs (theta, V) of the profile's head;
    None if CG_MAX iterations do not converge.

    P^-1 r = r + V ((theta_min + 2*lam) / (theta + 2*lam) - 1) * (V^T r)
    maps the head's span of K + 2*lam*I to about theta_min + 2*lam and
    leaves its complement, where K's eigenvalues lie below about theta_min,
    as it is (Frangella, Tropp and Udell 2023).  On the full spectrum of
    the profile's dense fallback P^-1 is (K + 2*lam*I)^-1 up to that
    scale: one iteration solves to rounding, which sits at the size of the
    stop test, and a second one at most meets it.  Each iteration takes one
    product K p; K w is carried as the sum of those products, and the
    residual b - K w - 2*lam*w formed from it in double meets dsposv's
    test (:func:`_target`), with ||K + 2*lam*I||_F bounded
    from below through the head: by Cauchy's interlacing theorem the k
    Ritz values lie below K's k largest eigenvalues, and the other n - k
    are at least 0, so the test is at least as strict.  The exact norm, a
    pass over K, took 0.67 ms of a 1.2 ms one-iteration solve at n = 1200.
    """
    theta, V = head
    shift = 2.0 * lam
    scale = (theta[-1] + shift) / (theta + shift) - 1.0
    norm = math.sqrt(np.sum((theta + shift) ** 2) + (len(b) - len(theta)) * shift * shift)
    w, Kw, p = np.zeros_like(b), np.zeros_like(b), np.zeros_like(b)
    r, rz = b, 1.0
    for iteration in itertools.count():
        if np.abs(r).max() <= _target(norm, w):
            return w, Kw
        if iteration == CG_MAX:
            return None
        z = r + V @ (scale * (V.T @ r))
        rz, previous = r @ z, rz
        p = z + (rz / previous) * p
        Kp = symv(K.matrix, p)
        alpha = rz / (p @ Kp + shift * (p @ p))
        w += alpha * p
        Kw += alpha * Kp
        r = b - Kw - shift * w


def solve_krr(
    K: KernelMatrix, y, lambda_n: float, *, _head: tuple[np.ndarray, np.ndarray] | None = None
) -> FitResult:
    """Exact kernel ridge regression: (K + 2*lam*I) w = y / sqrt(n).

    Both routes take the fitted values sqrt(n) K w from their products with
    K, not from y - 2*lam*sqrt(n) w, which loses relative accuracy once lam
    is well above K's top eigenvalue.

    - ``_head``, the eigenpairs a profile of K holds (see
      :class:`sketchkrr.ComplexityProfile`), is for the sweep
      (:mod:`sketchkrr.bench`) alone.  With one whose smallest value is at
      most 2*lam, as it always is at the paper's lam = 2 delta_n^2, the
      solve runs conjugate gradients preconditioned with it
      (:func:`_conjugate_gradients`) to LAPACK dsposv's backward-error
      test: O(n^2) per iteration and no factorization.  On
      random-design-sweep's first trial (gaussian kernel, irregular design,
      n = 1200) it took one iteration and 0.35-0.40 ms against 23-24 for
      the factor route, and on grid-sweep's K (sobolev1, uniform grid, n =
      1024) 5 iterations and 1.5 ms (one OpenBLAS thread).  Past
      ``CG_MAX`` iterations it takes the factor route.
    - The factor route factors K + 2*lam*I by Cholesky in double
      precision into n (n + 1) / 2 doubles
      (:func:`sketchkrr._util.rfp_factor_shifted`), the O(n^3) cost of
      exact KRR, and solves by LAPACK's RFP solve dpftrs, two triangular
      passes, then forms K w by one product that reads one triangle (BLAS
      dsymv).  At n = 1024 a solve took 18-19 ms (grid-sweep's K, one
      OpenBLAS thread).  Every call without a head takes it.
    """
    lam = check_positive(lambda_n, "lambda_n")
    yv = _check_vector(y, check_type(K, KernelMatrix, "K").n, "y")
    b = yv / np.sqrt(K.n)
    solved = None
    if _head is not None and _head[0][-1] <= 2.0 * lam:
        solved = _conjugate_gradients(K, lam, b, _head)
    if solved is None:
        omega = _shifted_solve(K.matrix, 2.0 * lam, b, "shifted kernel")
        solved = omega, symv(K.matrix, omega)
    omega, Kw = solved
    return FitResult("exact", omega, None, lam, np.sqrt(K.n) * Kw)


def _check_sketch_size(S: SketchOperator, K: KernelMatrix) -> None:
    if check_type(S, SketchOperator, "S").n != check_type(K, KernelMatrix, "K").n:
        raise DomainError(f"sketch ambient dimension {S.n} != kernel size {K.n}")


# rows per block of the 1-norm of A's triangle: 32 rows of an m x m
# float64 matrix are 0.24 MB at m = 924, where the norm took 0.9 ms against
# 0.6 for LAPACK's dlange on a full A
_ROW_BLOCK = 32


def _sketched_normal_system(
    K: KernelMatrix, S: SketchOperator, lam: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The m x n product S K, and C = S K S^T and A = S K (K + 2*lam*I) S^T
    = S K (S K)^T + 2*lam * C in one m x m array G, with C's diagonal.

    Every family forms S K and C = S (S K)^T through :func:`apply_sketch`;
    against the one GEMM S K (S K + 2*lam*S)^T with dense ros rows this
    took 29 against 41 ms at m = 924, n = 1024 (sobolev1, one BLAS
    thread).  BLAS dsyrk then writes A over C's upper triangle (C order,
    diagonal included) in place, so the fit's peak holds S K and the one
    m x m array.  G's strict lower triangle is still C's, so a flagged fit
    restores the diagonal and factors C (:func:`_gram_factor`) without
    applying S a third time.
    """
    _check_sketch_size(S, K)
    SK = apply_sketch(S, K.matrix)
    G = np.ascontiguousarray(apply_sketch(S, SK.T))
    c_diag = G.diagonal().copy()
    # G is C-ordered, so G.T is Fortran-ordered and dsyrk writes into it in
    # place: its lower triangle is G's upper one
    sla.blas.dsyrk(1.0, SK.T, beta=2.0 * lam, c=G.T, trans=1, lower=1, overwrite_c=1)
    return SK, G, c_diag


def _triangle_norm1(G: np.ndarray) -> float:
    """1-norm of the symmetric matrix whose upper triangle (C order,
    diagonal included) is G's, a block of rows at a time: of rows i..i+b,
    columns i.. hold the triangle's entries, whose column sums add to those
    columns and, by symmetry, whose row sums add to columns i..i+b."""
    cols = np.arange(len(G))
    sums = -np.abs(G.diagonal())  # the diagonal is counted twice below
    for i in range(0, len(G), _ROW_BLOCK):
        rows = cols[i : i + _ROW_BLOCK]
        block = np.abs(G[i : i + _ROW_BLOCK, i:])
        block[:, : len(rows)][rows < rows[:, None]] = 0.0  # C's entries
        sums[i:] += block.sum(axis=0)
        sums[i : i + len(rows)] += block.sum(axis=1)
    return float(sums.max())


def _gram_factor(C: np.ndarray, SK: np.ndarray) -> tuple[np.ndarray, Callable, bool]:
    """Z^T = L^{-1} P^T S K, the map b -> a = P L^{-T} b, and whether rows were
    dropped, from LAPACK's pivoted Cholesky P^T C P = L L^T of C = S K S^T.

    ``dpstrf`` keeps the r rows of S (P) before the Schur complement of C
    falls to its rank tolerance m * eps * max diag C.  On them a^T C a =
    ||b||^2, so the sketched program is a ridge regression of y / sqrt(n) on
    Z, with condition number at most 1 + ||K|| / (2*lam); and Ktil = Z Z^T.
    """
    L, piv, rank, _ = sla.lapack.dpstrf(C, lower=1)
    m, keep, L = len(C), piv[:rank] - 1, L[:rank, :rank]

    def lift(b: np.ndarray) -> np.ndarray:
        a = np.zeros((m, *b.shape[1:]))
        a[keep] = sla.solve_triangular(L, b, trans="T", lower=True, check_finite=False)
        return a

    return sla.solve_triangular(L, SK[keep], lower=True, check_finite=False), lift, rank < m


def _solve_sketched(
    K: KernelMatrix, S: SketchOperator, lam: float, rhs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Coefficients, fitted values and fallback flag for ``rhs`` (n or n x k).

    Cholesky of A, unless it fails or ``dpocon`` estimates rcond(A) below
    machine epsilon; then the ridge system of :func:`_gram_factor`, flagged.
    """
    SK, G, c_diag = _sketched_normal_system(K, S, lam)
    norm = _triangle_norm1(G)
    try:
        # G.T, Fortran-ordered, holds A in its lower triangle and is
        # factored in place, with no m x m copy
        L, _ = sla.cho_factor(G.T, lower=True, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError:
        pass
    else:
        rcond, _ = sla.lapack.dpocon(L, norm, uplo="L")
        if rcond >= np.finfo(np.float64).eps:
            alpha = solve_factor(L, SK @ rhs / np.sqrt(K.n))
            return alpha, np.sqrt(K.n) * (SK.T @ alpha), False
    # the factorization left G's strict lower triangle, C's, untouched
    np.fill_diagonal(G, c_diag)
    Zt, lift, _ = _gram_factor(G, SK)
    ridge, _ = sla.cho_factor(Zt @ Zt.T + 2.0 * lam * np.eye(len(Zt)), lower=True, check_finite=False)
    alpha = lift(solve_factor(ridge, Zt @ rhs / np.sqrt(K.n)))
    return alpha, np.sqrt(K.n) * (SK.T @ alpha), True


def solve_sketched_krr(K: KernelMatrix, y, S: SketchOperator, lambda_n: float) -> FitResult:
    """Sketched KRR: (S K^2 S^T + 2*lam * S K S^T) a = S K y / sqrt(n)."""
    lam = check_positive(lambda_n, "lambda_n")
    yv = _check_vector(y, check_type(K, KernelMatrix, "K").n, "y")
    alpha, fitted, fallback = _solve_sketched(K, S, lam, yv)
    return FitResult("sketched", alpha, S, lam, fitted, rank_deficient=fallback)


def error_decomposition(
    K: KernelMatrix, z_star, y, S: SketchOperator, lambda_n: float
) -> tuple[float, float, float]:
    """(approximation, estimation, total) squared empirical errors.

    approximation = ||fdag - f*||_n^2 for the zero-noise fit fdag,
    estimation    = ||fdag - fhat||_n^2 against the noisy fit fhat,
    total         = ||fhat - f*||_n^2; half the total never exceeds their sum.
    """
    lam = check_positive(lambda_n, "lambda_n")
    zv = _check_vector(z_star, check_type(K, KernelMatrix, "K").n, "z_star")
    yv = _check_vector(y, K.n, "y")
    # one factorization for both responses
    _, fitted, _ = _solve_sketched(K, S, lam, np.stack([yv, zv], axis=1))
    fitted_hat, fitted_dag = fitted.T
    approx = empirical_error(fitted_dag, zv)
    est = empirical_error(fitted_dag, fitted_hat)
    total = empirical_error(fitted_hat, zv)
    return approx, est, total


def predict(fit: FitResult, spec: KernelSpec, train: DesignPoints, query) -> np.ndarray | float:
    """Evaluate the fitted kernel expansion at query points.

    f(q) = (1/sqrt(n)) * sum_i w_i kernel(q, x_i) with w the expansion
    weights of the fit; at the training points this reproduces ``fitted``.
    """
    w = check_type(fit, FitResult, "fit").expansion_weights()
    if w.shape != (check_type(train, DesignPoints, "train").n,):
        raise DomainError("fit is inconsistent with the training points")
    q = check_floats(query, "query")
    vals = kernel_eval(spec, q[..., None], train.x) @ w / np.sqrt(train.n)
    if q.ndim == 0:
        return float(vals)
    return vals


def empirical_error(fhat_vals, fstar_vals) -> float:
    """Squared empirical error (1/n) sum_i (fhat(x_i) - f*(x_i))^2 of finite values."""
    a = check_floats(fhat_vals, "fhat_vals", finite=True)
    b = check_floats(fstar_vals, "fstar_vals", finite=True)
    if a.shape != b.shape or a.ndim != 1 or a.size < 1:
        raise DomainError(f"value vectors must share a 1-D shape, got {a.shape} and {b.shape}")
    d = a - b
    return float(d @ d / a.size)


def _shifted_solve(X: np.ndarray, shift: float, b: np.ndarray, name: str) -> np.ndarray:
    """x with (X + shift * I) x = b for a symmetric n x n X, on the packed
    factor of :func:`sketchkrr._util.rfp_factor_shifted` (no copy of X); a
    failure is a :class:`NumericalError` that names the system."""
    try:
        return solve_factor(rfp_factor_shifted(X, shift), b)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"{name} system could not be solved: {exc}") from exc


def solve_dual_krr(K: KernelMatrix, y, lambda_n: float) -> tuple[np.ndarray, np.ndarray]:
    """Dual route to exact KRR.

    Maximizes -(n/(4*lam)) xi^T K xi + xi^T y - (n/2) xi^T xi, i.e. solves
    [(n/(2*lam)) K + n I] xi = y, and recovers w = (sqrt(n)/(2*lam)) xi,
    which matches the primal coefficients.  It is solved as (K + 2*lam*I)
    xi = (2*lam/n) y (:func:`_shifted_solve`), with no scaled copy of K.
    """
    lam = check_positive(lambda_n, "lambda_n")
    yv = _check_vector(y, check_type(K, KernelMatrix, "K").n, "y")
    xi = _shifted_solve(K.matrix, 2.0 * lam, (2.0 * lam / K.n) * yv, "dual")
    omega = (np.sqrt(K.n) / (2.0 * lam)) * xi
    return xi, omega


def solve_nystrom_dual(K: KernelMatrix, y, S: SketchOperator, lambda_n: float) -> FitResult:
    """Sketched KRR through the dual with the low-rank surrogate
    Ktil = K S^T (S K S^T)^+ S K.

    For a sub-sampling sketch Ktil is the Nystrom approximation of K.  It is
    Z Z^T from the pivoted Cholesky factor of S K S^T (:func:`_gram_factor`),
    which drops the rows of S below LAPACK's rank tolerance; the fit is then
    flagged.  The dual solve [(n/(2*lam)) Ktil + n I] xi = y, taken as
    (Ktil + 2*lam*I) xi = (2*lam/n) y, recovers a = (sqrt(n)/(2*lam))
    (S K S^T)^+ S K xi, whose fitted values match the primal sketched fit.
    """
    lam = check_positive(lambda_n, "lambda_n")
    yv = _check_vector(y, check_type(K, KernelMatrix, "K").n, "y")
    _check_sketch_size(S, K)
    n = K.n
    SK = apply_sketch(S, K.matrix)
    Zt, lift, truncated = _gram_factor(apply_sketch(S, SK.T), SK)
    xi = _shifted_solve(Zt.T @ Zt, 2.0 * lam, (2.0 * lam / n) * yv, "Nystrom dual")
    alpha = lift((np.sqrt(n) / (2.0 * lam)) * (Zt @ xi))
    fitted = np.sqrt(n) * (SK.T @ alpha)
    return FitResult("nystrom_dual", alpha, S, lam, fitted, rank_deficient=truncated)


def krr_objective(K: KernelMatrix, y, lambda_n: float, omega) -> float:
    """Objective of the exact program at coefficients omega."""
    lam = check_positive(lambda_n, "lambda_n")
    yv = _check_vector(y, check_type(K, KernelMatrix, "K").n, "y")
    w = _check_vector(omega, K.n, "omega")
    Kw = symv(K.matrix, w)
    return float(0.5 * (Kw @ Kw) - Kw @ yv / np.sqrt(K.n) + lam * (w @ Kw))


def sketched_krr_objective(K: KernelMatrix, y, S: SketchOperator, lambda_n: float, alpha) -> float:
    """Objective of the sketched program at coefficients alpha."""
    _check_sketch_size(S, K)
    return krr_objective(K, y, lambda_n, apply_sketch_t(S, _check_vector(alpha, S.m, "alpha")))


def zero_noise_objective(K: KernelMatrix, z_star, S: SketchOperator, lambda_n: float, alpha) -> float:
    """Objective of the noiseless projected program at coefficients alpha.

    The program minimizes (1/(2n)) ||z* - sqrt(n) K S^T a||^2 +
    lam ||sqrt(K) S^T a||^2; its normal equations are the sketched KRR
    system with y replaced by the true values z*, so its minimizer is
    ``solve_sketched_krr(K, z_star, S, lambda_n).coefficients``.  Expanded,
    it is the sketched objective at y = z* plus the constant z*^T z* / (2n).
    """
    zv = _check_vector(z_star, check_type(K, KernelMatrix, "K").n, "z_star")
    return float(sketched_krr_objective(K, zv, S, lambda_n, alpha) + zv @ zv / (2.0 * K.n))
