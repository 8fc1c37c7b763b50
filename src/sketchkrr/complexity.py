"""Kernel complexity function, critical radius, and statistical dimension.

Given a spectrum mu_1 >= mu_2 >= ... >= 0 and a sample count n, the
complexity at level delta is the truncated-eigenvalue sum

    R(delta) = sqrt( (1/n) * sum_j min(delta^2, mu_j) ),

which is nondecreasing in delta while R(delta)/delta is nonincreasing.  The
critical radius delta_n is the smallest delta > 0 with
R(delta)/delta <= delta/sigma; because the left side decreases and the
right side increases, it is found by bracketing then bisection.  The
statistical dimension d_n counts the eigenvalues exceeding delta_n^2 and
plays the role of an effective degrees-of-freedom (and of the target
sketch size).

Of a kernel matrix only the top eigenvalues and trace(K) are needed: with
mu_{k+1} <= delta^2,

    sum_j min(delta^2, mu_j) = sum_{j<=k} min(delta^2, mu_j) + (tr K - sum_{j<=k} mu_j).

``complexity_profile`` given a :class:`KernelMatrix` therefore works from
a head spectrum: the k Ritz values of a fixed-seed randomized block Krylov
space of K (Halko, Martinsson and Tropp 2011; Musco and Musco 2015), with
an error estimate for each value.  The space grows, never restarting, by
one block of 8 columns and one O(n^2 * 8) product with K at a time, so k
= 8, 16, 24, ..., until the k-th Ritz value plus its error estimate is at
most delta_n^2 / 2 and the error estimates of the leading d_n + 1 values
are within 1e-10 * delta_n^2.  Once k would pass both n/4 and 48, or at
once if 32 > n, it uses the full spectrum of ``K.eig()``.  A matrix from ``build_kernel_matrix`` is PSD
at working precision by construction (its docstring gives the argument)
and is not checked again; for any other matrix, after the first head, K +
1e-10 * theta_1 * I must have a Cholesky factor, or the profile raises
:class:`NumericalError`.  The result depends only on (K, n, sigma), and n
must be the size of K.  The error estimates are a-posteriori (their
quadratic term divides by gaps between Ritz values, not between
eigenvalues), so this path estimates delta_n and d_n rather than
certifying them; the tests check it against dense ``eigvalsh`` (d_n
exact, delta_n within 1e-9 relative) for three kernels, three designs and
n from 64 to 1200.

The module also provides population-level spectra for the three built-in
kernel families, used for rate checks against the known decay of delta_n^2
(~ 1/n for a rank-(D+1) polynomial kernel, ~ sqrt(log n)/n for the
gaussian kernel, ~ n^(-2/3) for the first-order Sobolev kernel).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._util import block_krylov, check_count, cho_factor_shifted
from .errors import DomainError, NumericalError
from .kernels import EIG_CLAMP_REL, KernelMatrix, KernelSpec

__all__ = [
    "ComplexityProfile",
    "kernel_complexity",
    "critical_radius",
    "statistical_dimension",
    "complexity_profile",
    "population_eigenvalues",
    "rate_exponent_check",
]

BISECT_REL_TOL = 1e-10
BISECT_MAX_STEPS = 200

# head spectrum: the eigensolver's block size (the first head's size), and
# the error estimate its leading Ritz values must reach, relative to delta_n^2
HEAD_START = 8
RITZ_REL_TOL = 1e-10


@dataclass(frozen=True)
class ComplexityProfile:
    """Critical radius and statistical dimension of one kernel matrix."""

    sigma: float
    delta_n: float
    delta_n_sq: float
    d_n: int
    n: int


def _check_spectrum(mu_hat) -> np.ndarray:
    mu = np.asarray(mu_hat, dtype=np.float64)
    if mu.ndim != 1 or mu.size < 1:
        raise DomainError("spectrum must be a nonempty 1-D sequence")
    if not np.isfinite(mu).all() or mu.min() < 0.0:
        raise DomainError("spectrum must be finite and nonnegative")
    return mu


def kernel_complexity(mu_hat, n: int, delta: float) -> float:
    """R(delta) = sqrt((1/n) * sum_j min(delta^2, mu_j))."""
    mu = _check_spectrum(mu_hat)
    check_count(n, "n", 1)
    if not delta >= 0.0:
        raise DomainError(f"delta must be >= 0, got {delta}")
    return float(np.sqrt(np.minimum(delta * delta, mu).sum() / n))


def critical_radius(mu_hat, n: int, sigma: float) -> float:
    """Smallest delta > 0 with R(delta)/delta <= delta/sigma.

    Returns 0.0 for an all-zero spectrum (the inequality then holds for
    every positive delta).  Found by halving/doubling until the sign change
    is bracketed, then bisecting to relative tolerance 1e-10; the returned
    value sits on the feasible side of the bracket.
    """
    _check_sigma(sigma)
    return _critical_radius(_check_spectrum(mu_hat), 0.0, n, sigma)


def _check_sigma(sigma: float) -> None:
    if not 0.0 < sigma < math.inf:
        raise DomainError(f"sigma must be finite and > 0, got {sigma}")


def _critical_radius(mu: np.ndarray, tail: float, n: int, sigma: float) -> float:
    """critical_radius of the spectrum mu followed by eigenvalues of total
    mass ``tail``, each taken to lie below the root's delta^2; sigma is
    checked by the caller."""
    check_count(n, "n", 1)
    if mu.max() == 0.0 and tail == 0.0:
        return 0.0

    def excess(delta: float) -> float:
        # R(delta)/delta - delta/sigma; strictly decreasing in delta
        return np.sqrt((np.minimum(delta * delta, mu).sum() + tail) / n) / delta - delta / sigma

    lo = min(sigma, 1e-3)
    while excess(lo) <= 0.0:
        lo /= 2.0
        if lo < 1e-300:
            return 0.0
    hi = lo
    doublings = 0
    while excess(hi) > 0.0:
        hi *= 2.0
        doublings += 1
        if doublings > BISECT_MAX_STEPS:
            raise NumericalError("critical radius bracketing did not terminate")
    for _ in range(BISECT_MAX_STEPS):
        if hi - lo <= BISECT_REL_TOL * hi:
            break
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    else:
        raise NumericalError("critical radius bisection did not converge")
    return hi


def statistical_dimension(mu_hat, delta_n: float) -> int:
    """Number of eigenvalues strictly above delta_n^2 (n if all exceed it)."""
    mu = _check_spectrum(mu_hat)
    return int((mu > delta_n * delta_n).sum())


def complexity_profile(mu_hat, n: int, sigma: float) -> ComplexityProfile:
    """Critical radius and statistical dimension for one spectrum, or for a
    :class:`KernelMatrix` of size n from its head spectrum (see the module
    docstring)."""
    _check_sigma(sigma)  # before any work on K
    if isinstance(mu_hat, KernelMatrix):
        delta_n, d_n = _matrix_profile(mu_hat, n, sigma)
    else:
        delta_n = critical_radius(mu_hat, n, sigma)
        d_n = statistical_dimension(mu_hat, delta_n)
    return ComplexityProfile(
        sigma=float(sigma), delta_n=delta_n, delta_n_sq=delta_n * delta_n, d_n=d_n, n=int(n)
    )


def _matrix_profile(K: KernelMatrix, n: int, sigma: float) -> tuple[float, int]:
    if n != K.n:
        raise DomainError(f"profile size n={n} does not match the kernel matrix size {K.n}")
    matrix = K.matrix
    trace = float(np.trace(matrix))
    # heads of k = 8, 16, ... while 4k <= n or k <= 48 (sobolev1 at n = 64
    # needs six blocks to settle), and none if 4 HEAD_START > n
    blocks = max(n // (4 * HEAD_START), 6) if 4 * HEAD_START <= n else 0
    heads = block_krylov(lambda X: matrix @ X, n, HEAD_START)
    for theta, residuals in itertools.islice(heads, blocks):
        # K is the same for every head: one PSD check suffices, and none for
        # a matrix PSD by construction (see build_kernel_matrix)
        if theta.size == HEAD_START and not K._proven:
            _check_psd(matrix, max(float(theta[0]), 0.0))
        # error estimates: the residual, or residual^2 / gap to the nearest
        # other Ritz value if smaller (see the module docstring)
        gaps = np.abs(np.diff(theta))
        gap = np.minimum(np.r_[np.inf, gaps], np.r_[gaps, np.inf])
        with np.errstate(divide="ignore", invalid="ignore"):
            bounds = np.fmin(residuals, residuals * residuals / gap)
        # Ritz values never exceed the eigenvalues they approximate, so
        # trace(K) minus their sum is at least the mass below the head
        theta = np.clip(theta, 0.0, None)
        delta = _critical_radius(theta, max(trace - float(theta.sum()), 0.0), n, sigma)
        dsq = delta * delta
        d_n = int((theta > dsq).sum())
        if theta[-1] + bounds[-1] <= dsq / 2.0 and (bounds[: d_n + 1] <= RITZ_REL_TOL * dsq).all():
            return delta, d_n
    # the dense spectrum: where this fires (sobolev1, n = 1024, sigma = 0.002)
    # the head settles only at 60 blocks, in 0.84 s; this way takes 0.42 s
    mu = K.eigenvalues
    delta = critical_radius(mu, n, sigma)
    return delta, statistical_dimension(mu, delta)


def _check_psd(matrix: np.ndarray, top: float) -> None:
    """Raise unless K + 1e-10 * top * I has a Cholesky factor, top being
    the largest Ritz value clamped at zero; with top = 0 only the zero
    matrix is PSD."""
    shift = EIG_CLAMP_REL * top
    if shift > 0.0:
        try:
            cho_factor_shifted(matrix, shift)
            return
        except np.linalg.LinAlgError:
            pass
    elif not matrix.any():
        return
    raise NumericalError(
        f"matrix is not PSD at working precision: K + {shift:.3e} * I "
        "(1e-10 times the largest Ritz value) has no Cholesky factor"
    )


def population_eigenvalues(spec: KernelSpec, j_max: int) -> np.ndarray:
    """First j_max population eigenvalues of the kernel integral operator.

    polynomial(D): rank model with D+1 unit eigenvalues, zero beyond.
    gaussian(h):   exp(-pi * h^2 * j^2).
    sobolev1:      (2 / ((2j - 1) * pi))^2.
    """
    if j_max < 1:
        raise DomainError(f"j_max must be >= 1, got {j_max}")
    j = np.arange(1, j_max + 1, dtype=np.float64)
    if spec.kind == "polynomial":
        return np.where(j <= spec.degree + 1, 1.0, 0.0)
    if spec.kind == "gaussian":
        return np.exp(-np.pi * spec.bandwidth**2 * j**2)
    return (2.0 / ((2.0 * j - 1.0) * np.pi)) ** 2


def rate_exponent_check(spec: KernelSpec, n_grid, sigma: float) -> float:
    """Least-squares slope of log(delta_n^2) against log(n).

    delta_n is computed from the population spectrum truncated at j_max = n
    for each n in the grid.  The slope estimates the decay exponent of the
    squared critical radius (-1 for polynomial, -2/3 for sobolev1, -1 up to
    a slowly varying factor for gaussian).
    """
    ns = np.asarray(n_grid, dtype=np.int64)
    if ns.size < 4 or (np.diff(ns) <= 0).any():
        raise DomainError("n_grid must be increasing with at least 4 entries")
    log_dsq = np.empty(ns.size)
    for i, n in enumerate(ns):
        mu = population_eigenvalues(spec, int(n))
        delta = critical_radius(mu, int(n), sigma)
        log_dsq[i] = np.log(delta * delta)
    slope = np.polyfit(np.log(ns.astype(np.float64)), log_dsq, 1)[0]
    return float(slope)
