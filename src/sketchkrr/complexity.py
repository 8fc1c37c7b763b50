"""Kernel complexity function, critical radius, and statistical dimension.

Given a spectrum mu_1 >= mu_2 >= ... >= 0 and a sample count n, the
complexity at level delta is the truncated-eigenvalue sum

    R(delta) = sqrt( (1/n) * sum_j min(delta^2, mu_j) ),

which is nondecreasing in delta while R(delta)/delta is nonincreasing.  The
critical radius delta_n is the smallest delta > 0 with
R(delta)/delta <= delta/sigma.  It has a closed form: with t = delta^2,
n R(delta)^2 is the lower envelope min_k (k t + s_k) of one line per
eigenvalue count k, s_k being the mass of the eigenvalues after the k-th
largest, so delta_n^2 is the least over k of the positive root of
n t^2 = sigma^2 (k t + s_k), exact to rounding.  The statistical
dimension d_n counts the eigenvalues exceeding delta_n^2 and plays the role
of an effective degrees-of-freedom (and of the target sketch size).

Of a kernel matrix only the top eigenvalues and trace(K) are needed: with
mu_{k+1} <= delta^2,

    sum_j min(delta^2, mu_j) = sum_{j<=k} min(delta^2, mu_j) + (tr K - sum_{j<=k} mu_j).

``complexity_profile`` given a :class:`KernelMatrix` therefore works from a
head spectrum: the k Ritz values of a fixed-seed randomized block Krylov
space of K (Halko, Martinsson and Tropp 2011; Musco and Musco 2015), with
an error estimate for each value.  The space grows, never restarting, by
one block of 8 columns (orthonormalized by two Householder QRs) and one
O(n^2 * 8) product with K at a time, so k = 8, 16, 24, ..., until the k-th
Ritz value plus its error estimate is at most delta_n^2 / 2 and the error
estimates of the leading d_n + 1 values are within 1e-10 * delta_n^2.  Once
k would pass both n/4 and 48, or at once if 32 > n, it uses the full
spectrum of ``K.eig()``; so it does too once the head's d_n, a lower bound,
puts ``HEAD_SPAN`` (d_n + 1), about the head size it needs to settle,
beyond the last k it may reach.  The profile keeps the eigenpairs it
settled on, the head's Ritz pairs or those of ``K.eig()``, for the exact
solve to precondition with (see :func:`sketchkrr.solve_krr`).  The profile
checks nothing about PSD-ness: a :class:`KernelMatrix` is PSD at working
precision by type, proven for a built matrix and checked once at
construction for any other (see :mod:`sketchkrr.kernels`).  The result
depends only on (K, n, sigma), and n must be the size of K.  Every head
gives an upper bound on delta_n and a lower bound on d_n, to rounding: by
Cauchy's interlacing theorem each Ritz value is at most the eigenvalue of
its rank, so the head's tail mass tr K - sum theta is at least the
truncated mass it stands for, and its R is never below the true R.  The
error estimates are a-posteriori (their quadratic term divides by gaps
between Ritz values, not between eigenvalues), so they do not certify how
tight that bound is; the tests check it against dense ``eigvalsh`` (d_n
exact, delta_n within 1e-9 relative), and the bound's side at every head
read, for three kernels, three designs and n from 64 to 1200.

The module also provides population-level spectra for the three built-in
kernel families, used for rate checks against the known decay of delta_n^2
(~ 1/n for a rank-(D+1) polynomial kernel, ~ sqrt(log n)/n for the
gaussian kernel, ~ n^(-2/3) for the first-order Sobolev kernel).
"""

from __future__ import annotations

import itertools
import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from ._util import block_krylov, check_count, check_floats, check_positive, check_type, symv
from .errors import DomainError
from .kernels import KernelMatrix, KernelSpec

__all__ = [
    "ComplexityProfile",
    "kernel_complexity",
    "critical_radius",
    "statistical_dimension",
    "complexity_profile",
    "population_eigenvalues",
    "rate_exponent_check",
]

# head spectrum: the eigensolver's block size (the first head's size), and
# the error estimate its leading Ritz values must reach, relative to delta_n^2
HEAD_START = 8
RITZ_REL_TOL = 1e-10
# a head settles only once it holds about this many times d_n + 1 Ritz
# values (2.9-3.1 at d_n = 43-51 on sobolev1, n = 1024, sigma = 0.02; more
# at smaller d_n); it gives way to the dense spectrum once its d_n, a
# lower bound, puts that above the Ritz values its blocks can reach
HEAD_SPAN = 3


@dataclass(frozen=True)
class ComplexityProfile:
    """Critical radius and statistical dimension of one kernel matrix.

    ``_head`` is the package's own: for a :class:`KernelMatrix`'s profile,
    the Ritz values (clipped at zero, descending) and orthonormal n x k
    Ritz vectors of the Krylov head it settled on, or, from the dense
    fallback, the clamped eigenvalues and eigenvectors of ``K.eig()``
    itself (k = n, not copied); None only for a profile of a spectrum.  It
    takes no part in comparison or repr, and preconditions the exact solve
    (:func:`sketchkrr.solve_krr`).
    """

    sigma: float
    delta_n: float
    d_n: int
    n: int
    _head: tuple[np.ndarray, np.ndarray] | None = field(default=None, compare=False, repr=False)

    @property
    def delta_n_sq(self) -> float:
        """delta_n^2, from delta_n itself, so the two cannot disagree."""
        return self.delta_n * self.delta_n


def _check_spectrum(mu_hat) -> np.ndarray:
    mu = check_floats(mu_hat, "spectrum", finite=True)
    if mu.ndim != 1 or mu.size < 1:
        raise DomainError("spectrum must be a nonempty 1-D sequence")
    if mu.min() < 0.0:
        raise DomainError("spectrum must be nonnegative")
    return mu


def kernel_complexity(mu_hat, n: int, delta: float) -> float:
    """R(delta) = sqrt((1/n) * sum_j min(delta^2, mu_j))."""
    mu = _check_spectrum(mu_hat)
    check_count(n, "n", 1)
    if not (isinstance(delta, numbers.Real) and delta >= 0.0):
        raise DomainError(f"delta must be >= 0, got {delta!r}")
    return float(np.sqrt(np.minimum(delta * delta, mu).sum() / n))


def critical_radius(mu_hat, n: int, sigma: float) -> float:
    """Smallest delta > 0 with R(delta)/delta <= delta/sigma.

    Returns 0.0 for an all-zero spectrum (the inequality then holds for
    every positive delta).  delta_n^2 is the least root of one quadratic per
    eigenvalue count (see the module docstring), so the result is exact to
    rounding; the spectrum need not be sorted.
    """
    check_positive(sigma, "sigma")
    return _critical_radius(_check_spectrum(mu_hat), 0.0, n, sigma)


def _critical_radius(mu: np.ndarray, tail: float, n: int, sigma: float) -> float:
    """critical_radius of the spectrum mu followed by eigenvalues of total
    mass ``tail``, each taken to lie below the root's delta^2; sigma is
    checked by the caller.

    With t = delta^2 and mu sorted descending, n R(delta)^2 = min_k (k t +
    s_k) over k = 0..len(mu), s_k = tail + sum_{j>k} mu_j, so t is feasible
    once sigma^2 (k t + s_k) <= n t^2 for one k: delta_n^2 is the least of
    the positive roots sigma (sigma k + sqrt(sigma^2 k^2 + 4 n s_k)) / (2n).
    """
    check_count(n, "n", 1)
    s = np.cumsum(np.r_[tail, np.sort(mu)])[::-1]
    sk = sigma * np.arange(s.size)
    # hypot squares nothing; for a huge sigma the roots of k >= 1 overflow
    # to inf and drop out, while the k = 0 root sigma sqrt(s_0 / n) stays finite
    with np.errstate(over="ignore"):
        roots = sigma * (sk + np.hypot(sk, 2.0 * np.sqrt(n * s))) / (2 * n)
    return float(np.sqrt(roots.min()))


def statistical_dimension(mu_hat, delta_n: float) -> int:
    """Number of eigenvalues strictly above delta_n^2 (n if all exceed it)."""
    mu = _check_spectrum(mu_hat)
    if not (isinstance(delta_n, numbers.Real) and 0.0 <= delta_n < math.inf):
        raise DomainError(f"delta_n must be finite and >= 0, got {delta_n!r}")
    return int((mu > delta_n * delta_n).sum())


def complexity_profile(mu_hat, n: int, sigma: float) -> ComplexityProfile:
    """Critical radius and statistical dimension for one spectrum, or for a
    :class:`KernelMatrix` of size n from its head spectrum (see the module
    docstring)."""
    check_positive(sigma, "sigma")  # before any work on K
    head = None
    if isinstance(mu_hat, KernelMatrix):
        delta_n, d_n, head = _matrix_profile(mu_hat, n, sigma)
    else:
        delta_n = critical_radius(mu_hat, n, sigma)
        d_n = statistical_dimension(mu_hat, delta_n)
    return ComplexityProfile(sigma=float(sigma), delta_n=delta_n, d_n=d_n, n=int(n), _head=head)


def _matrix_profile(K: KernelMatrix, n: int, sigma: float) -> tuple[float, int, tuple | None]:
    if n != K.n:
        raise DomainError(f"profile size n={n} does not match the kernel matrix size {K.n}")
    matrix = K.matrix
    trace = float(np.trace(matrix))
    # heads of k = 8, 16, ... while 4k <= n or k <= 48 (sobolev1 at n = 64
    # needs six blocks to settle), and none if 4 HEAD_START > n
    blocks = max(n // (4 * HEAD_START), 6) if 4 * HEAD_START <= n else 0
    heads = block_krylov(lambda X: symv(matrix, X), n, HEAD_START)
    for theta, residuals, vectors in itertools.islice(heads, blocks):
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
            return delta, d_n, (theta, vectors())
        if HEAD_SPAN * (d_n + 1) > HEAD_START * blocks:
            break  # the head would not settle within its blocks
    # the dense spectrum: on sobolev1 at n = 1024 and sigma = 0.002 (d_n =
    # 242) the head settles only at 60 blocks, in 0.84 s, and gives way
    # after 13, at a head d_n of 88.  K.eig()'s clamped pairs are the
    # head the exact solve then preconditions with: one CG iteration took
    # 1.2 ms there, against 18.7 ms for a factor
    U, mu = K.eig()
    delta = critical_radius(mu, n, sigma)
    return delta, statistical_dimension(mu, delta), (mu, U)


def population_eigenvalues(spec: KernelSpec, j_max: int) -> np.ndarray:
    """First j_max population eigenvalues of the kernel integral operator.

    polynomial(D): rank model with D+1 unit eigenvalues, zero beyond.
    gaussian(h):   exp(-pi * h^2 * j^2).
    sobolev1:      (2 / ((2j - 1) * pi))^2.
    """
    j_max = check_count(j_max, "j_max", 1)
    j = np.arange(1, j_max + 1, dtype=np.float64)
    if check_type(spec, KernelSpec, "spec").kind == "polynomial":
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
    ns = [check_count(n, "n", 1) for n in check_type(n_grid, Iterable, "n_grid")]
    if len(ns) < 4 or (np.diff(ns) <= 0).any():
        raise DomainError("n_grid must be increasing with at least 4 entries")
    log_dsq = np.empty(len(ns))
    for i, n in enumerate(ns):
        delta = critical_radius(population_eigenvalues(spec, n), n, sigma)
        log_dsq[i] = np.log(delta * delta)
    slope = np.polyfit(np.log(ns), log_dsq, 1)[0]
    return float(slope)
