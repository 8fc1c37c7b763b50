"""Kernel functions and the rescaled empirical kernel matrix.

Three univariate kernel families are supported:

* ``polynomial`` with integer degree ``D``:  (1 + u*v)**D
* ``gaussian`` with bandwidth ``h``:         exp(-(u - v)**2 / (2*h**2))
* ``sobolev1`` (first-order Sobolev):        min(u, v), intended for [0, 1]

The empirical kernel matrix carries a 1/n scaling, ``K[i, j] =
kernel(x_i, x_j) / n``, which keeps its spectrum on the same scale as the
population eigenvalues of the kernel integral operator.  A
:class:`KernelMatrix` is a validated, immutable matrix that computes its
full eigendecomposition lazily and caches it: ``eig()`` (and
``eigenvalues``) sorts the eigenvalues descending and clamps round-off
negatives to zero.  It is PSD at working precision by type, decided here
alone, once, at construction: a matrix passed to ``KernelMatrix(...)``
must be finite, exactly symmetric and pass one O(n^3) shifted Cholesky
factor; a matrix from ``build_kernel_matrix`` is symmetric and PSD by
construction, and finite but for the polynomial family, which alone is
scanned (its docstring gives the argument), and skips the other checks.
The sketch certificate needs ``eig()`` for the eigenvectors of a nonempty
head, and ``complexity_profile(K)`` only when its randomized head does not
settle; it keeps its pairs for the exact solve (see
:mod:`sketchkrr.complexity`).
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from ._util import block_krylov, check_floats, check_type, rfp_factor_shifted, symv
from .errors import DomainError, NumericalError

__all__ = [
    "KernelSpec",
    "DesignPoints",
    "KernelMatrix",
    "kernel_eval",
    "build_kernel_matrix",
]

# the kernel families KernelSpec accepts
_KERNEL_KINDS = ("sobolev1", "gaussian", "polynomial")

# Eigenvalues above -EIG_CLAMP_REL * mu_1 are treated as round-off and
# clamped to zero; anything more negative means the matrix is not PSD.
EIG_CLAMP_REL = 1e-10


@dataclass(frozen=True)
class KernelSpec:
    """Selects a kernel family and its hyperparameter.

    The one place that decides which hyperparameter each family takes: a
    missing, out-of-range or stray one raises :class:`DomainError`.  The
    factory classmethods are shorthands::

        KernelSpec.polynomial(3)
        KernelSpec.gaussian(0.25)
        KernelSpec.sobolev1()
    """

    kind: str
    degree: int | None = None
    bandwidth: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KERNEL_KINDS:
            raise DomainError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "polynomial":
            D = self.degree
            if not (isinstance(D, numbers.Real) and D >= 1 and D % 1 == 0):
                raise DomainError(f"polynomial kernel needs integer degree >= 1, got {D!r}")
            if self.bandwidth is not None:
                raise DomainError("polynomial kernel takes no bandwidth")
            object.__setattr__(self, "degree", int(D))
        elif self.kind == "gaussian":
            h = self.bandwidth
            # kernel_eval divides by 2*h*h: it must be a positive finite float
            if not (isinstance(h, numbers.Real) and h > 0 and 0.0 < 2.0 * h * h < math.inf):
                raise DomainError(
                    f"gaussian kernel needs bandwidth h > 0 with 2*h*h positive and finite, got {h!r}"
                )
            if self.degree is not None:
                raise DomainError("gaussian kernel takes no degree")
            object.__setattr__(self, "bandwidth", float(h))
        elif self.degree is not None or self.bandwidth is not None:
            raise DomainError("sobolev1 kernel takes no hyperparameters")

    @classmethod
    def polynomial(cls, degree: int) -> "KernelSpec":
        return cls("polynomial", degree=degree)

    @classmethod
    def gaussian(cls, bandwidth: float) -> "KernelSpec":
        return cls("gaussian", bandwidth=bandwidth)

    @classmethod
    def sobolev1(cls) -> "KernelSpec":
        return cls("sobolev1")


@dataclass(frozen=True)
class DesignPoints:
    """An ordered sequence of n scalar covariates."""

    x: np.ndarray

    def __post_init__(self) -> None:
        x = check_floats(self.x, "design points", finite=True)
        if x.ndim != 1 or x.size < 1:
            raise DomainError("design points must be a nonempty 1-D sequence")
        x = x.copy()
        x.setflags(write=False)
        object.__setattr__(self, "x", x)

    @property
    def n(self) -> int:
        return self.x.size


def kernel_eval(spec: KernelSpec, u, v):
    """Evaluate the kernel at (u, v); u and v may be scalars or broadcastable arrays."""
    ua, va = check_floats(u, "u", finite=True), check_floats(v, "v", finite=True)
    # one n x n buffer, u copied in, then every step in place against v, not on
    # two broadcast operands: the gaussian build at n = 1200 took 4.6, not 5.3 ms
    try:
        out = np.empty(np.broadcast_shapes(ua.shape, va.shape))
    except ValueError as exc:
        raise DomainError(f"u and v must broadcast together, got shapes {ua.shape} and {va.shape}") from exc
    out[...] = ua
    if check_type(spec, KernelSpec, "spec").kind == "polynomial":
        np.multiply(out, va, out=out)
        out += 1.0
        out **= spec.degree
    elif spec.kind == "gaussian":
        np.subtract(out, va, out=out)
        out *= out
        # x / (-c) is -(x / c) exactly; a tiny bandwidth overflows the
        # quotient to -inf, and exp(-inf) = 0 is the kernel's correct limit.
        # c is 2 h h as KernelSpec checks it, positive: h**2 underflows to 0
        # first (h = 1.3e-162), and 0 / -0 is NaN
        with np.errstate(over="ignore"):
            out /= -(2.0 * spec.bandwidth * spec.bandwidth)
        np.exp(out, out=out)
    else:  # sobolev1
        np.minimum(out, va, out=out)
    if np.ndim(u) == 0 and np.ndim(v) == 0:
        return float(out)
    return out


class KernelMatrix:
    """Symmetric PSD n x n kernel matrix with a cached eigendecomposition.

    Unless :func:`build_kernel_matrix` proved it, the matrix is checked
    once, here: it must be finite and exactly symmetric, and K +
    EIG_CLAMP_REL * theta_1 * I must have a Cholesky factor, theta_1 the
    top Ritz value of one fixed-seed 8-column (n if n < 8) ``block_krylov``
    block, which pays no extension of its basis; with theta_1 <= 0 only the
    zero matrix passes.  Else it raises :class:`NumericalError`.  No
    consumer checks again.

    The matrix is immutable after construction.  The eigendecomposition is
    computed on first access and cached; call ``eig()`` eagerly before
    sharing an instance across threads.
    """

    def __init__(self, matrix: np.ndarray, *, copy: bool = True, _proven: bool = False):
        """Check and store ``matrix``.  With ``copy=False`` a float64 array
        is kept as it is and made read-only; pass that only for a fresh
        array that nothing else writes to.

        ``_proven`` is for :func:`build_kernel_matrix` alone: the matrix is
        finite, exactly symmetric and PSD at working precision by
        construction, so the finiteness scan, the full-transpose comparison
        and the PSD gate are skipped.
        """
        K = check_floats(matrix, "kernel matrix", finite=not _proven)
        if K.ndim != 2 or K.shape[0] != K.shape[1] or K.shape[0] < 1:
            raise DomainError("kernel matrix must be square and nonempty")
        if copy:
            K = K.copy()
        if not _proven:
            if not np.array_equal(K, K.T):
                raise DomainError("kernel matrix must be exactly symmetric")
            _check_psd(K)
        K.setflags(write=False)
        self._matrix = K
        self._eig: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def n(self) -> int:
        return self._matrix.shape[0]

    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (U, mu_hat) with K = U diag(mu_hat) U^T, mu_hat descending.

        Eigenvalues are clamped at zero; a value below -EIG_CLAMP_REL *
        mu_1, which a checked or proven matrix can reach only by rounding,
        raises :class:`NumericalError`.
        """
        if self._eig is None:
            self._eig = _eigh_descending(self._matrix)
        return self._eig

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.eig()[1]

    @property
    def eigenvectors(self) -> np.ndarray:
        return self.eig()[0]

    def __repr__(self) -> str:  # pragma: no cover
        state = "decomposed" if self._eig is not None else "lazy"
        return f"KernelMatrix(n={self.n}, {state})"


def build_kernel_matrix(spec: KernelSpec, pts: DesignPoints) -> KernelMatrix:
    """Build K with K[i, j] = kernel(x_i, x_j) / n.

    The kernel is evaluated into one n x n buffer, which is scaled in place
    and kept without a copy.  No eigendecomposition is performed.  The
    result is finite, symmetric and PSD at working precision by
    construction, so it is marked as proven and skips
    :class:`KernelMatrix`'s finiteness scan, its full-transpose comparison
    and its O(n^3) PSD gate:

    * **Finiteness.**  The points are finite (:class:`DesignPoints`).  A
      gaussian entry is exp(-t) / n with t = (u - v)^2 / (2 h^2) in [0,
      inf]: u - v is never NaN, and 2 h h is positive and finite
      (:class:`KernelSpec`), so it lies in [0, 1/n].  A sobolev1 entry is
      min(u, v) / n, finite.  Only (1 + u v)^D can overflow, so a
      polynomial K alone is scanned, here; the scan took 0.5-0.9 ms of the
      5-6 ms gaussian build at n = 1200.
    * **Symmetry.**  ``min``, ``(u - v)**2`` and ``u * v`` are exactly
      symmetric in their arguments in IEEE arithmetic, and every later step
      acts on one entry alone, so K[i, j] and K[j, i] are the same bits.
    * **PSD.**  min(u, v) on u, v >= 0, exp(-(u - v)**2 / (2 h^2)) and
      (1 + u v)^D are positive-definite kernels, so the exact matrix is PSD.
    * **Rounding.**  Each built entry differs from the exact one by at most
      c * eps * max_i K_ii: c ~ 1 for sobolev1 (only the division by n
      rounds), c ~ 4 for gaussian (a relative error delta in the exponent
      a changes exp(-a) by about a e^(-a) delta <= delta / e) and c ~ D + 3
      for polynomial (the base 1 + u v is off by at most eps (1 + |u v|),
      and |1 + u v|^(D-1) (1 + |u v|) <= max_i K_ii).  The
      error matrix then has spectral norm at most n * c * eps * max_i K_ii,
      and mu_1 >= max_i K_ii, so mu_min >= -n * c * eps * mu_1: about
      -1e-12 * mu_1 at n = 1200, far inside the -EIG_CLAMP_REL * mu_1 clamp.

    The mark is set only when these hold: x >= 0 for sobolev1, and
    n * c * eps <= EIG_CLAMP_REL.  Otherwise both dense checks run, and
    reject a sobolev1 kernel on points of both signs (it is indefinite).
    """
    x = check_type(pts, DesignPoints, "pts").x
    n = pts.n
    if check_type(spec, KernelSpec, "spec").kind == "sobolev1" and (x.min() < 0.0 or x.max() > 1.0):
        warnings.warn("sobolev1 kernel is intended for covariates in [0, 1]", stacklevel=2)
    K = kernel_eval(spec, x[:, None], x[None, :])
    K /= n
    if spec.kind == "polynomial":
        check_floats(K, "kernel matrix", finite=True)
    return KernelMatrix(K, copy=False, _proven=_psd_by_construction(spec, x))


def _psd_by_construction(spec: KernelSpec, x: np.ndarray) -> bool:
    """Whether :func:`build_kernel_matrix`'s argument covers ``spec`` on x."""
    if spec.kind == "sobolev1":
        if x.min() < 0.0:
            return False
        c = 1.0
    elif spec.kind == "gaussian":
        c = 4.0
    else:
        c = spec.degree + 3.0
    return x.size * c * np.finfo(np.float64).eps <= EIG_CLAMP_REL


def _check_psd(matrix: np.ndarray) -> None:
    """The PSD gate of :class:`KernelMatrix` (see its docstring)."""
    if not matrix.any():
        return
    n = matrix.shape[0]
    theta, _, _ = next(block_krylov(lambda X: symv(matrix, X), n, min(8, n)))
    shift = EIG_CLAMP_REL * max(float(theta[0]), 0.0)
    try:
        if shift > 0.0:
            rfp_factor_shifted(matrix, shift)
            return
    except np.linalg.LinAlgError:
        pass
    raise NumericalError(
        f"matrix is not PSD at working precision: K + {shift:.3e} * I "
        "(1e-10 times the largest Ritz value) has no Cholesky factor"
    )


def _eigh_descending(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # LAPACK's MRRR driver dsyevr: the call raised the peak RSS by half as
    # much as numpy's divide-and-conquer dsyevd (17 against 34 MB at
    # n = 1024, 66 against 133 MB at n = 2048) and took 8% longer (283
    # against 258 ms at n = 1024; sobolev1, one OpenBLAS thread)
    try:
        w, v = sla.eigh(matrix, driver="evr", check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    w = w[::-1].copy()
    v = v[:, ::-1].copy()
    top = max(float(w[0]), 0.0)
    thresh = EIG_CLAMP_REL * top
    if w[-1] < -thresh:
        raise NumericalError(
            f"matrix is not PSD at working precision: min eigenvalue {w[-1]:.3e} "
            f"vs clamp threshold {-thresh:.3e}"
        )
    np.clip(w, 0.0, None, out=w)
    w.setflags(write=False)
    v.setflags(write=False)
    return v, w
