"""Kernel functions and the rescaled empirical kernel matrix.

Three univariate kernel families are supported:

* ``polynomial`` with integer degree ``D``:  (1 + u*v)**D
* ``gaussian`` with bandwidth ``h``:         exp(-(u - v)**2 / (2*h**2))
* ``sobolev1`` (first-order Sobolev):        min(u, v), intended for [0, 1]

The empirical kernel matrix carries a 1/n scaling, ``K[i, j] =
kernel(x_i, x_j) / n``, which keeps its spectrum on the same scale as the
population eigenvalues of the kernel integral operator.  Two views of
its spectrum are computed lazily and cached on the matrix:

* ``head_spectrum(k)``: the top k Ritz values of a randomized subspace
  iteration with a fixed seed, with error estimates and trace(K), which
  is all the critical radius needs (O(n^2 k) per iteration);
* ``eig()`` (and ``eigenvalues``): the full eigendecomposition,
  eigenvalues sorted descending with round-off negatives clamped to zero,
  needed only where eigenvectors are (the sketch certificate).

Both reject a matrix that is not PSD at working precision.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._util import cho_factor_shifted
from .errors import DomainError, NumericalError

__all__ = [
    "KernelSpec",
    "DesignPoints",
    "KernelMatrix",
    "HeadSpectrum",
    "kernel_eval",
    "build_kernel_matrix",
    "eigendecompose",
]

# Eigenvalues above -EIG_CLAMP_REL * mu_1 are treated as round-off and
# clamped to zero; anything more negative means the matrix is not PSD.
EIG_CLAMP_REL = 1e-10

# the head spectrum's subspace iteration: a fixed start, so that it is a pure
# function of K, and a fixed number of multiplications by K beyond the first
HEAD_SEED = 20150123
HEAD_POWER_STEPS = 4


@dataclass(frozen=True)
class KernelSpec:
    """Selects a kernel family and its hyperparameter.

    Use the factory classmethods rather than the raw constructor::

        KernelSpec.polynomial(3)
        KernelSpec.gaussian(0.25)
        KernelSpec.sobolev1()
    """

    kind: str
    degree: int | None = None
    bandwidth: float | None = None

    def __post_init__(self) -> None:
        if self.kind == "polynomial":
            if self.degree is None or int(self.degree) != self.degree or self.degree < 1:
                raise DomainError(f"polynomial kernel needs integer degree >= 1, got {self.degree!r}")
            if self.bandwidth is not None:
                raise DomainError("polynomial kernel takes no bandwidth")
        elif self.kind == "gaussian":
            if self.bandwidth is None or not self.bandwidth > 0:
                raise DomainError(f"gaussian kernel needs bandwidth > 0, got {self.bandwidth!r}")
            if self.degree is not None:
                raise DomainError("gaussian kernel takes no degree")
        elif self.kind == "sobolev1":
            if self.degree is not None or self.bandwidth is not None:
                raise DomainError("sobolev1 kernel takes no hyperparameters")
        else:
            raise DomainError(f"unknown kernel kind {self.kind!r}")

    @classmethod
    def polynomial(cls, degree: int) -> "KernelSpec":
        return cls("polynomial", degree=int(degree))

    @classmethod
    def gaussian(cls, bandwidth: float) -> "KernelSpec":
        return cls("gaussian", bandwidth=float(bandwidth))

    @classmethod
    def sobolev1(cls) -> "KernelSpec":
        return cls("sobolev1")


@dataclass(frozen=True)
class DesignPoints:
    """An ordered sequence of n scalar covariates."""

    x: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=np.float64)
        if x.ndim != 1 or x.size < 1:
            raise DomainError("design points must be a nonempty 1-D sequence")
        if not np.isfinite(x).all():
            raise DomainError("design points must be finite")
        x = x.copy()
        x.setflags(write=False)
        object.__setattr__(self, "x", x)

    @property
    def n(self) -> int:
        return self.x.size


def kernel_eval(spec: KernelSpec, u, v):
    """Evaluate the kernel at (u, v); u and v may be scalars or broadcastable arrays."""
    ua = np.asarray(u, dtype=np.float64)
    va = np.asarray(v, dtype=np.float64)
    if not (np.isfinite(ua).all() and np.isfinite(va).all()):
        raise DomainError("kernel arguments must be finite")
    # one output buffer, every step in place: for an n x n grid this is one
    # n x n allocation instead of one per step
    out = np.empty(np.broadcast_shapes(ua.shape, va.shape))
    if spec.kind == "polynomial":
        np.multiply(ua, va, out=out)
        out += 1.0
        out **= spec.degree
    elif spec.kind == "gaussian":
        np.subtract(ua, va, out=out)
        out *= out
        np.negative(out, out=out)
        out /= 2.0 * spec.bandwidth**2
        np.exp(out, out=out)
    else:  # sobolev1
        np.minimum(ua, va, out=out)
    if np.ndim(u) == 0 and np.ndim(v) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class HeadSpectrum:
    """The top k Ritz values of K, descending, and what bounds them.

    ``error_bounds[j]`` estimates the distance from ``values[j]`` to the
    eigenvalue it approximates: the smaller of the residual norm
    ||K v_j - values[j] v_j|| (some eigenvalue lies within it) and the
    quadratic bound residual^2 / gap, with gap the distance to the nearest
    other Ritz value of the block (a gap between Ritz values, not between
    eigenvalues, so this is an a-posteriori estimate, not a guaranteed
    bound).  Ritz values never exceed the
    eigenvalues they approximate, so ``trace - values.sum()`` is at least
    the mass of the eigenvalues below the head.
    """

    values: np.ndarray
    error_bounds: np.ndarray
    trace: float


class KernelMatrix:
    """Symmetric n x n kernel matrix with cached spectra.

    The matrix is immutable after construction.  Each spectrum (see the
    module docstring) is computed on first access and cached; compute the
    ones you need eagerly before sharing an instance across threads.
    """

    def __init__(self, matrix: np.ndarray, *, copy: bool = True):
        """Check and store ``matrix``.  With ``copy=False`` a float64 array
        is kept as it is and made read-only; pass that only for a fresh
        array that nothing else writes to."""
        K = np.asarray(matrix, dtype=np.float64)
        if K.ndim != 2 or K.shape[0] != K.shape[1] or K.shape[0] < 1:
            raise DomainError("kernel matrix must be square and nonempty")
        if not np.isfinite(K).all():
            raise DomainError("kernel matrix must be finite")
        if not np.array_equal(K, K.T):
            raise DomainError("kernel matrix must be exactly symmetric")
        if copy:
            K = K.copy()
        K.setflags(write=False)
        self._matrix = K
        self._eig: tuple[np.ndarray, np.ndarray] | None = None
        self._heads: dict[int, HeadSpectrum] = {}

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def n(self) -> int:
        return self._matrix.shape[0]

    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (U, mu_hat) with K = U diag(mu_hat) U^T, mu_hat descending."""
        if self._eig is None:
            self._eig = _eigh_descending(self._matrix)
        return self._eig

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.eig()[1]

    @property
    def eigenvectors(self) -> np.ndarray:
        return self.eig()[0]

    def head_spectrum(self, k: int) -> HeadSpectrum:
        """The top min(k, n) Ritz values, cached per k.

        Randomized subspace iteration (Halko, Martinsson and Tropp 2011):
        a 2k-column Gaussian block with a fixed seed, multiplied by K
        1 + HEAD_POWER_STEPS times with re-orthonormalization, then
        Rayleigh-Ritz; the top k of the 2k Ritz values are kept.  Raises
        :class:`NumericalError` if K is not PSD at working precision:
        K + 1e-10 * theta_1 * I must have a Cholesky factor.
        """
        if k < 1:
            raise DomainError(f"head size must be >= 1, got {k}")
        head = self._heads.get(k)
        if head is None:
            head = _head_spectrum(self._matrix, k)
            if not self._heads:  # K is immutable: one PSD check suffices
                _check_psd(self._matrix, float(head.values[0]))
            self._heads[k] = head
        return head

    def __repr__(self) -> str:  # pragma: no cover
        state = "decomposed" if self._eig is not None else "lazy"
        return f"KernelMatrix(n={self.n}, {state})"


def build_kernel_matrix(spec: KernelSpec, pts: DesignPoints) -> KernelMatrix:
    """Build K with K[i, j] = kernel(x_i, x_j) / n.

    Every family evaluates to an exactly symmetric matrix in IEEE
    arithmetic (``min``, ``(u - v)**2`` and ``u * v`` are symmetric in
    their arguments); :class:`KernelMatrix` checks it.  The kernel is
    evaluated into one n x n buffer, which is scaled in place and kept
    without a copy.  No eigendecomposition is performed.
    """
    x = pts.x
    n = pts.n
    if spec.kind == "sobolev1" and (x.min() < 0.0 or x.max() > 1.0):
        warnings.warn("sobolev1 kernel is intended for covariates in [0, 1]", stacklevel=2)
    K = kernel_eval(spec, x[:, None], x[None, :])
    K /= n
    return KernelMatrix(K, copy=False)


def eigendecompose(K: KernelMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Decompose (and cache) K = U diag(mu_hat) U^T.

    Eigenvalues are sorted descending and clamped at zero; a value below
    -1e-10 * mu_1 indicates the matrix is not PSD at working precision and
    raises :class:`NumericalError`.
    """
    return K.eig()


def _eigh_descending(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    try:
        w, v = np.linalg.eigh(matrix)
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


def _head_spectrum(matrix: np.ndarray, k: int) -> HeadSpectrum:
    n = matrix.shape[0]
    Q = np.random.default_rng(HEAD_SEED).standard_normal((n, min(2 * k, n)))
    for _ in range(HEAD_POWER_STEPS + 1):
        Q = np.linalg.qr(matrix @ Q)[0]
    KQ = matrix @ Q
    theta, W = np.linalg.eigh(Q.T @ KQ)
    theta, W = theta[::-1], W[:, ::-1]
    # K (Q W) = (K Q) W, so the residuals need no further product with K
    residuals = np.linalg.norm(KQ @ W - (Q @ W) * theta, axis=0)
    gaps = np.abs(np.diff(theta))
    gap = np.minimum(np.r_[np.inf, gaps], np.r_[gaps, np.inf])
    with np.errstate(divide="ignore", invalid="ignore"):
        bounds = np.fmin(residuals, residuals * residuals / gap)
    values = np.clip(theta[:k], 0.0, None)
    bounds = bounds[:k]
    values.setflags(write=False)
    bounds.setflags(write=False)
    return HeadSpectrum(values, bounds, float(np.trace(matrix)))


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
