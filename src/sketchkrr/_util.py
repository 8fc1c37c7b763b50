"""Small shared helpers."""

from __future__ import annotations

import functools
import math
import numbers

import numpy as np
import scipy.linalg as sla

from .errors import DomainError


# ceil after snapping to 9 decimals, so float fuzz on exact integers
# (e.g. 27**(1/3) = 3.0000000000000004) does not bump the result
def ceil_int(value: float) -> int:
    return math.ceil(round(value, 9))


def check_count(value, name: str, low: int) -> int:
    """``value`` as an int if it is an integer (numpy's too) >= ``low``;
    otherwise a :class:`DomainError` that names it."""
    if not (isinstance(value, numbers.Integral) and value >= low):
        raise DomainError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def check_seed(value, name: str = "seed") -> int:
    """``value`` as an int if it is an integer (numpy's too), negative ones
    included; otherwise a :class:`DomainError` that names it."""
    if not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_positive(value, name: str) -> float:
    """``value`` as a float if it is a real number (numpy's too), finite and
    > 0; otherwise a :class:`DomainError` that names it."""
    if not (isinstance(value, numbers.Real) and 0.0 < value < math.inf):
        raise DomainError(f"{name} must be finite and > 0, got {value!r}")
    return float(value)


def check_type(value, cls: type, name: str):
    """``value`` if it is a ``cls``; otherwise a :class:`DomainError` that
    names it and the type it has."""
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise DomainError(f"{name} must be {article} {cls.__name__}, got {type(value).__name__}")
    return value


def check_floats(value, name: str, *, finite: bool = False) -> np.ndarray:
    """``value`` as a float64 array; a :class:`DomainError` that names it if
    numpy cannot convert it or, with ``finite``, if an entry is NaN or
    infinite.  The package's one conversion and finiteness test for arrays."""
    try:
        a = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{name} must be numeric: {exc}") from exc
    if finite and not np.isfinite(a).all():
        raise DomainError(f"{name} must be finite")
    return a


def rfp_factor_shifted(matrix: np.ndarray, shift: float) -> np.ndarray:
    """Lower Cholesky factor L of the symmetric ``matrix + shift * I`` in
    rectangular full packed (RFP) storage, ``transr='T'``, ``uplo='L'``
    (Gustavson, Wasniewski, Dongarra and Langou, ACM TOMS 2010), for
    :func:`solve_factor`; raises ``numpy.linalg.LinAlgError`` if it is not
    positive definite.

    LAPACK dtrttf packs the lower triangle of ``matrix.T`` (Fortran-ordered
    for a C-ordered matrix, so not copied) into n (n + 1) / 2 doubles, half
    a full copy; the shift goes onto the n diagonal positions of the packed
    array and dpftrf factors it in place.  Packing and factoring took 13.2
    ms at n = 1024 against 12.0 for a full copy and dpotrf whose pages were
    already mapped (minimum of 15, one OpenBLAS thread).  With r = ceil(n /
    2), the diagonal sits at entries i (r + 1) for i < r and o + i (r + 1)
    for i < n - r, with o = r for even n and 1 for odd.
    """
    n = matrix.shape[0]
    arf, _ = sla.lapack.dtrttf(matrix.T, transr="T", uplo="L")
    r = (n + 1) // 2
    arf[: r * (r + 1) : r + 1] += shift
    arf[(1 if n % 2 else r) :: r + 1][: n - r] += shift
    arf, info = sla.lapack.dpftrf(n, arf, transr="T", uplo="L", overwrite_a=1)
    if info:
        raise np.linalg.LinAlgError(f"matrix is not positive definite, dpftrf info = {info}")
    return arf


def solve_factor(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with L L^T x = b, for b an n-vector or an n x k block and any
    lower Cholesky factor L the package makes; every such solve goes
    through here, which picks the LAPACK routine from L:

    - a full factor from ``cho_factor`` (only its lower triangle is read):
      two triangular solves (dtrtrs) on L, which ``cho_factor`` returns
      Fortran-ordered, so it is not copied.  With one column they took 0.37
      ms at n = 1024 against 0.79 for ``cho_solve`` (potrs); with two, the
      same time and the same bits.  dtrtrs is called directly: at m = 13
      two ``solve_triangular`` calls took 25 us, and the two dtrtrs calls
      in them 3 us.
    - the packed array from :func:`rfp_factor_shifted`: LAPACK's RFP solve
      dpftrs.  It took 0.75-1.18 ms at n = 1023-1200, against 0.41-0.67
      for four dtrtrs calls on views of the packed blocks (best of 25),
      with which it agreed to 2e-15 relative, a difference paid once per
      factor, next to the O(n^3) factorization: it is the exact solve's
      factor route.  A 1 x 1 factor is divided by directly:
      there dpftrs missed a dense solve by twice as much.

    Times are at one OpenBLAS thread.
    """
    if not len(b):  # LAPACK rejects the leading dimension 0 of an empty b
        return np.array(b, dtype=np.float64)
    if L.ndim == 1:
        if len(b) == 1:
            return b / L[0] / L[0]
        x, info = sla.lapack.dpftrs(len(b), L, b, transr="T", uplo="L")
        routine = "dpftrs"
    else:
        x, info = sla.lapack.dtrtrs(L, b, lower=1)
        if info == 0:
            x, info = sla.lapack.dtrtrs(L, x, lower=1, trans=1, overwrite_b=1)
        routine = "dtrtrs"
    if info:
        raise np.linalg.LinAlgError(f"Cholesky solve failed, {routine} info = {info}")
    return x


def symv(matrix: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``matrix @ v`` for an exactly symmetric n x n ``matrix``, such as a
    :class:`KernelMatrix`'s, and an n-vector or an n x k block, in v's
    shape; every product with a kernel matrix goes through here.

    BLAS dsymv takes one column, reading one triangle of ``matrix.T``
    (Fortran-ordered for a C-ordered matrix, so not copied): 0.18 ms at n =
    1024 against 0.34 for ``@``.  A block is ``(v.T @ matrix).T``, a GEMM
    that reads a C-ordered matrix by rows: 1.09 against 1.18 ms for ``matrix
    @ v`` at n = 1200, k = 8, 16.6 against 24.6 at n = 4096 (best of 7; dsymm
    ran 2-8x slower than GEMM for 8-80 columns; one OpenBLAS thread).
    """
    n = matrix.shape[0]
    if v.ndim not in (1, 2) or v.shape[0] != n:
        raise ValueError(f"symv takes an ({n},) or ({n}, k) operand, got {v.shape}")
    if v.ndim == 1 or v.shape[1] == 1:
        return sla.blas.dsymv(1.0, matrix.T, v.reshape(n)).reshape(v.shape)
    return (v.T @ matrix).T


# seed of block_krylov's start block: profiles and certificates are pure
# functions of their inputs
KRYLOV_SEED = 20150123


def block_krylov(apply, n: int, block: int):
    """Rayleigh-Ritz on a randomized block Krylov space of a symmetric n x n
    operator (Halko, Martinsson and Tropp 2011; Musco and Musco 2015).

    ``apply`` maps an n x b array X to A X.  The start block is standard
    normal from KRYLOV_SEED and each next block spans what A X adds to the
    basis Q, so A multiplies each basis column once.  After each block X_j
    the generator yields the k Ritz values, descending, their residual
    norms, and a function of no arguments that returns their n x k Ritz
    vectors Q W, O(n k^2); it extends Q only when the caller asks for the
    next block, and ends once another would not fit in R^n.  As A X_i lies
    in the span of X_0, ..., X_(i+1), the residuals are the column norms of
    E W_j, E = A X_j - Q Q^T A X_j and W_j the Ritz vectors' coordinates on
    X_j; taken as those of R W_j, E = X R a Householder QR that starts the
    extension, they cost 3 us, not 40-60, at block 1, k = 11 and n = 924.
    """
    rng = np.random.default_rng(KRYLOV_SEED)
    Q, H = _householder(rng.standard_normal((n, block)))[0], np.empty((0, 0))
    while True:
        p = H.shape[0]
        AX = apply(Q[:, p:])
        C = Q.T @ AX  # the new columns of H = Q^T A Q
        H = np.block([[H, C[:p]], [C[:p].T, C[p:]]])
        theta, W = np.linalg.eigh(H)
        theta, W = theta[::-1], W[:, ::-1]
        X, R = _householder(AX - Q @ C)
        yield theta, np.linalg.norm(sla.blas.dtrmm(1.0, R, W[p:]), axis=0), functools.partial(np.matmul, Q, W)
        if Q.shape[1] + block > n:
            return
        Q = _extend(Q, X, rng)


def _extend(Q: np.ndarray, X: np.ndarray, rng) -> np.ndarray:
    """[Q, X'] with X' orthonormal, orthogonal to Q and spanning X, for an
    orthonormal X from a block projected once out of Q: the second pass of
    block Gram-Schmidt twice (BCGS2; Barlow and Smoktunowicz 2013), one
    more projection and a Householder QR.  |R_ii| <= 1/2 marks a breakdown
    (column i kept at most half its unit norm outside Q and the earlier
    columns): a fresh standard normal vector, projected twice out of Q,
    takes its place in the block, which is factored again, as the QR made
    the later columns orthogonal to the one that broke down."""
    Z = X - Q @ (Q.T @ X)
    X, R = _householder(Z)
    broken = np.abs(np.diagonal(R)) <= 0.5
    if broken.any():
        fresh = rng.standard_normal((len(Z), int(broken.sum())))
        for _ in range(2):
            fresh -= Q @ (Q.T @ fresh)
        Z[:, broken] = fresh
        X = _householder(Z)[0]
    return np.hstack((Q, X))


def _householder(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """X, R with A = X R, X orthonormal, by dgeqrf and dorgqr (3 us for one
    column of 924, np.linalg.qr 16); R's strict lower triangle holds
    reflectors, so only its diagonal and dtrmm read it (np.triu took 7 us)."""
    qr, tau, _, _ = sla.lapack.dgeqrf(A)
    R = qr[: A.shape[1]].copy()
    X, _, _ = sla.lapack.dorgqr(qr, tau, overwrite_a=1)
    return X, R
