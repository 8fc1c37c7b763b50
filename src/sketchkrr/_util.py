"""Small shared helpers."""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg as sla


# ceil after snapping to 9 decimals, so float fuzz on exact integers
# (e.g. 27**(1/3) = 3.0000000000000004) does not bump the result
def ceil_int(value: float) -> int:
    return math.ceil(round(value, 9))


def cho_factor_shifted(matrix: np.ndarray, shift: float):
    """Lower Cholesky factor of the symmetric ``matrix + shift * I``, in the
    ``cho_factor`` form; raises ``numpy.linalg.LinAlgError`` if it is not
    positive definite.

    The shifted matrix is one Fortran-ordered copy (``matrix.T`` of a
    symmetric C-ordered matrix copies as one block), factored in place.
    """
    A = matrix.T.copy(order="F")
    A.ravel(order="F")[:: A.shape[0] + 1] += shift
    return sla.cho_factor(A, lower=True, overwrite_a=True, check_finite=False)


# seed of block_krylov's start block: profiles and certificates are pure
# functions of their inputs
KRYLOV_SEED = 20150123


def block_krylov(apply, n: int, block: int):
    """Rayleigh-Ritz on a randomized block Krylov space of a symmetric n x n
    operator (Halko, Martinsson and Tropp 2011; Musco and Musco 2015).

    ``apply`` maps an n x b array X to A X.  The start block is standard
    normal from KRYLOV_SEED and each next block is A times the last, so A
    multiplies each basis column once.  After each block the generator
    yields the Ritz values, descending, and their residual norms; the caller
    decides when to stop.  It ends once another block would not fit in R^n.
    As A X_i lies in the span of X_0, ..., X_(i+1), the residuals are the
    column norms of R W, with W the Ritz vectors' coordinates on the last
    block X_j and (I - Q Q^T) A X_j = X_(j+1) R.
    """
    rng = np.random.default_rng(KRYLOV_SEED)
    Q, _ = _extend(np.empty((n, 0)), rng.standard_normal((n, block)), rng)
    H = np.empty((0, 0))
    while True:
        p = H.shape[0]
        AX = apply(Q[:, p:])
        C = Q.T @ AX  # the new columns of H = Q^T A Q
        H = np.block([[H, C[:p]], [C[:p].T, C[p:]]])
        theta, W = np.linalg.eigh(H)
        theta, W = theta[::-1], W[p:, ::-1]
        if Q.shape[1] + block > n:
            E = AX - Q @ C
            yield theta, np.linalg.norm((E - Q @ (Q.T @ E)) @ W, axis=0)
            return
        Q, R = _extend(Q, AX, rng)
        yield theta, np.linalg.norm(R @ W, axis=0)


def _extend(Q: np.ndarray, Y: np.ndarray, rng) -> tuple[np.ndarray, np.ndarray]:
    """[Q, X] and R with X orthonormal, orthogonal to Q, and (I - Q Q^T) Y =
    X R.  Each column of Y is projected out of the basis twice (Kahan's
    "twice is enough", in Parlett, *The Symmetric Eigenvalue Problem*); one
    that keeps at most half its norm through the second pass lies in the
    span (a breakdown), and a fresh standard normal vector takes its place."""
    (n, b), p = Y.shape, Q.shape[1]
    Q = np.hstack((Q, np.empty((n, b))))
    R = np.zeros((b, b))
    for i in range(b):
        basis, y = Q[:, : p + i], Y[:, i]
        for fresh in (False, True):
            c = basis.T @ y
            once = y - basis @ c
            d = basis.T @ once
            y = once - basis @ d
            norm = np.linalg.norm(y)
            if fresh:
                break
            R[:i, i], R[i, i] = (c + d)[p:], norm
            if norm > np.linalg.norm(once) / 2.0:
                break
            R[i, i], y = 0.0, rng.standard_normal(n)  # a breakdown
        Q[:, p + i] = y / norm
    return Q, R
