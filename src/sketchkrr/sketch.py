"""Random sketch operators: Gaussian, randomized orthogonal system, sub-sampling.

A sketch is an m x n operator applied from the left to restrict an
n-dimensional quadratic program to an m-dimensional one.  Three families:

* ``gaussian``:  dense i.i.d. N(0, 1/m) entries, so E[S^T S] = I.
* ``ros``:       sign-randomized rows of the orthonormal Hadamard matrix,
  sampled without replacement and rescaled by sqrt(n/m).  When n is not a
  power of two the input is zero-padded to n_pad = 2^ceil(log2 n) and the
  row indices range over n_pad.
* ``subsample``: rescaled rows of the identity, sampled without
  replacement; each row is sqrt(n/m) * e_p.

Gaussian and ROS sketches are applied as one dense product with their
m x n matrix; for ROS the m sampled Hadamard rows are built on each call
by Sylvester doubling, in O(m * n), and not kept on the operator.
Sub-sampling gathers rows.  Operators are immutable and deterministic
functions of (kind, m, n, seed); applying one to distinct columns is safe
to parallelize.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "SKETCH_KINDS",
    "SketchOperator",
    "draw_sketch",
    "identity_sketch",
    "fwht",
    "apply_sketch",
    "apply_sketch_t",
    "materialize",
]

SKETCH_KINDS = ("gaussian", "ros", "subsample")

_SEED_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class SketchOperator:
    """An m x n random sketch; build with :func:`draw_sketch`.

    Exactly the state that defines the operator is stored: the dense
    matrix for ``gaussian``, the Rademacher sign vector plus sampled row
    indices (over the padded length ``n_pad``) for ``ros``, and sampled row
    indices for ``subsample``.
    """

    kind: str
    m: int
    n: int
    seed: int
    matrix: np.ndarray | None = None
    signs: np.ndarray | None = None
    indices: np.ndarray | None = None
    n_pad: int | None = None

    @property
    def scale(self) -> float:
        return float(np.sqrt(self.n / self.m))


def _sample_without_replacement(rng: np.random.Generator, pool_size: int, m: int) -> np.ndarray:
    # partial Fisher-Yates: only the first m slots are ever finalized
    pool = np.arange(pool_size)
    for i in range(m):
        j = int(rng.integers(i, pool_size))
        pool[i], pool[j] = pool[j], pool[i]
    out = pool[:m].copy()
    out.setflags(write=False)
    return out


def draw_sketch(kind: str, m: int, n: int, seed: int) -> SketchOperator:
    """Draw a sketch operator, deterministic in (kind, m, n, seed)."""
    if kind not in SKETCH_KINDS:
        raise DomainError(f"unknown sketch kind {kind!r}")
    if not (1 <= m <= n):
        raise DomainError(f"need 1 <= m <= n, got m={m}, n={n}")
    rng = np.random.default_rng(seed & _SEED_MASK)
    if kind == "gaussian":
        mat = rng.normal(0.0, 1.0 / np.sqrt(m), size=(m, n))
        mat.setflags(write=False)
        return SketchOperator(kind, m, n, seed, matrix=mat)
    if kind == "ros":
        n_pad = 1 << (n - 1).bit_length()
        signs = (2.0 * rng.integers(0, 2, size=n_pad) - 1.0).astype(np.float64)
        signs.setflags(write=False)
        idx = _sample_without_replacement(rng, n_pad, m)
        return SketchOperator(kind, m, n, seed, signs=signs, indices=idx, n_pad=n_pad)
    idx = _sample_without_replacement(rng, n, m)
    return SketchOperator(kind, m, n, seed, indices=idx)


def identity_sketch(n: int) -> SketchOperator:
    """The n x n identity as a sub-sampling sketch (m = n, unpermuted)."""
    idx = np.arange(n)
    idx.setflags(write=False)
    return SketchOperator("subsample", n, n, 0, indices=idx)


def fwht(v: np.ndarray, normalized: bool = True) -> np.ndarray:
    """Walsh-Hadamard transform of a vector (or of each column of a matrix).

    The length along axis 0 must be a power of two.  With
    ``normalized=True`` the operator is the orthonormal Hadamard matrix
    (entries +-1/sqrt(n_pad), an involution); otherwise the raw +-1
    butterfly.  Runs in O(n_pad log n_pad) per column.
    """
    a = np.array(v, dtype=np.float64, copy=True)
    n = a.shape[0]
    if n < 1 or (n & (n - 1)) != 0:
        raise DomainError(f"fwht length must be a power of two, got {n}")
    trailing = a.shape[1:]
    h = 1
    while h < n:
        blocks = a.reshape(n // (2 * h), 2, h, *trailing)
        top = blocks[:, 0] + blocks[:, 1]
        bot = blocks[:, 0] - blocks[:, 1]
        blocks[:, 0] = top
        blocks[:, 1] = bot
        h *= 2
    if normalized:
        a /= np.sqrt(n)
    return a


def _check_rows(S: SketchOperator, M: np.ndarray) -> np.ndarray:
    A = np.asarray(M, dtype=np.float64)
    if A.ndim not in (1, 2):
        raise DomainError("operand must be a vector or a matrix")
    if A.shape[0] != S.n:
        raise DomainError(f"operand has {A.shape[0]} rows, sketch expects {S.n}")
    return A


def _dense(S: SketchOperator) -> np.ndarray:
    """The m x n matrix of a gaussian or ros sketch."""
    if S.kind == "gaussian":
        return S.matrix
    # The rows are built on each call, not kept on the operator: keeping them
    # raised certify-fit peak_rss_mb from 112.5 to 123.7 MB (2-core machine).
    #
    # row i of the Sylvester Hadamard matrix, H[i, j] = (-1)^popcount(i & j),
    # doubled one bit of i at a time: H[i, j + h] = H[i, j] * (-1)^(bit b of i)
    # for j < h = 2^b.  Only the first n columns are built, in place in the
    # one m x n result: growing it by concatenation left temporaries of every
    # size on the heap, and the peak RSS of identical runs then differed by
    # about 5 MB.
    rows = np.empty((S.m, S.n))
    rows[:, 0] = 1.0
    h = 1
    while h < S.n:
        w = min(h, S.n - h)
        flip = (1 - 2 * ((S.indices >> (h.bit_length() - 1)) & 1)).astype(np.float64)
        np.multiply(rows[:, :w], flip[:, None], out=rows[:, h : h + w])
        h *= 2
    rows *= S.signs[: S.n] * np.sqrt(S.n / (S.m * S.n_pad))
    return rows


def apply_sketch(S: SketchOperator, M) -> np.ndarray:
    """Compute S @ M for a length-n vector or an (n, k) matrix."""
    A = _check_rows(S, M)
    if S.kind == "subsample":
        return S.scale * A[S.indices]
    return _dense(S) @ A


def apply_sketch_t(S: SketchOperator, M) -> np.ndarray:
    """Compute S^T @ M for a length-m vector or an (m, k) matrix."""
    A = np.asarray(M, dtype=np.float64)
    if A.ndim not in (1, 2):
        raise DomainError("operand must be a vector or a matrix")
    if A.shape[0] != S.m:
        raise DomainError(f"operand has {A.shape[0]} rows, sketch transpose expects {S.m}")
    if S.kind == "subsample":
        out = np.zeros((S.n, *A.shape[1:]))
        out[S.indices] = S.scale * A
        return out
    return _dense(S).T @ A


def materialize(S: SketchOperator) -> np.ndarray:
    """Dense m x n matrix whose action matches :func:`apply_sketch`; a new array."""
    if S.kind == "subsample":
        dense = np.zeros((S.m, S.n))
        dense[np.arange(S.m), S.indices] = S.scale
        return dense
    # the gaussian matrix is the operator's own read-only array
    return S.matrix.copy() if S.kind == "gaussian" else _dense(S)
