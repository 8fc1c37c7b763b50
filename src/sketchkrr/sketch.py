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

A Gaussian sketch is applied as one dense product with its m x n matrix.
A ROS sketch is applied, for m well above sqrt(n_pad), by the Kronecker
factorization H_{n_pad} = H_{n_pad/b} (x) H_b restricted to the sampled
rows (the subsampled randomized Hadamard transform of Ailon and Chazelle
2006, analysed by Tropp 2011): about (u * n + m * n/b) multiply-adds per
column, with u <= min(m, b) the distinct rows of H_b the sample needs,
against m * n for the dense rows.  Otherwise its m sampled Hadamard rows
are built once, at the draw, by Sylvester doubling in O(m * n), and kept
on the operator; a transform-route sketch builds them for each S^T call.
Sub-sampling gathers rows.  Operators are immutable and deterministic
functions of (kind, m, n, seed); applying one to distinct columns is safe
to parallelize.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._util import check_count
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

    The state that defines the operator is stored: the Rademacher sign
    vector plus sampled row indices (over the padded length ``n_pad``) for
    ``ros``, sampled row indices for ``subsample``, and in ``matrix``,
    read-only, the m x n matrix :func:`apply_sketch` multiplies by: the
    gaussian one, or a ros sketch's rows where the transform does not pay
    (always for odd n: 7.4 MB at m = 924, n = 1023).  Transform-route rows
    are not kept: that raised certify-fit peak_rss_mb from 112.5 to 123.7
    MB (2-core machine).
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
    # partial Fisher-Yates: only the first m slots are ever finalized.  Slot
    # i swaps with j_i ~ U[i, pool_size); one call draws every j_i with the
    # values, and leaves the generator in the state, of one call per slot.
    # The swaps go through memoryviews: a list of pool_size Python ints
    # fragmented the small-object heap and raised peak RSS a little per draw.
    targets = memoryview(rng.integers(np.arange(m), pool_size))
    pool = np.arange(pool_size)
    slots = memoryview(pool)
    for i in range(m):
        j = targets[i]
        slots[i], slots[j] = slots[j], slots[i]
    out = pool[:m].copy()
    out.setflags(write=False)
    return out


def draw_sketch(kind: str, m: int, n: int, seed: int) -> SketchOperator:
    """Draw a sketch operator, deterministic in (kind, m, n, seed)."""
    if kind not in SKETCH_KINDS:
        raise DomainError(f"unknown sketch kind {kind!r}")
    m, n = check_count(m, "m", 1), check_count(n, "n", 1)
    if m > n:
        raise DomainError(f"need 1 <= m <= n, got m={m}, n={n}")
    rng = np.random.default_rng(seed & _SEED_MASK)
    if kind == "subsample":
        return SketchOperator(kind, m, n, seed, indices=_sample_without_replacement(rng, n, m))
    if kind == "gaussian":
        S = SketchOperator(kind, m, n, seed, matrix=rng.normal(0.0, 1.0 / np.sqrt(m), size=(m, n)))
    else:
        n_pad = 1 << (n - 1).bit_length()
        signs = (2.0 * rng.integers(0, 2, size=n_pad) - 1.0).astype(np.float64)
        signs.setflags(write=False)
        idx = _sample_without_replacement(rng, n_pad, m)
        S = SketchOperator(kind, m, n, seed, signs=signs, indices=idx, n_pad=n_pad)
        if _ros_transform_pays(S):
            return S
        S = replace(S, matrix=_dense(S))
    S.matrix.setflags(write=False)
    return S


def identity_sketch(n: int) -> SketchOperator:
    """The n x n identity as a sub-sampling sketch (m = n, unpermuted)."""
    n = check_count(n, "n", 1)
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


def _hadamard_rows(rows: np.ndarray, width: int) -> np.ndarray:
    """Rows ``rows`` of the +-1 Sylvester Hadamard matrix, first ``width`` columns.

    H[i, j] = (-1)^popcount(i & j), doubled one bit of i at a time:
    H[i, j + h] = H[i, j] * (-1)^(bit b of i) for j < h = 2^b.
    """
    # Built in place in the one result: growing it by concatenation left
    # temporaries of every size on the heap, and the peak RSS of identical
    # runs then differed by about 5 MB.
    out = np.empty((len(rows), width))
    out[:, 0] = 1.0
    bits = (width - 1).bit_length()
    flips = 1.0 - 2.0 * ((rows[:, None] >> np.arange(bits)) & 1)
    for b in range(bits):
        h = 1 << b
        np.multiply(out[:, : min(h, width - h)], flips[:, b : b + 1], out=out[:, h : 2 * h])
    return out


def _dense(S: SketchOperator) -> np.ndarray:
    """The stored m x n matrix, or the rows of a transform-route ros sketch."""
    if S.matrix is not None:
        return S.matrix
    rows = _hadamard_rows(S.indices, S.n)
    rows *= S.signs[: S.n] * np.sqrt(S.n / (S.m * S.n_pad))
    return rows


# Columns of the operand per pass of the ROS transform: its stage-1 and
# stage-2 buffers and the gathered rows then take about half a MB each at
# n = 1024, m = 924.  A certify-fit m = 924 fit took 73 / 65 / 64 ms at
# 32 / 64 / 128 columns (one BLAS thread), with the same peak RSS.
_ROS_PASS_COLUMNS = 64


def _ros_factor(S: SketchOperator) -> int:
    """b of H_{n_pad} = H_{n_pad/b} (x) H_b: the largest power of two that is
    at most sqrt(n_pad) and divides n, so that the padding fills whole
    blocks of b rows (1 for odd n)."""
    return min(1 << ((S.n_pad.bit_length() - 1) // 2), S.n & -S.n)


# The ROS transform is used when its multiply-adds per column,
# min(m, b) * n + m * n/b, are at most half the dense rows' m * n: its
# many small products run at about half the rate of one large one.  S K in
# ms for a sobolev1 K, dense rows / transform (median of 15, 2-core
# machine, one OpenBLAS thread; * marks the route taken):
#
#   m                  11          64          192         462         924
#   n = 1024, b = 32   1.8*/1.8    2.8*/3.5    9.3/3.6*    22.4/5.1*   35.5/8.5*
#   n = 1200, b = 16   1.5*/1.4    3.8/2.5*    9.3/3.7*    22.3/6.2*   49.6/13.6*
#
# At the sweeps' m = 11 the transform's per-call setup, paid again by the
# fit's second product S (S K)^T, decides: with every ros sketch on the
# transform, arm_ms_p50.ros went 1.72 -> 2.06 ms on grid-sweep and
# 2.40 -> 3.86 ms on random-design-sweep (10 pairs each, none won).
def _ros_transform_pays(S: SketchOperator) -> bool:
    b = _ros_factor(S)
    return 2 * (min(S.m, b) * S.n + S.m * (S.n // b)) <= S.m * S.n


def _ros_apply(S: SketchOperator, A: np.ndarray) -> np.ndarray:
    """S @ A for a ros sketch through H_{n_pad} = H_{n_pad/b} (x) H_b.

    Row i = hi * b + lo of H_{n_pad} is H_{n_pad/b}[hi] (x) H_b[lo], and
    the padding beyond n is whole blocks of b rows, so with A's rows in
    n/b blocks of b:
      stage 1: Z[t, J] = H_b[lo_t] D_J A_J for the u distinct lo values of
               the sample (D_J: the signs of block J), one batched product;
      stage 2: (S A)[i] = c * sum_J H_{n_pad/b}[hi_i, J] Z[t_i, J], one
               batched product over the u groups of rows that share a lo
               value, each padded to the largest group's size g,
    with c = sqrt(n / (m * n_pad)).  Both run on ``_ROS_PASS_COLUMNS``
    columns of A at a time, into buffers reused across the passes.
    """
    n, b = S.n, _ros_factor(S)
    nb = n // b
    blocks = (A[:, None] if A.ndim == 1 else A).reshape(nb, b, -1)
    k = blocks.shape[2]
    # allocated before the temporaries: after them, it raised certify-fit's
    # peak RSS by about 0.4 MB
    out = np.empty((S.m, k))
    lows, group, counts = np.unique(S.indices & (b - 1), return_inverse=True, return_counts=True)
    u, g = len(lows), int(counts.max())
    W = _hadamard_rows(lows, b) * S.signs[:n].reshape(nb, 1, b)
    # row i's slot in the padded (u, g) layout: its group, then its rank there
    order = np.argsort(group, kind="stable")
    slot = np.empty(S.m, dtype=np.intp)
    slot[order] = np.arange(S.m) + np.repeat(np.arange(u) * g - (np.cumsum(counts) - counts), counts)
    H = np.zeros((u * g, nb))
    H[slot] = _hadamard_rows(S.indices >> (b.bit_length() - 1), nb)
    H *= np.sqrt(n / (S.m * S.n_pad))
    H = H.reshape(u, g, nb)

    cols = min(max(k, 1), _ROS_PASS_COLUMNS)
    Z, P = np.empty((u, nb, cols)), np.empty((u, g, cols))
    for c in range(0, k, cols):
        w = min(cols, k - c)
        np.matmul(W, blocks[:, :, c : c + w], out=Z[:, :, :w].transpose(1, 0, 2))
        np.matmul(H, Z[:, :, :w], out=P[:, :, :w])
        out[:, c : c + w] = P[:, :, :w].reshape(u * g, w)[slot]
    return out[:, 0] if A.ndim == 1 else out


def apply_sketch(S: SketchOperator, M) -> np.ndarray:
    """Compute S @ M for a length-n vector or an (n, k) matrix."""
    A = _check_rows(S, M)
    if S.kind == "subsample":
        return S.scale * A[S.indices]
    if S.matrix is not None:
        return S.matrix @ A
    return _ros_apply(S, A)


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
    # a stored matrix is the operator's own read-only array
    return _dense(S) if S.matrix is None else S.matrix.copy()
