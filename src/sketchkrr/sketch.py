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
against m * n for the dense rows; S^T runs the same two factors
transposed, and a caller that applies S and S^T many times (the
certificate's tail norm) builds the factors once for all of them.
Otherwise its m sampled Hadamard rows are built once, at the draw, by
Sylvester doubling in O(m * n), and kept on the operator; a transform-route
sketch builds its rows only for :func:`materialize`.  Sub-sampling gathers
rows, and scatters them for S^T.  Operators are immutable and deterministic
functions of (kind, m, n, seed); applying one to distinct columns is safe
to parallelize.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from ._util import check_count, check_floats, check_seed, check_type
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
    read-only, the m x n matrix :func:`apply_sketch` and
    :func:`apply_sketch_t` multiply by: the gaussian one, or a ros sketch's
    rows where the transform does not pay (always for odd n: 7.4 MB at
    m = 924, n = 1023).  A transform-route sketch keeps neither its rows nor
    its transform's factors, and no apply builds its rows: keeping the rows
    raised certify-fit peak_rss_mb from 112.5 to 123.7 MB (2-core machine).
    Construction converts ``matrix`` and ``signs`` to float64 and rejects a
    non-numeric or non-finite one: every S is finite.
    """

    kind: str
    m: int
    n: int
    seed: int
    matrix: np.ndarray | None = None
    signs: np.ndarray | None = None
    indices: np.ndarray | None = None
    n_pad: int | None = None

    def __post_init__(self):
        # checks of the state against (kind, m, n) and for finiteness, so that
        # a hand-built operator fails here, by name, rather than inside a fit
        if self.kind not in SKETCH_KINDS:
            raise DomainError(f"unknown sketch kind {self.kind!r}")
        m, n = check_count(self.m, "m", 1), check_count(self.n, "n", 1)
        if self.kind == "gaussian" or self.matrix is not None:
            self._check_shape("matrix", (m, n))
        if self.kind == "gaussian":
            return
        bound = n
        if self.kind == "ros":
            bound = 1 << (n - 1).bit_length()
            if self.n_pad != bound:
                raise DomainError(f"ros sketch needs n_pad = {bound} for n = {n}, got {self.n_pad!r}")
            self._check_shape("signs", (bound,))
        idx = self._check_shape("indices", (m,))
        if not np.issubdtype(idx.dtype, np.integer) or idx.min() < 0 or idx.max() >= bound:
            raise DomainError(f"{self.kind} sketch needs integer indices in [0, {bound})")

    def _check_shape(self, field: str, shape: tuple[int, ...]) -> np.ndarray:
        value = getattr(self, field)
        if not isinstance(value, np.ndarray) or value.shape != shape:
            got = value.shape if isinstance(value, np.ndarray) else type(value).__name__
            raise DomainError(f"{self.kind} sketch needs {field} of shape {shape}, got {got}")
        if field != "indices":  # the float fields
            value = check_floats(value, f"{self.kind} sketch {field}", finite=True)
            object.__setattr__(self, field, value)
        return value

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
    seed = check_seed(seed)
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
        S = replace(S, matrix=_ros_rows(S))
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
    a = check_floats(v, "v").copy(order="K")
    n = a.shape[0] if a.ndim else 0  # a scalar has no axis 0
    if n < 1 or (n & (n - 1)) != 0:
        raise DomainError(f"v must have a power-of-two length along axis 0, got shape {a.shape}")
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


def _check_rows(M, rows: int, what: str) -> np.ndarray:
    A = check_floats(M, "operand")
    if A.ndim not in (1, 2):
        raise DomainError("operand must be a vector or a matrix")
    if A.shape[0] != rows:
        raise DomainError(f"operand has {A.shape[0]} rows, {what} expects {rows}")
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


def _ros_rows(S: SketchOperator) -> np.ndarray:
    """The m x n rows of a ros sketch, a new array."""
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


class _RosTransform:
    """A transform-route ros sketch's maps through H_{n_pad} = H_{n_pad/b} (x) H_b.

    Row i = hi * b + lo of H_{n_pad} is H_{n_pad/b}[hi] (x) H_b[lo], and
    the padding beyond n is whole blocks of b rows, so S restricted to the
    n/b blocks of b columns factors as
      W (n/b, u, b): W[J, t] = H_b[lo_t] D_J for the u distinct lo values of
               the sample (D_J: the signs of block J);
      H (u, g, n/b): H[t, r] = c * H_{n_pad/b}[hi_i] for the rows i that
               share lo_t, in rank r, padded with zero rows to the largest
               group's size g;
      slot (m,): row i's index t * g + r in the padded (u, g) layout,
    with c = sqrt(n / (m * n_pad)), so that S[i, J*b + l] = H[t, r, J] W[J, t, l].
    The factors are built at the first apply, after its output array, and
    shared by every later one: built before that array, they raised
    certify-fit's peak RSS by about 0.6 MB (heap layout, same work).
    """

    def __init__(self, S: SketchOperator):
        self.S = S

    @cached_property
    def factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        S = self.S
        n, b = S.n, _ros_factor(S)
        nb = n // b
        lows, group, counts = np.unique(S.indices & (b - 1), return_inverse=True, return_counts=True)
        u, g = len(lows), int(counts.max())
        W = _hadamard_rows(lows, b) * S.signs[:n].reshape(nb, 1, b)
        order = np.argsort(group, kind="stable")
        slot = np.empty(S.m, dtype=np.intp)
        slot[order] = np.arange(S.m) + np.repeat(np.arange(u) * g - (np.cumsum(counts) - counts), counts)
        H = np.zeros((u * g, nb))
        H[slot] = _hadamard_rows(S.indices >> (b.bit_length() - 1), nb)
        H *= np.sqrt(n / (S.m * S.n_pad))
        return W, H.reshape(u, g, nb), slot

    def forward(self, A: np.ndarray) -> np.ndarray:
        """S @ A, with A's rows in n/b blocks of b:
          stage 1: Z[t, J] = W[J, t] A_J, one batched product;
          stage 2: (S A)[i] = sum_J H[t, r, J] Z[t, J] at slot t * g + r,
                   one batched product over the u groups.
        Both run on ``_ROS_PASS_COLUMNS`` columns of A at a time, into
        buffers reused across the passes.
        """
        k = 1 if A.ndim == 1 else A.shape[1]
        out = np.empty((self.S.m, k))
        W, H, slot = self.factors
        (nb, u, b), g = W.shape, H.shape[1]
        blocks = A.reshape(nb, b, k)
        cols = min(max(k, 1), _ROS_PASS_COLUMNS)
        Z, P = np.empty((u, nb, cols)), np.empty((u, g, cols))
        for c in range(0, k, cols):
            w = min(cols, k - c)
            np.matmul(W, blocks[:, :, c : c + w], out=Z[:, :, :w].transpose(1, 0, 2))
            np.matmul(H, Z[:, :, :w], out=P[:, :, :w])
            out[:, c : c + w] = P[:, :, :w].reshape(u * g, w)[slot]
        return out[:, 0] if A.ndim == 1 else out

    def transpose(self, Y: np.ndarray) -> np.ndarray:
        """S^T @ Y, the two stages of :meth:`forward` transposed and run in
        reverse: Y's rows scattered into the padded (u, g) layout (its
        padding stays zero), then H^T per group and W^T per block, on
        ``_ROS_PASS_COLUMNS`` columns at a time.
        """
        k = 1 if Y.ndim == 1 else Y.shape[1]
        rows = Y.reshape(self.S.m, k)
        out = np.empty((self.S.n, k))
        W, H, slot = self.factors
        (nb, u, b), g = W.shape, H.shape[1]
        blocks = out.reshape(nb, b, k)
        cols = min(max(k, 1), _ROS_PASS_COLUMNS)
        P, Z = np.zeros((u, g, cols)), np.empty((u, nb, cols))
        scatter = P.reshape(u * g, cols)
        for c in range(0, k, cols):
            w = min(cols, k - c)
            scatter[slot, :w] = rows[:, c : c + w]
            np.matmul(H.transpose(0, 2, 1), P[:, :, :w], out=Z[:, :, :w])
            np.matmul(W.transpose(0, 2, 1), Z[:, :, :w].transpose(1, 0, 2), out=blocks[:, :, c : c + w])
        return out[:, 0] if Y.ndim == 1 else out


def _maps(S: SketchOperator):
    """S's forward and transposed maps, A -> S @ A and Y -> S^T @ Y, for
    float64 vectors or matrices with n and m rows.  A transform-route ros
    sketch's two maps share one :class:`_RosTransform`, whose factors are
    built once for every call of either."""
    if S.kind == "subsample":
        def gather(A):
            return S.scale * A[S.indices]

        def scatter(Y):
            out = np.zeros((S.n, *Y.shape[1:]))
            out[S.indices] = S.scale * Y
            return out

        return gather, scatter
    if S.matrix is not None:
        return S.matrix.__matmul__, S.matrix.T.__matmul__
    transform = _RosTransform(S)
    return transform.forward, transform.transpose


def apply_sketch(S: SketchOperator, M) -> np.ndarray:
    """Compute S @ M for a length-n vector or an (n, k) matrix."""
    return _maps(check_type(S, SketchOperator, "S"))[0](_check_rows(M, S.n, "sketch"))


def apply_sketch_t(S: SketchOperator, M) -> np.ndarray:
    """Compute S^T @ M for a length-m vector or an (m, k) matrix."""
    return _maps(check_type(S, SketchOperator, "S"))[1](_check_rows(M, S.m, "sketch transpose"))


def materialize(S: SketchOperator) -> np.ndarray:
    """Dense m x n matrix whose action matches :func:`apply_sketch`; a new array."""
    if check_type(S, SketchOperator, "S").kind == "subsample":
        dense = np.zeros((S.m, S.n))
        dense[np.arange(S.m), S.indices] = S.scale
        return dense
    # a stored matrix is the operator's own read-only array
    return _ros_rows(S) if S.matrix is None else S.matrix.copy()
