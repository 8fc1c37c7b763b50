"""Certificate that a concrete sketch preserves the kernel's useful spectrum.

Split the eigenvectors of K at the statistical dimension d_n: U1 holds the
leading d_n eigenvectors, U2 the trailing ones with eigenvalue matrix D2.
A sketch S is accepted when

    ||(S U1)^T (S U1) - I||_op <= 1/2   (near-isometry on the head), and
    ||S U2 D2^(1/2)||_op       <= c * delta_n   (small action on the tail).

Both norms need only U1.  The isometry norm is a singular value
decomposition of the small d_n x d_n block.  For the tail, let
T = S - (S U1) U1^T.  Since (I - U1 U1^T) K (I - U1 U1^T) = U2 D2 U2^T,

    ||S U2 D2^(1/2)||_op^2 = lambda_max(T K T^T),

so neither U2, D2 nor an m x (n - d_n) block is formed.  Narrow sketches
materialize S, form T in place of it and the m x m matrix T K T^T, and
take its top eigenvalue with LAPACK.  Wide ones run Lanczos (the
profile's block Krylov eigensolver, one column per block) on
x -> T (K (T^T x)) with T as an operator on S's own maps,

    T^T y = S^T y - U1 (S U1)^T y,   T w = S w - (S U1)(U1^T w),

so a step reads K once and applies S and S^T to one column each: a ROS
sketch through its fast transform, with no m x n rows, a dense matrix D
as D @ and D^T @.  S U1 is one apply of the n x d_n block.  Both routes
agree with the explicit tail block to working precision.  The report
always exposes the raw norms so a caller can re-threshold.

``recommended_sketch_dim`` gives the projection-dimension rule of thumb,
m ~ c * d_n for Gaussian sketches and m ~ c * d_n * ln(n)^4 for ROS
sketches, clamped to [1, n].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from ._util import block_krylov, ceil_int, check_count
from .complexity import ComplexityProfile
from .errors import DomainError
from .kernels import KernelMatrix
from .sketch import SketchOperator, _maps, materialize

__all__ = [
    "SatisfiabilityReport",
    "check_k_satisfiable",
    "recommended_sketch_dim",
]

DEFAULT_C_THRESHOLD = 4.0
ISOMETRY_THRESHOLD = 0.5

# Sketches with more rows than this take the tail norm by block Krylov with
# one column per block.  The tail step costs, in ms for a gaussian / ros
# sketch on a dense T, and for a ros sketch with T as an operator on its
# transform, factors and S U1 included (best of 5, 2-core machine, one
# OpenBLAS thread):
#
#   m                         64     128     192     256      924
#   sobolev1, n = 1024
#     dense T K T^T + eigh   3/3     6/6   13/11   12/13  126/124
#     block Krylov           8/8    9/10   11/10   10/11    18/20
#     T as an operator, ros    -       -      10      10        9
#   gaussian h = 0.25, irregular design, n = 1200
#     dense T K T^T + eigh   5/5     9/9   14/14   17/18  131/149
#     block Krylov           4/4     4/4     5/5     6/5      9/9
#     T as an operator, ros    -       -       4       5        6
#
# The Krylov route needs fewer steps where the tail spectrum decays fast, so
# the routes cross near m = 192 for sobolev1 and below m = 64 for the
# gaussian kernel; n/8 = 128 at n = 1024 splits them.  A dense T costs a
# ros sketch its m x n rows besides (about 5 ms at m = 924, n = 1024); the
# operator builds none.
DENSE_TAIL_MAX_M = 128
LANCZOS_RTOL = 1e-12


@dataclass(frozen=True)
class SatisfiabilityReport:
    """Raw norms and pass flag of the two-sided sketch condition."""

    lhs_isometry: float
    lhs_tail: float
    delta_n: float
    c_threshold: float
    passed: bool


def check_k_satisfiable(
    S, K: KernelMatrix, profile: ComplexityProfile, c_threshold: float = DEFAULT_C_THRESHOLD
) -> SatisfiabilityReport:
    """Evaluate both conditions for a sketch against a kernel matrix.

    ``S`` may be a :class:`SketchOperator` or any dense matrix with n
    columns, e.g. the transposed leading eigenvector block itself, which
    passes with both norms zero to rounding.  ``profile`` must be for K's
    size n.  An empty head (d_n = 0) makes the isometry condition vacuous
    and needs no eigendecomposition of K.
    """
    if not c_threshold > 0.0:
        raise DomainError(f"c_threshold must be > 0, got {c_threshold}")
    if profile.n != K.n:
        raise DomainError(f"profile is for n={profile.n}, kernel size is {K.n}")
    operator = isinstance(S, SketchOperator)
    if not operator:
        S = np.asarray(S, dtype=np.float64)
        if S.ndim != 2 or S.shape[0] < 1:
            raise DomainError("sketch must be a matrix with at least one row")
    m, width = (S.m, S.n) if operator else S.shape
    if width != K.n:
        raise DomainError(f"sketch has {width} columns, kernel size is {K.n}")
    d_n = profile.d_n
    if not 0 <= d_n <= K.n:
        raise DomainError(f"profile d_n={d_n} out of range for n={K.n}")
    lanczos = m > DENSE_TAIL_MAX_M
    if lanczos:
        forward, transpose = _maps(S) if operator else (S.__matmul__, S.T.__matmul__)
        # S^T 1 sums each column of S, so it is finite only if S is (or
        # unless S's entries are so large that T K T^T would overflow too)
        with np.errstate(invalid="ignore", over="ignore"):
            finite = np.isfinite(transpose(np.ones(m))).all()
    else:
        # a copy either way: T is formed in place of it
        S = materialize(S) if operator else S.copy()
        forward, finite = S.__matmul__, np.isfinite(S).all()
    if not finite:
        raise DomainError("sketch has non-finite entries")
    iso = 0.0
    U1, SU1 = np.empty((K.n, 0)), np.empty((m, 0))  # with an empty head, T = S
    if d_n:
        U1 = K.eig()[0][:, :d_n]
        SU1 = forward(U1)
        iso = float(np.linalg.norm(SU1.T @ SU1 - np.eye(d_n), 2))
    if d_n == K.n:
        tail = 0.0
    elif lanczos:
        def apply(x):
            # T (K (T^T x)), with T^T y = S^T y - U1 (S U1)^T y and
            # T w = S w - (S U1)(U1^T w)
            w = K.matrix @ (transpose(x) - U1 @ (SU1.T @ x))
            return forward(w) - SU1 @ (U1.T @ w)

        tail = math.sqrt(_top_eigenvalue_tkt(apply, m))
    else:
        S -= SU1 @ U1.T  # T, in place of the sketch's copy
        top = sla.eigh((S @ K.matrix) @ S.T, eigvals_only=True, subset_by_index=[m - 1] * 2,
                       overwrite_a=True, check_finite=False)[0]
        tail = math.sqrt(max(float(top), 0.0))
    passed = iso <= ISOMETRY_THRESHOLD and tail <= c_threshold * profile.delta_n
    return SatisfiabilityReport(
        lhs_isometry=iso,
        lhs_tail=tail,
        delta_n=profile.delta_n,
        c_threshold=float(c_threshold),
        passed=bool(passed),
    )


def _top_eigenvalue_tkt(apply, m: int) -> float:
    """lambda_max(T K T^T), clamped at zero, by Lanczos on ``apply``, the
    map x -> T (K (T^T x)) of m x k arrays.  It stops at residual <=
    LANCZOS_RTOL * theta, or once the basis spans R^m and theta is exact."""
    for theta, residuals in block_krylov(apply, m, 1):
        if residuals[0] <= LANCZOS_RTOL * theta[0] or theta.size == m:
            return max(float(theta[0]), 0.0)


def recommended_sketch_dim(kind: str, d_n: int, n: int, c: float) -> int:
    """Projection dimension rule: ceil(c * d_n) for gaussian sketches,
    ceil(c * d_n * ln(n)^4) for ros sketches, clamped to [1, n]."""
    if d_n < 1:
        raise DomainError(f"d_n must be >= 1, got {d_n}")
    n = check_count(n, "n", 1)
    if not 0.0 < c < math.inf:
        raise DomainError(f"c must be finite and > 0, got {c}")
    if kind == "gaussian":
        m = c * d_n
    elif kind == "ros":
        m = c * d_n * math.log(n) ** 4
    else:
        raise DomainError(f"no sketch-dimension rule for kind {kind!r}")
    # a product that overflows to inf clamps to n like any other above n
    return max(1, min(ceil_int(m), n)) if m < n else n
