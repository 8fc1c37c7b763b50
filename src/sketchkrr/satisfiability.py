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

so neither U2, D2 nor an m x (n - d_n) block is formed.  T is an operator
on S's own maps, applied as X -> T (K (T^T X)) with

    T^T Y = S^T Y - U1 (S U1)^T Y,   T W = S W - (S U1)(U1^T W):

a ROS sketch through its fast transform, with no m x n rows, a
sub-sampling sketch by gathering and scattering rows, and a dense matrix
D as the gaussian operator on it, by D @ and D^T @.  S U1 is one apply
of the n x d_n block.  Narrow sketches apply it to the m x m identity
and take the top eigenvalue of the result with LAPACK; wide ones run
Lanczos (the profile's block Krylov eigensolver, one column per block)
on it, so a step reads one triangle of K, applies S and S^T to one column
each and factors two one-column QRs.  Both routes agree with the explicit
tail block to working precision.  The report always exposes the raw norms
so a caller can re-threshold.

``recommended_sketch_dim`` gives the projection-dimension rule of thumb,
m ~ c * d_n for Gaussian sketches and m ~ c * d_n * ln(n)^4 for ROS
sketches, clamped to [1, n].
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from ._util import block_krylov, ceil_int, check_count, check_floats, check_positive, check_type, symv
from .complexity import ComplexityProfile
from .errors import DomainError
from .kernels import KernelMatrix
# materialize is not called here, but the benchmark's tracer patches it here
from .sketch import SketchOperator, _maps, materialize  # noqa: F401

__all__ = [
    "SatisfiabilityReport",
    "check_k_satisfiable",
    "recommended_sketch_dim",
]

DEFAULT_C_THRESHOLD = 4.0
ISOMETRY_THRESHOLD = 0.5

# Sketches with more rows than this take the tail norm by block Krylov with
# one column per block, each step reading one triangle of K; narrower ones
# apply T K T^T to the m x m identity and call eigh.  A certificate costs, in
# ms for a gaussian sketch / a ros sketch given as its dense rows / a ros
# operator on its transform (- where the transform does not pay), factors
# and S U1 included (K.eig() cached; best of 5, of 3 for the dense route at
# m = 924; 2-core machine, one OpenBLAS thread):
#
#   m                    64        128       192        256         924
#   sobolev1, n = 1024
#     T K T^T I + eigh   4/5/-     9/9/9     15/15/12   21/21/17    203/182/130
#     block Krylov       7/7/-     7/8/8     8/8/8      10/10/9     18/19/10
#   gaussian h = 0.25, irregular design, n = 1200
#     T K T^T I + eigh   6/5/6     10/10/10  16/16/14   23/25/21    209/216/158
#     block Krylov       4/3/4     4/4/4     5/5/4      5/5/4       10/10/5
#
# The Krylov route needs fewer steps where the tail spectrum decays fast, so
# the routes cross between m = 64 and 128 for sobolev1 and below m = 64 for
# the gaussian kernel; n/8 = 128 at n = 1024 splits them.  The dense route
# pays S^T I for a sketch given as its rows, m^2 n multiply-adds: 0.36 ms at
# m = 80, n = 1024, where a certificate took 4.5 ms forming (S K) S^T.
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

    ``S`` may be a :class:`SketchOperator` or any finite dense matrix with
    n columns, taken as the gaussian operator on it (e.g. the transposed
    leading eigenvector block, which passes with both norms zero to
    rounding).  ``profile`` must be for K's size n, with an integer d_n in
    [0, n].  An empty head (d_n = 0) makes the isometry condition vacuous
    and needs no eigendecomposition of K.
    """
    check_positive(c_threshold, "c_threshold")
    if check_type(profile, ComplexityProfile, "profile").n != check_type(K, KernelMatrix, "K").n:
        raise DomainError(f"profile is for n={profile.n}, kernel size is {K.n}")
    if not isinstance(S, SketchOperator):
        S = check_floats(S, "sketch")
        if S.ndim != 2:
            raise DomainError("sketch must be a matrix")
        S = SketchOperator("gaussian", *S.shape, 0, matrix=S)
    if S.n != K.n:
        raise DomainError(f"sketch has {S.n} columns, kernel size is {K.n}")
    d_n, m = profile.d_n, S.m
    if not (isinstance(d_n, numbers.Integral) and 0 <= d_n <= K.n):
        raise DomainError(f"profile d_n={d_n} out of range for n={K.n}")
    forward, transpose = _maps(S)
    iso = 0.0
    U1, SU1 = np.empty((K.n, 0)), np.empty((m, 0))  # with an empty head, T = S
    if d_n:
        U1 = K.eig()[0][:, :d_n]
        SU1 = forward(U1)
        iso = float(np.linalg.norm(SU1.T @ SU1 - np.eye(d_n), 2))

    def apply(X):
        # T (K (T^T X)), with T^T Y = S^T Y - U1 (S U1)^T Y and
        # T W = S W - (S U1)(U1^T W)
        W = symv(K.matrix, transpose(X) - U1 @ (SU1.T @ X))
        return forward(W) - SU1 @ (U1.T @ W)

    if d_n == K.n:
        tail = 0.0
    elif m <= DENSE_TAIL_MAX_M:
        top = sla.eigh(apply(np.eye(m)), eigvals_only=True, subset_by_index=[m - 1] * 2,
                       overwrite_a=True, check_finite=False)[0]
        tail = math.sqrt(max(float(top), 0.0))
    else:
        tail = math.sqrt(_top_eigenvalue_tkt(apply, m))
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
    for theta, residuals, _ in block_krylov(apply, m, 1):
        if residuals[0] <= LANCZOS_RTOL * theta[0] or theta.size == m:
            return max(float(theta[0]), 0.0)


def recommended_sketch_dim(kind: str, d_n: int, n: int, c: float) -> int:
    """Projection dimension rule: ceil(c * d_n) for gaussian sketches,
    ceil(c * d_n * ln(n)^4) for ros sketches, clamped to [1, n]."""
    d_n = check_count(d_n, "d_n", 1)
    n = check_count(n, "n", 1)
    c = check_positive(c, "c")
    if kind == "gaussian":
        m = c * d_n
    elif kind == "ros":
        m = c * d_n * math.log(n) ** 4
    else:
        raise DomainError(f"no sketch-dimension rule for kind {kind!r}")
    # a product that overflows to inf clamps to n like any other above n
    return max(1, min(ceil_int(m), n)) if m < n else n
