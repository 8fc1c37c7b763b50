"""Certificate that a concrete sketch preserves the kernel's useful spectrum.

Split the eigenvectors of K at the statistical dimension d_n: U1 holds the
leading d_n eigenvectors, U2 the trailing ones with eigenvalue matrix D2.
A sketch S is accepted when

    ||(S U1)^T (S U1) - I||_op <= 1/2   (near-isometry on the head), and
    ||S U2 D2^(1/2)||_op       <= c * delta_n   (small action on the tail).

Both operator norms are computed on dense materialized blocks, to
working precision: the isometry norm by a singular value decomposition
of the small d_n x d_n block, the tail norm as the square root of the
largest eigenvalue of the smaller Gram matrix of its m x (n - d_n) block
(no singular value decomposition of the block itself).  The report always
exposes the raw norms so a caller can re-threshold.

``recommended_sketch_dim`` gives the projection-dimension rule of thumb,
m ~ c * d_n for Gaussian sketches and m ~ c * d_n * ln(n)^4 for ROS
sketches, clamped to [1, n].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from ._util import ceil_int
from .complexity import ComplexityProfile
from .errors import DomainError
from .kernels import KernelMatrix
from .sketch import SketchOperator, materialize

__all__ = [
    "SatisfiabilityReport",
    "check_k_satisfiable",
    "recommended_sketch_dim",
]

DEFAULT_C_THRESHOLD = 4.0
ISOMETRY_THRESHOLD = 0.5


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

    ``S`` may be a :class:`SketchOperator` (materialized internally) or any
    dense matrix with n columns, e.g. the transposed leading eigenvector
    block itself, which passes with both norms exactly zero.  ``profile``
    must be for K's size n.  An empty head (d_n = 0) makes the isometry
    condition vacuous.
    """
    if not c_threshold > 0.0:
        raise DomainError(f"c_threshold must be > 0, got {c_threshold}")
    if profile.n != K.n:
        raise DomainError(f"profile is for n={profile.n}, kernel size is {K.n}")
    dense = materialize(S) if isinstance(S, SketchOperator) else np.asarray(S, dtype=np.float64)
    if dense.ndim != 2 or dense.shape[0] < 1:
        raise DomainError("sketch must be a matrix with at least one row")
    if dense.shape[1] != K.n:
        raise DomainError(f"sketch has {dense.shape[1]} columns, kernel size is {K.n}")
    d_n = profile.d_n
    if not 0 <= d_n <= K.n:
        raise DomainError(f"profile d_n={d_n} out of range for n={K.n}")
    U, mu = K.eig()
    if d_n == 0:
        iso = 0.0
    else:
        SU1 = dense @ U[:, :d_n]
        iso = float(np.linalg.norm(SU1.T @ SU1 - np.eye(d_n), 2))
    if d_n == K.n:
        tail = 0.0
    else:
        B = dense @ U[:, d_n:]
        B *= np.sqrt(mu[d_n:])
        # ||B||_2^2 is the largest eigenvalue of the smaller Gram matrix
        G = B @ B.T if B.shape[0] <= B.shape[1] else B.T @ B
        top = sla.eigh(G, eigvals_only=True, subset_by_index=[G.shape[0] - 1] * 2,
                       overwrite_a=True, check_finite=False)[0]
        tail = float(np.sqrt(max(top, 0.0)))
    passed = iso <= ISOMETRY_THRESHOLD and tail <= c_threshold * profile.delta_n
    return SatisfiabilityReport(
        lhs_isometry=iso,
        lhs_tail=tail,
        delta_n=profile.delta_n,
        c_threshold=float(c_threshold),
        passed=bool(passed),
    )


def recommended_sketch_dim(kind: str, d_n: int, n, c: float) -> int:
    """Projection dimension rule: ceil(c * d_n) for gaussian sketches,
    ceil(c * d_n * ln(n)^4) for ros sketches, clamped to [1, n]."""
    if d_n < 1:
        raise DomainError(f"d_n must be >= 1, got {d_n}")
    if not n >= 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if not c > 0.0:
        raise DomainError(f"c must be > 0, got {c}")
    if kind == "gaussian":
        m = ceil_int(c * d_n)
    elif kind == "ros":
        m = ceil_int(c * d_n * math.log(n) ** 4)
    else:
        raise DomainError(f"no sketch-dimension rule for kind {kind!r}")
    return max(1, min(m, int(n)))
