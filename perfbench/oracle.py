"""Independent dense oracles for the calls the tracer captured.

These avoid the library's own code paths: K is rebuilt from the design
points with numpy outer operations, a ROS sketch is assembled from an
explicit Sylvester Hadamard matrix, the solves go through ``numpy.linalg``,
and the certificate norms come from a fresh ``eigh`` of K.  Run them only
after the tracer is uninstalled, so their factorizations are not counted.
"""

from __future__ import annotations

import numpy as np

# max deviation relative to max(1, operand scale); see rel_dev
KERNEL_TOL = 1e-12
FIT_TOL = 1e-9
CERT_TOL = 1e-8

# A sketched fit solves the m x m normal equations A a = b of the stacked
# least-squares problem min ||M a - c||, A = M^T M, b = M^T c.  Sub-sampling
# on the clustered design gives cond(A) of 1e16 and beyond, where even a
# backward-stable solve can miss the fitted values in every digit, so they
# cannot be compared; its backward error
#     eta = ||A a - b|| / (||A|| ||a|| + ||A||^(1/2) ||c||)
# stays small whatever cond(A) is.  A solve on the definite path must be backward stable (measured
# worst eta about 1e-16), and the fitted values must be sqrt(n) K S^T a to
# the same relative accuracy.
BACKWARD_TOL = 1e-13
# a fit flagged rank-deficient is the minimum-norm solution with eigenvalues
# of A below this share of the largest dropped (the solver's contract); each
# dropped eigenvalue w leaves at most sqrt(w) ||c|| of residual, so its eta
# is at most sqrt(m * PINV_REL_CUTOFF)
PINV_REL_CUTOFF = 1e-12

# the certificate's head condition, ||(S U1)^T (S U1) - I||_op <= 1/2
ISOMETRY_THRESHOLD = 0.5


def rel_dev(a, b) -> float:
    """Max deviation relative to the larger of 1 and the operand scales."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(1.0, float(np.abs(a).max(initial=0.0)), float(np.abs(b).max(initial=0.0)))
    return float(np.abs(a - b).max(initial=0.0)) / scale


def hadamard(n: int) -> np.ndarray:
    """Unnormalized +-1 Hadamard matrix by Sylvester doubling."""
    H = np.array([[1.0]])
    while H.shape[0] < n:
        H = np.block([[H, H], [H, -H]])
    return H


def dense_sketch(S) -> np.ndarray:
    """The m x n matrix of a sketch operator, assembled from its definition."""
    scale = np.sqrt(S.n / S.m)
    if S.kind == "gaussian":
        return np.array(S.matrix)
    if S.kind == "ros":
        H = hadamard(S.n_pad) / np.sqrt(S.n_pad)
        return scale * (H[S.indices] * S.signs[None, :])[:, : S.n]
    dense = np.zeros((S.m, S.n))
    dense[np.arange(S.m), S.indices] = scale
    return dense


def kernel_matrix(spec, x: np.ndarray) -> np.ndarray:
    """K[i, j] = kernel(x_i, x_j) / n from numpy outer operations."""
    n = x.size
    if spec.kind == "sobolev1":
        return np.minimum.outer(x, x) / n
    if spec.kind == "gaussian":
        return np.exp(-np.subtract.outer(x, x) ** 2 / (2.0 * spec.bandwidth**2)) / n
    return (1.0 + np.multiply.outer(x, x)) ** spec.degree / n


def exact_fitted(K: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    n = K.shape[0]
    w = np.linalg.solve(K + 2.0 * lam * np.eye(n), y / np.sqrt(n))
    return np.sqrt(n) * (K @ w)


def sketched_fit_error(K: np.ndarray, y: np.ndarray, Sd: np.ndarray, lam: float,
                       alpha: np.ndarray, fitted: np.ndarray) -> float:
    """The larger of eta for ``alpha`` in the sketched normal equations built
    from K and Sd, and the relative error of ``fitted`` = sqrt(n) K S^T alpha."""
    n = K.shape[0]
    SK = Sd @ K
    A = SK @ SK.T + 2.0 * lam * (SK @ Sd.T)
    b = SK @ y / np.sqrt(n)
    norm_A = float(np.linalg.norm(A, 2))
    scale = norm_A * np.linalg.norm(alpha) + np.sqrt(norm_A) * np.linalg.norm(y) / np.sqrt(n)
    eta = np.linalg.norm(A @ alpha - b) / scale
    values = np.sqrt(n) * (SK.T @ alpha)
    drift = np.linalg.norm(fitted - values) / (np.sqrt(norm_A * n) * np.linalg.norm(alpha))
    return float(max(eta, drift))


def sketched_objective_excess(K: np.ndarray, y: np.ndarray, Sd: np.ndarray, lam: float,
                              alpha: np.ndarray, mu: np.ndarray, U: np.ndarray) -> float:
    """Relative excess of ``alpha``'s least-squares objective ||M a - c||^2 over
    its minimum, found by an SVD solve of the stacked problem; mu, U is the
    spectrum of K."""
    n = K.shape[0]
    half_St = U @ (np.sqrt(mu)[:, None] * (U.T @ Sd.T))  # K^(1/2) S^T
    M = np.vstack([K @ Sd.T, np.sqrt(2.0 * lam) * half_St])
    c = np.concatenate([y / np.sqrt(n), np.zeros(n)])
    best = np.linalg.lstsq(M, c, rcond=None)[0]
    optimum = float(np.sum((M @ best - c) ** 2))
    return float(np.sum((M @ alpha - c) ** 2)) / optimum - 1.0


def descending_eigh(K: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mu, U = np.linalg.eigh(K)
    return np.clip(mu[::-1], 0.0, None), U[:, ::-1]


def certificate_norms(Sd: np.ndarray, mu: np.ndarray, U: np.ndarray, d_n: int) -> tuple[float, float]:
    SU1 = Sd @ U[:, :d_n]
    iso = float(np.linalg.norm(SU1.T @ SU1 - np.eye(d_n), 2)) if d_n else 0.0
    tail = float(np.linalg.norm((Sd @ U[:, d_n:]) * np.sqrt(mu[d_n:]), 2)) if d_n < U.shape[0] else 0.0
    return iso, tail


def _args(names, args, kwargs):
    bound = dict(zip(names, args))
    bound.update(kwargs)
    return bound


def check_captures(captures) -> list[tuple[str, float, float]]:
    """(name, deviation, tolerance) of every captured call against its oracle."""
    spectra = Spectra()
    return [(name, *_check(name, args, kwargs, result, spectra))
            for name, args, kwargs, result in captures]


def worst_objective_excess(captures) -> float:
    """The largest objective excess (see sketched_objective_excess) of the
    captured sketched fits; reported, not checked, because a fit on the
    definite path at cond(A) beyond 1/eps is backward stable but can be far
    from the optimum, and a rank-deficient fit drops directions by contract."""
    spectra = Spectra()
    excess = []
    for name, args, kwargs, result in captures:
        if name == "solver.sketched":
            a = _args(("K", "y", "S", "lambda_n"), args, kwargs)
            excess.append(sketched_objective_excess(
                a["K"].matrix, np.asarray(a["y"]), dense_sketch(a["S"]), a["lambda_n"],
                result.coefficients, *spectra(a["K"])))
    return max(excess, default=np.nan)


class Spectra:
    """descending_eigh of each KernelMatrix, computed once."""

    def __init__(self):
        self._cache: dict[int, tuple[object, np.ndarray, np.ndarray]] = {}

    def __call__(self, K) -> tuple[np.ndarray, np.ndarray]:
        if id(K) not in self._cache:
            self._cache[id(K)] = (K, *descending_eigh(K.matrix))
        return self._cache[id(K)][1:]


def _check(name, args, kwargs, result, spectra: Spectra) -> tuple[float, float]:
    if name == "kernels.build":
        a = _args(("spec", "pts"), args, kwargs)
        return rel_dev(result.matrix, kernel_matrix(a["spec"], a["pts"].x)), KERNEL_TOL
    if name == "solver.exact":
        a = _args(("K", "y", "lambda_n"), args, kwargs)
        want = exact_fitted(a["K"].matrix, np.asarray(a["y"]), a["lambda_n"])
        return rel_dev(result.fitted, want), FIT_TOL
    if name == "solver.sketched":
        a = _args(("K", "y", "S", "lambda_n"), args, kwargs)
        tol = BACKWARD_TOL
        if result.rank_deficient:
            tol += np.sqrt(a["S"].m * PINV_REL_CUTOFF)
        if not (np.isfinite(result.coefficients).all() and np.isfinite(result.fitted).all()):
            return np.inf, tol
        return sketched_fit_error(a["K"].matrix, np.asarray(a["y"]), dense_sketch(a["S"]),
                                  a["lambda_n"], result.coefficients, result.fitted), tol
    if name == "satisfiability.check":
        a = _args(("S", "K", "profile"), args, kwargs)
        profile = a["profile"]
        iso, tail = certificate_norms(dense_sketch(a["S"]), *spectra(a["K"]), profile.d_n)
        dev = max(rel_dev(result.lhs_isometry, iso), rel_dev(result.lhs_tail, tail))
        passed = iso <= ISOMETRY_THRESHOLD and tail <= result.c_threshold * profile.delta_n
        near = (abs(iso - ISOMETRY_THRESHOLD) <= CERT_TOL
                or abs(tail - result.c_threshold * profile.delta_n) <= CERT_TOL)
        if passed != result.passed and not near:
            dev = float("inf")
        return dev, CERT_TOL
    raise ValueError(f"no oracle for {name!r}")
