"""Independent oracles shared by the test modules.

These deliberately avoid the library's own fast paths: the Hadamard matrix
is built by Sylvester recursion, the critical radius by brute-force grid
scan or by bisection in exact rational arithmetic, the ROS operator by
direct matrix assembly, and the sampled rows by one generator call per
swap.  ``count_calls`` and ``spy_routes`` are the spies shared by test
modules.
"""

from fractions import Fraction

import numpy as np
import scipy.linalg as sla

from sketchkrr import SketchOperator


def naive_hadamard(n: int) -> np.ndarray:
    """Unnormalized +-1 Hadamard matrix by Sylvester doubling."""
    assert n >= 1 and (n & (n - 1)) == 0
    H = np.array([[1.0]])
    while H.shape[0] < n:
        H = np.block([[H, H], [H, -H]])
    return H


def ros_dense_oracle(S: SketchOperator) -> np.ndarray:
    """Dense ROS matrix assembled from the explicit Hadamard matrix."""
    assert S.kind == "ros"
    H = naive_hadamard(S.n_pad) / np.sqrt(S.n_pad)
    return S.scale * (H[S.indices] * S.signs[None, :])[:, : S.n]


def sample_without_replacement_loop(rng: np.random.Generator, pool_size: int, m: int) -> np.ndarray:
    """Partial Fisher-Yates with one generator call per slot: slot i swaps
    with j ~ U[i, pool_size), drawn as ``rng.integers(i, pool_size)``."""
    pool = np.arange(pool_size)
    for i in range(m):
        j = int(rng.integers(i, pool_size))
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:m].copy()


def grid_critical_radius(mu, n: int, sigma: float, step: float = 1e-6) -> float:
    """Smallest grid point delta in (0, 1] with R(delta)/delta <= delta/sigma."""
    mu = np.asarray(mu, dtype=np.float64)
    chunk = 50_000
    for start in range(0, 1_000_000, chunk):
        deltas = (np.arange(start, start + chunk) + 1) * step
        # R(delta)/delta <= delta/sigma  <=>  R(delta)^2 <= delta^4 / sigma^2
        rsq = np.minimum(deltas[:, None] ** 2, mu[None, :]).sum(axis=1) / n
        ok = rsq <= deltas**4 / sigma**2
        if ok.any():
            return float(deltas[np.argmax(ok)])
    raise AssertionError("no grid point satisfied the critical inequality")


def rational_critical_radius_sq(mu, n: int, sigma: float, tail: float = 0.0) -> Fraction:
    """delta_n^2 of the spectrum ``mu`` followed by eigenvalue mass ``tail``,
    by bisection on sigma^2 (sum_j min(t, mu_j) + tail) <= n t^2 in exact
    rational arithmetic (the float inputs taken as exact).  The result is
    feasible and exceeds the least feasible t by at most 2^-60 of it."""
    mus = [Fraction(float(v)) for v in mu]
    s2, tail = Fraction(float(sigma)) ** 2, Fraction(float(tail))

    def feasible(t: Fraction) -> bool:
        return s2 * (sum(min(t, v) for v in mus) + tail) <= n * t * t

    if not any(mus) and tail == 0:
        return Fraction(0)
    hi = Fraction(1)
    while not feasible(hi):
        hi *= 2
    lo = hi
    while feasible(lo):
        lo /= 2
    while hi - lo > lo / 2**60:
        mid = (lo + hi) / 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def sobolev_uniform_matrix(n: int) -> np.ndarray:
    """min(x_i, x_j)/n on the uniform grid x_i = i/n."""
    x = np.arange(1, n + 1, dtype=np.float64) / n
    return np.minimum.outer(x, x) / n


def rel_dev(a, b) -> float:
    """Max deviation relative to the larger of 1 and the operand scales."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(1.0, float(np.abs(a).max(initial=0.0)), float(np.abs(b).max(initial=0.0)))
    return float(np.abs(a - b).max(initial=0.0)) / scale


def sketched_objective_excess(K: np.ndarray, y: np.ndarray, Sd: np.ndarray, lam: float, alpha) -> float:
    """Relative excess of the sketched objective at ``alpha`` over its minimum.

    The objective is the least-squares ||M a - c||^2 with the stacked factor
    M = [K S^T; sqrt(2 lam) K^(1/2) S^T] and c = [y / sqrt(n); 0], for the
    dense sketch ``Sd``; K^(1/2) comes from numpy's ``eigh`` and the minimum
    from numpy's SVD-based ``lstsq``, not from the normal equations.
    """
    n = K.shape[0]
    mu, U = np.linalg.eigh(K)
    half = U @ (np.sqrt(np.clip(mu, 0.0, None))[:, None] * (U.T @ Sd.T))
    M = np.vstack([K @ Sd.T, np.sqrt(2.0 * lam) * half])
    c = np.concatenate([y / np.sqrt(n), np.zeros(n)])
    best = np.linalg.lstsq(M, c, rcond=None)[0]
    return float(np.sum((M @ alpha - c) ** 2) / np.sum((M @ best - c) ** 2) - 1.0)


def ridge_fitted_oracle(K: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """K (K + 2 lam I)^{-1} y, the exact KRR fitted values sqrt(n) K w.

    One LU factorization of the shifted system in double precision
    (LAPACK dgetrf through scipy), its solve refined with residuals in
    extended precision (``np.longdouble``), and the product with K taken in
    extended precision as well: no Cholesky factor, no single precision
    and no one-triangle product.
    """
    n = K.shape[0]
    A = K + 2.0 * lam * np.eye(n)
    lu = sla.lu_factor(A)
    Ax, Kx, b = A.astype(np.longdouble), K.astype(np.longdouble), y.astype(np.longdouble)
    x = sla.lu_solve(lu, y).astype(np.longdouble)
    for _ in range(5):
        x += sla.lu_solve(lu, (b - Ax @ x).astype(np.float64))
    return (Kx @ x).astype(np.float64)


def count_calls(monkeypatch, module, name):
    """Record each call of ``module.name``, by name, in the returned list."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def spy_routes(monkeypatch):
    """The route of each exact solve, in order: ``cg``, ``cg past its cap``
    (conjugate gradients gave way) or ``factor`` (K + 2 lam I was factored)."""
    import sketchkrr.solver as solver

    routes = []
    cg, factor = solver._conjugate_gradients, solver.rfp_factor_shifted

    def counted_cg(*args):
        solved = cg(*args)
        routes.append("cg past its cap" if solved is None else "cg")
        return solved

    def counted_factor(*args):
        routes.append("factor")
        return factor(*args)

    monkeypatch.setattr(solver, "_conjugate_gradients", counted_cg)
    monkeypatch.setattr(solver, "rfp_factor_shifted", counted_factor)
    return routes
