"""Exact classical GPR inference: the ground truth the quantum estimator is
checked against, plus a conjugate-gradient baseline and a brute-force inverse.

All linear algebra is dense numpy (LAPACK underneath): :func:`predict_exact`
pays the O(n^3) Cholesky factorization once per call and one blocked forward
substitution for the targets and every test point's cross-covariance together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import (ConvergenceError, InputError, NotPositiveDefiniteError, NumericError,
                         finite_array, finite_real, integer, numeric_array)
from .kernels import GPModel, build_cross, eval_kernel


@dataclass(frozen=True)
class Prediction:
    mean: float
    variance: float


def cholesky(system) -> np.ndarray:
    """The lower-triangular array L with L L^T = system; fails unless it is positive definite."""
    a = numeric_array("system", system, square=True).astype(float, copy=False)
    if not np.isfinite(a).all():  # OpenBLAS lets a NaN pivot through
        raise NotPositiveDefiniteError("matrix has non-finite entries")
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"matrix is not positive definite ({exc})") from exc


def predict_exact(model: GPModel, points: list) -> list[Prediction]:
    """Posterior mean and variance at each point of the list ``points`` (Rasmussen &
    Williams, Algorithm 2.1): one Cholesky factor L and one forward substitution z = L^-1
    [y, k_*1, ..., k_*m] serve them all; mean_i = z_i . z_y and variance_i = k(x_i, x_i) -
    |z_i|^2. Each call factors the system, so one call per point pays O(n^3) per point: pass
    them together. The substitution, O(n^2 m) where a general solve pays an LU on L, solves
    each 128-row diagonal block once one product has taken off the rows above it.
    """
    if not isinstance(points, list):
        raise InputError(f"test points must be a list of points, got {points!r}")
    cross = [build_cross(model, x) for x in points]
    k_ss = np.array([eval_kernel(model.kernel, x, x) for x in points])
    L, b = cholesky(model.system), np.column_stack([model.training.y, *cross])
    z = np.empty_like(b)
    for i in range(0, len(L), 128):
        j = i + 128
        z[i:j] = np.linalg.solve(L[i:j, i:j], b[i:j] - L[i:j, :i] @ z[:i])
    with np.errstate(over="ignore"):  # a mean past the float range reads inf, not a warning
        means, variances = z[:, 0] @ z[:, 1:], k_ss - (z[:, 1:] ** 2).sum(0)
    return [Prediction(float(m), float(v)) for m, v in zip(means, variances)]


def cg_solve(system, b, tol: float = 1e-10, max_iter: int | None = None) -> np.ndarray:
    """Conjugate gradients for SPD systems, zero initial guess.

    Converged when ||A x - b|| / ||b|| <= tol; raises ConvergenceError with
    the final relative residual after ``max_iter`` iterations.
    """
    a = finite_array("system", system)
    b = finite_array("vector", b).reshape(-1)
    tol = finite_real("tol", tol, 0)
    n = b.shape[0]
    if a.shape != (n, n):
        raise InputError(f"system shape {a.shape} does not match vector length {n}")
    max_iter = 10 * n if max_iter is None else integer("max_iter", max_iter, 0)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(n)
    x = np.zeros(n)
    r = b.copy()
    p = r.copy()
    rs = r @ r
    for _ in range(max_iter):
        if math.sqrt(rs) / bnorm <= tol:
            break
        ap = a @ p
        alpha = rs / (p @ ap)
        x += alpha * p
        r -= alpha * ap
        rs_next = r @ r
        p = r + (rs_next / rs) * p
        rs = rs_next
    true_residual = np.linalg.norm(a @ x - b) / bnorm
    if true_residual > tol:
        raise ConvergenceError(
            f"no convergence after {max_iter} iterations "
            f"(relative residual {true_residual:.3e})",
            residual=float(true_residual),
        )
    return x


def dense_inverse(system) -> np.ndarray:
    """Brute-force inverse with a residual check (test oracle)."""
    a = finite_array("system", system, square=True)
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"matrix is singular: {exc}") from exc
    residual = np.abs(a @ inv - np.eye(a.shape[0])).max()
    if not residual <= 1e-10:  # also rejects NaN
        raise NumericError(f"inverse residual {residual:.3e} exceeds 1e-10")
    return inv
