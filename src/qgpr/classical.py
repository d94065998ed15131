"""Exact classical GPR inference: the ground truth the quantum estimator is
checked against, plus a conjugate-gradient baseline and a brute-force inverse.

All linear algebra is dense numpy (LAPACK underneath): the O(n^3) Cholesky
factorization and the weights system^-1 y are computed once per model
(``GPModel.factor``, ``GPModel.alpha``) and shared by its test points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ConvergenceError, InputError, NotPositiveDefiniteError, NumericError
from .kernels import GPModel, build_cross, eval_kernel


@dataclass(frozen=True)
class CholeskyFactor:
    L: np.ndarray


@dataclass(frozen=True)
class Prediction:
    mean: float
    variance: float


def cholesky(system) -> CholeskyFactor:
    """Lower-triangular L with L L^T = system; fails unless the matrix is positive definite."""
    a = np.asarray(system, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():  # OpenBLAS lets a NaN pivot through
        raise NotPositiveDefiniteError("matrix has non-finite entries")
    try:
        return CholeskyFactor(np.linalg.cholesky(a))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"matrix is not positive definite ({exc})") from exc


def predict_exact(model: GPModel, x_star) -> Prediction:
    """Posterior mean and variance at the test point via Cholesky solves."""
    k_star = build_cross(model, x_star)
    k_ss = eval_kernel(model.kernel, x_star, x_star)
    w = np.linalg.solve(model.factor.L, k_star)
    return Prediction(mean=float(k_star @ model.alpha), variance=float(k_ss - w @ w))


def cg_solve(system, b, tol: float = 1e-10, max_iter: int | None = None) -> np.ndarray:
    """Conjugate gradients for SPD systems, zero initial guess.

    Converged when ||A x - b|| / ||b|| <= tol; raises ConvergenceError with
    the final relative residual after ``max_iter`` iterations.
    """
    a = np.asarray(system, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    if not tol > 0:  # also rejects NaN
        raise InputError(f"tol must be > 0, got {tol}")
    n = b.shape[0]
    if a.shape != (n, n):
        raise InputError(f"system shape {a.shape} does not match vector length {n}")
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(n)
    if max_iter is None:
        max_iter = 10 * n
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
    a = np.asarray(system, dtype=float)
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"matrix is singular: {exc}") from exc
    residual = np.abs(a @ inv - np.eye(a.shape[0])).max()
    if residual > 1e-10:
        raise NumericError(f"inverse residual {residual:.3e} exceeds 1e-10")
    return inv
