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

from .exceptions import (ConvergenceError, InputError, NotPositiveDefiniteError, NumericError,
                         finite_array, finite_real, integer, numeric_array)
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
    a = numeric_array("system", system, square=True).astype(float, copy=False)
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
    with np.errstate(over="ignore"):  # a mean past the float range reads inf, not a warning
        return Prediction(mean=float(k_star @ model.alpha), variance=float(k_ss - w @ w))


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
