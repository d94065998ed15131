"""Covariance functions, Gram matrices, and the regularized GPR system matrix.

Two kernel families: the dense squared-exponential and a compact-support
Wendland kernel whose Gram matrix has exact structural zeros beyond the
cutoff radius (the sparse case). The system matrix is the Gram matrix plus
the noise variance on the diagonal; its conditioning and row sparsity drive
the cost model of the quantum solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exceptions import ConditioningError, InputError, NumericError, finite_array, finite_real

SQUARED_EXPONENTIAL = "squared-exponential"
COMPACT_SUPPORT = "compact-support"
FAMILIES = (SQUARED_EXPONENTIAL, COMPACT_SUPPORT)
MAX_GRAM_ENTRIES = 1 << 22  # of the Gram matrix's (n, n, d) differences: the state cap's 2^22


def as_point(x) -> np.ndarray:
    """Coerce an input point to a finite 1-D float vector."""
    p = np.atleast_1d(finite_array("input point", x))
    if p.ndim != 1:
        raise InputError(f"input point must be one-dimensional, got shape {p.shape}")
    return p


@dataclass(frozen=True)
class KernelSpec:
    """Parametrized covariance function family. Its hyperparameters are finite floats, positive
    where the family uses them; only compact-support uses ``cutoff_radius``, and needs it."""

    family: str
    signal_variance: float = 1.0
    lengthscale: float = 1.0
    cutoff_radius: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InputError(f"unknown kernel family {self.family!r}; expected one of {FAMILIES}")
        for name in ("signal_variance", "lengthscale", "cutoff_radius"):
            used = name != "cutoff_radius" or self.family == COMPACT_SUPPORT
            if used or getattr(self, name) is not None:
                value = finite_real(f"kernel.{name}", getattr(self, name), 0 if used else -np.inf)
                object.__setattr__(self, name, value)


@dataclass(frozen=True)
class TrainingSet:
    """Training inputs (n x d) and targets (n,)."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = finite_array("training X", self.X)
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        if X.ndim != 2 or X.shape[0] < 1:
            raise InputError(f"training inputs must be (n, d) with n >= 1, got {X.shape}")
        y = finite_array("training y", self.y).reshape(-1)
        if y.shape[0] != X.shape[0]:
            raise InputError(f"{X.shape[0]} points but {y.shape[0]} targets")
        X.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class GPModel:
    """Training data, kernel, noise variance, and derived matrices.

    ``system = gram + noise_variance * I`` is the matrix whose inverse enters
    both the linear predictor and the predictive variance; ``factor`` is its
    Cholesky factor and ``alpha`` the weights ``system^-1 y``, each computed on
    first use and kept for the model's lifetime.
    """

    training: TrainingSet
    kernel: KernelSpec
    noise_variance: float
    gram: np.ndarray = field(repr=False)
    system: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.training.n

    @cached_property
    def factor(self):
        from .classical import cholesky  # a module-level import would be circular
        return cholesky(self.system)

    @cached_property
    def alpha(self) -> np.ndarray:
        L = self.factor.L
        return np.linalg.solve(L.T, np.linalg.solve(L, self.training.y))


@dataclass(frozen=True)
class SystemDiagnostics:
    kappa: float
    row_sparsity: int
    min_eig: float


def _k(spec: KernelSpec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """k(a, b) for every row a of A and row b of B, as a (len(A), len(B)) array.

    A distance that overflows is infinite, which gives k = 0 in both families.
    """
    with np.errstate(over="ignore"):
        diff = A[:, None, :] - B[None, :, :]
        if spec.family == SQUARED_EXPONENTIAL:
            return spec.signal_variance * np.exp(-0.5 * ((diff / spec.lengthscale) ** 2).sum(-1))
        r = np.sqrt((diff**2).sum(-1))
        u = np.minimum(r / spec.cutoff_radius, 1.0)  # structural zero beyond the cutoff
    return spec.signal_variance * (1.0 - u) ** 4 * (4.0 * u + 1.0)


def eval_kernel(spec: KernelSpec, x, x2) -> float:
    """Evaluate k(x, x2); symmetric, and k(x, x) = signal_variance."""
    p, q = as_point(x), as_point(x2)
    if p.shape != q.shape:
        raise InputError(f"dimension mismatch: {p.shape[0]} vs {q.shape[0]}")
    return float(_k(spec, p[None], q[None])[0, 0])


def build_model(training: TrainingSet, spec: KernelSpec, noise_variance: float) -> GPModel:
    """Build the Gram matrix and the regularized system ``K + sigma_n^2 I``; a data
    set past ``MAX_GRAM_ENTRIES`` n^2 d differences is refused before any is formed."""
    noise_variance = finite_real("noise_variance", noise_variance, 0)
    n, d = training.n, training.d
    if n * n * d > MAX_GRAM_ENTRIES:
        raise InputError(f"n = {n} points of d = {d} features need n^2 d = {n * n * d} "
                         f"kernel differences, over the limit of {MAX_GRAM_ENTRIES}")
    gram = _k(spec, training.X, training.X)
    if not np.isfinite(gram).all():
        raise NumericError("Gram matrix has non-finite entries")
    system = gram + noise_variance * np.eye(training.n)
    gram.setflags(write=False)
    system.setflags(write=False)
    return GPModel(training, spec, noise_variance, gram, system)


def build_cross(model: GPModel, x_star) -> np.ndarray:
    """Cross-covariance vector between the test point and each training point."""
    p = as_point(x_star)
    if p.shape[0] != model.training.d:
        raise InputError(f"test point has dimension {p.shape[0]}, expected {model.training.d}")
    return _k(model.kernel, model.training.X, p[None])[:, 0]


def diagnostics(model) -> SystemDiagnostics:
    """Condition number, max row sparsity, and smallest eigenvalue of the system.

    Accepts a :class:`GPModel` or a raw symmetric matrix.
    """
    system = (model.system if isinstance(model, GPModel)
              else finite_array("system", model, square=True))
    eigs = np.linalg.eigvalsh(system)
    min_eig, max_eig = float(eigs[0]), float(eigs[-1])
    if min_eig <= 0:
        raise ConditioningError(
            f"system is not positive definite (smallest eigenvalue {min_eig:.3e})"
        )
    row_sparsity = int(np.max(np.count_nonzero(system, axis=1)))
    return SystemDiagnostics(kappa=max_eig / min_eig, row_sparsity=row_sparsity, min_eig=min_eig)
