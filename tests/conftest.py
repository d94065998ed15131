import numpy as np
import pytest

from qgpr import statevector as sv
from qgpr.kernels import KernelSpec, TrainingSet, build_model


def zero_controlled_ancilla(state, ancilla, controls=None):
    """In place: ``state`` with register ``ancilla`` set to |0> on the rows
    ``controls`` (register names to values) select, the solver's input
    contract; every other row keeps its amplitudes."""
    sv._register_view(state.layout, state.amps, {**(controls or {}), ancilla: 1})[...] = 0.0
    return state


# systems with a NaN or an inf entry: NaN passes the Hermitian test and the
# spectrum checks, which compare, and the last one's NaN read as lambda_min < c
non_finite_systems = pytest.mark.parametrize(
    "system",
    [[[np.nan, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, np.inf]], [[1.0, 0.2], [0.2, np.nan]]],
    ids=["nan", "inf", "nan-read-as-a-config-error"],
)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_se_model(rng, n, d=1, noise_variance=0.5, lengthscale=1.0):
    """Random squared-exponential model with inputs in [-2, 2]^d."""
    X = rng.uniform(-2.0, 2.0, size=(n, d))
    y = np.sin(X.sum(axis=1)) + 0.2 * rng.normal(size=n)
    spec = KernelSpec("squared-exponential", 1.0, lengthscale)
    return build_model(TrainingSet(X, y), spec, noise_variance)


def random_cs_model(rng, n, d=1, noise_variance=0.5, cutoff=1.5, signal_variance=1.0):
    """Random compact-support model; cutoff chosen to leave structural zeros."""
    X = rng.uniform(-2.0, 2.0, size=(n, d))
    y = np.cos(X.sum(axis=1)) + 0.2 * rng.normal(size=n)
    spec = KernelSpec("compact-support", signal_variance, 1.0, cutoff_radius=cutoff)
    return build_model(TrainingSet(X, y), spec, noise_variance)


def random_spd(rng, n, lo=0.25, hi=1.0):
    """Random SPD matrix with spectrum inside [lo, hi]."""
    lam = rng.uniform(lo, hi, size=n)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q @ np.diag(lam) @ q.T


def grid_spd(rng, n, clock_qubits, t0, k_values=None):
    """SPD matrix whose eigenvalues sit exactly on the clock grid 2*pi*k/(t0*T).

    Returns (matrix, eigenvalues); every phase-estimation bin is then exact.
    """
    big_t = 1 << clock_qubits
    if k_values is None:
        k_values = rng.choice(np.arange(big_t // 4, big_t), size=n, replace=False)
    lam = 2.0 * np.pi * np.asarray(k_values, dtype=float) / (t0 * big_t)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q @ np.diag(lam) @ q.T, lam
