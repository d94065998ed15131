import numpy as np
import pytest

from qgpr.kernels import KernelSpec, TrainingSet, build_model

from cases import SEED


# systems with a NaN or an inf entry: NaN passes the Hermitian test and the
# spectrum checks, which compare, and the last one's NaN read as lambda_min < c
non_finite_systems = pytest.mark.parametrize(
    "system",
    [[[np.nan, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, np.inf]], [[1.0, 0.2], [0.2, np.nan]]],
    ids=["nan", "inf", "nan-read-as-a-config-error"],
)


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


@pytest.fixture
def eigen_calls(monkeypatch):
    """(name, shape) of every np.linalg.eigh and eigvalsh call the test makes, in order."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counted(a, *args, _original=getattr(np.linalg, name), _name=name, **kwargs):
            calls.append((_name, np.shape(a)))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


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
