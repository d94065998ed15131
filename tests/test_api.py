"""The package's public surface, and how its array-holding records compare."""

import dataclasses
import inspect

import numpy as np
import pytest

import qgpr
from qgpr import exceptions, qla
from qgpr import statevector as sv
from qgpr.estimator import gpr_plan
from qgpr.kernels import GPModel, KernelSpec, TrainingSet, build_model

# the pipeline (a GP model, its classical oracle, the solver plan and the
# quantum estimates) and the exceptions of the error contract
PUBLIC = {
    "KernelSpec", "TrainingSet", "build_model", "predict_exact", "gpr_plan",
    "predict_mean_quantum", "predict_variance_quantum", "estimate_bilinear",
    "QgprError", "InputError", "ConfigError", "ParseError", "NumericError",
    "NotPositiveDefiniteError", "ConditioningError", "ConvergenceError",
    "ZeroProbabilityError", "ExpansionError",
}


def test_the_package_exports_the_pipeline_and_the_error_contract():
    exported = {name for name, value in vars(qgpr).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == PUBLIC
    errors = {name for name, value in vars(exceptions).items()
              if isinstance(value, type) and issubclass(value, Exception)}
    assert errors <= PUBLIC


def test_a_gp_model_holds_one_n_by_n_matrix():
    # K + sigma_n^2 I only: the Gram matrix K is not kept beside it
    names = [f.name for f in dataclasses.fields(GPModel)]
    assert names == ["training", "kernel", "noise_variance", "system"]


def _model():
    return build_model(TrainingSet([[0.0], [1.0]], [1.0, 2.0]), KernelSpec("squared-exponential"),
                       0.5)


@pytest.mark.parametrize("make", [
    lambda: sv.init_basis(sv.RegisterLayout((("A", 1), ("B", 2)))),
    lambda: qla.make_encoding([1.0, 2.0]),
    lambda: qla.spectrum(2 * np.eye(2), 1.0),
    lambda: gpr_plan(_model(), 3),
    lambda: TrainingSet([[0.0], [1.0]], [1.0, 2.0]),
    _model,
], ids=["StateVector", "SparseEncoding", "Spectrum", "SolverPlan", "TrainingSet", "GPModel"])
def test_records_holding_arrays_compare_by_identity_and_hash(make):
    # a generated __eq__ would compare the arrays and raise, a generated
    # frozen __hash__ would hash them and raise
    a, b = make(), make()
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2
