"""Quantum-assisted Gaussian process regression at desk scale.

An exact statevector simulation of the quantum linear-systems pipeline,
extended with sparse-vector state preparation and an interference measurement
that estimates the GPR linear predictor and predictive variance, validated
against an exact classical oracle.

The package exports the pipeline (a GP model, its classical oracle, the solver
plan and the quantum estimates) and the exceptions of the error contract;
everything else is imported from its own module.
"""

from .classical import predict_exact
from .estimator import estimate_bilinear, gpr_plan, predict_mean_quantum, predict_variance_quantum
from .exceptions import (
    ConditioningError,
    ConfigError,
    ConvergenceError,
    ExpansionError,
    InputError,
    NotPositiveDefiniteError,
    NumericError,
    ParseError,
    QgprError,
    ZeroProbabilityError,
)
from .kernels import KernelSpec, TrainingSet, build_model

__version__ = "0.1.0"
