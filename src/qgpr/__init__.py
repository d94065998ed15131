"""Quantum-assisted Gaussian process regression at desk scale.

An exact statevector simulation of the quantum linear-systems pipeline,
extended with sparse-vector state preparation and an interference measurement
that estimates the GPR linear predictor and predictive variance, validated
against an exact classical oracle.
"""

from .classical import Prediction, cg_solve, cholesky, dense_inverse, predict_exact
from .estimator import (
    BilinearSpec,
    EstimationResult,
    build_interference_state,
    estimate_bilinear,
    gpr_plan,
    predict_mean_quantum,
    predict_variance_quantum,
    shots_for_precision,
    sparsify_y,
)
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
from .kernels import (
    COMPACT_SUPPORT,
    SQUARED_EXPONENTIAL,
    GPModel,
    KernelSpec,
    SystemDiagnostics,
    TrainingSet,
    build_cross,
    build_model,
    diagnostics,
    eval_kernel,
)
from .qla import (
    QlaConfig,
    SparseEncoding,
    config_for,
    eigenvalue_inversion,
    hermitianize,
    make_encoding,
    phase_estimate,
    prepare_sparse_state,
    qla_solve,
    solver_block,
)
from .statevector import (
    RegisterLayout,
    StateVector,
    apply_gate,
    controlled_evolution,
    expectation,
    init_basis,
    project,
    qft,
    register_component,
    sample_observable,
)

__version__ = "0.1.0"
