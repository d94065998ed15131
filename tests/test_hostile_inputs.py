"""Hostile values at the library API: each call must end in a QgprError (or,
for ``readout`` without pins, in the result its docstring names), never in a
bare Python or numpy error, a warning or a silent wrong result."""

import warnings

import numpy as np
import pytest

from qgpr import statevector as sv
from qgpr.classical import cg_solve, cholesky, dense_inverse, predict_exact
from qgpr.estimator import BilinearSpec, EstimationResult, shots_for_precision
from qgpr.exceptions import QgprError
from qgpr.kernels import KernelSpec, TrainingSet, build_cross, build_model, diagnostics, eval_kernel
from qgpr.qla import (QlaConfig, gershgorin_bound, hermitianize, make_encoding, pad_system,
                      phase_estimate, qla_solve, solver_block)

SE = KernelSpec("squared-exponential", 1.0, 1.0)
TRAINING = TrainingSet([[0.0], [1.0]], [0.5, -0.5])
MODEL = build_model(TRAINING, SE, 0.5)
PILOT = EstimationResult(0.2, 0.01, 400, 0.1, 0.5, None, 0)
STRINGS = [["a"]]
RAGGED = [[1.0], [1.0, 2.0]]
CFG = QlaConfig(2, 0.5, 0.1)
ONE = make_encoding([1.0])


def _state(last=("E", 2)):
    return sv.init_basis(sv.RegisterLayout((("A", 1), last)))


PROBES = {
    "eval_kernel-string-point": lambda: eval_kernel(SE, "ab", 1.0),
    "eval_kernel-complex-point": lambda: eval_kernel(SE, 1j, 1.0),
    "build_cross-string-point": lambda: build_cross(MODEL, "ab"),
    "build_cross-complex-point": lambda: build_cross(MODEL, 1j),
    "predict_exact-string-point": lambda: predict_exact(MODEL, "ab"),
    "predict_exact-complex-point": lambda: predict_exact(MODEL, 1j),
    "TrainingSet-string-X": lambda: TrainingSet([["a"], ["b"]], [0.5, -0.5]),
    "TrainingSet-complex-y": lambda: TrainingSet([[0.0], [1.0]], [0.5j, -0.5]),
    "cg_solve-string-tol": lambda: cg_solve(np.eye(2), np.ones(2), tol="x"),
    "cg_solve-inf-tol": lambda: cg_solve(np.eye(2), np.ones(2), tol=np.inf),
    "cg_solve-string-vector": lambda: cg_solve(np.eye(2), ["a", "b"]),
    "cg_solve-complex-vector": lambda: cg_solve(np.eye(2), [1j, 1.0]),
    "cholesky-string-matrix": lambda: cholesky(STRINGS),
    "dense_inverse-string-matrix": lambda: dense_inverse(STRINGS),
    "diagnostics-string-matrix": lambda: diagnostics(STRINGS),
    "hermitianize-string-matrix": lambda: hermitianize(STRINGS),
    "gershgorin_bound-string-matrix": lambda: gershgorin_bound(STRINGS),
    "hermitian_eigh-string-matrix": lambda: sv.hermitian_eigh(STRINGS),
    "dense_inverse-nan-matrix": lambda: dense_inverse([[np.nan]]),
    "build_model-inf-noise": lambda: build_model(TRAINING, SE, np.inf),
    "build_model-string-noise": lambda: build_model(TRAINING, SE, "x"),
    "shots_for_precision-inf-delta": lambda: shots_for_precision(np.inf, PILOT),
    "shots_for_precision-string-delta": lambda: shots_for_precision("x", PILOT),
    "pad_system-string-fill": lambda: pad_system(np.eye(3), 4, "x"),
    "pad_system-nan-fill": lambda: pad_system(np.eye(3), 4, np.nan),
    "controlled_evolution-string-t": lambda: sv.controlled_evolution(_state(), "E", "A",
                                                                     np.eye(2), "x"),
    "apply_gate-string-gate": lambda: sv.apply_gate(_state(), [["a", "b"], ["c", "d"]], "A"),
    "TrainingSet-ragged-X": lambda: TrainingSet([[0.0], [1.0, 2.0]], [1.0, 2.0]),
    "make_encoding-ragged-vector": lambda: make_encoding(RAGGED),
    "hermitian_eigh-ragged-matrix": lambda: sv.hermitian_eigh(RAGGED),
    "cholesky-ragged-matrix": lambda: cholesky(RAGGED),
    "reflect-string-vector": lambda: sv.reflect(_state(), ["a", "b"], "A"),
    "pad_system-scalar-system": lambda: pad_system(3.0, 1, 0.5),
    "qla_solve-scalar-system": lambda: qla_solve([1.0], 3.0, CFG),
    "BilinearSpec-scalar-system": lambda: BilinearSpec(ONE, ONE, 3.0, CFG),
    "solver_block-scalar-system": lambda: solver_block(_state(("D", 1)), CFG, 3.0, "E", "A", "D"),
    "phase_estimate-scalar-system": lambda: phase_estimate(_state(), CFG, 3.0, "E", "A"),
    "gershgorin_bound-scalar-system": lambda: gershgorin_bound(3.0),
    "diagnostics-vector-system": lambda: diagnostics([1.0, 2.0]),
}


@pytest.mark.parametrize("probe", list(PROBES.values()), ids=list(PROBES))
def test_hostile_value_ends_in_a_qgpr_error(probe):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QgprError):
            probe()


def test_readout_takes_none_as_no_pins():
    state = sv.init_basis(sv.RegisterLayout((("A", 1), ("B", 1))), {"B": 1})
    sv.apply_gate(state, sv.HADAMARD, "A")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sv.readout(state, "A", None) == sv.readout(state, "A", {})
        assert sv.readout(state, None, None) == sv.readout(state, None, {})
