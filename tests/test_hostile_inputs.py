"""Hostile values at the library API: each call must end in a QgprError (or,
for ``readout`` without pins, in the result its docstring names), never in a
bare Python or numpy error, a warning or a silent wrong result."""

import warnings
from pathlib import Path

import numpy as np
import pytest

from qgpr import statevector as sv
from qgpr.classical import cg_solve, cholesky, dense_inverse, predict_exact
from qgpr.cli import ingest_csv, load_config
from qgpr.estimator import EstimationResult, shots_for_precision
from qgpr.exceptions import QgprError
from qgpr.kernels import KernelSpec, TrainingSet, as_point, build_cross, build_model, eval_kernel
from qgpr.qla import (QlaConfig, config_for, eigenvalue_inversion, gershgorin_bound,
                      hermitianize, make_encoding, phase_estimate, prepare_sparse_state,
                      qla_solve, spectrum)

SE = KernelSpec("squared-exponential", 1.0, 1.0)
TRAINING = TrainingSet([[0.0], [1.0]], [0.5, -0.5])
MODEL = build_model(TRAINING, SE, 0.5)
PILOT = EstimationResult(0.2, 0.01, 400, 0.1, 0.5, None, 0)
STRINGS = [["a"]]
EMPTY = np.zeros((0, 0))
RAGGED = [[1.0], [1.0, 2.0]]
CFG = QlaConfig(2, 0.5, 0.1)
HILBERT = 1.0 / (np.arange(10)[:, None] + np.arange(10) + 1.0)  # kappa ~ 1.6e13
BLANK_LINE = "0,2\n\n1\n"  # a blank row 2, then a one-column row 3


def _state(a_width=1):
    return sv.init_basis(sv.RegisterLayout((("A", a_width), ("E", 2))))


def _written(name, text):
    """A file holding ``text`` in the working directory, which is fresh for each probe."""
    path = Path(name)
    path.write_text(text)
    return path


PROBES = {
    "eval_kernel-string-point": lambda: eval_kernel(SE, "ab", 1.0),
    "eval_kernel-complex-point": lambda: eval_kernel(SE, 1j, 1.0),
    "build_cross-string-point": lambda: build_cross(MODEL, "ab"),
    "build_cross-complex-point": lambda: build_cross(MODEL, 1j),
    "predict_exact-string-point": lambda: predict_exact(MODEL, ["ab"]),
    "predict_exact-complex-point": lambda: predict_exact(MODEL, [1j]),
    "predict_exact-non-list": lambda: predict_exact(MODEL, 1j),
    "TrainingSet-string-X": lambda: TrainingSet([["a"], ["b"]], [0.5, -0.5]),
    "TrainingSet-complex-y": lambda: TrainingSet([[0.0], [1.0]], [0.5j, -0.5]),
    "cg_solve-string-tol": lambda: cg_solve(np.eye(2), np.ones(2), tol="x"),
    "cg_solve-inf-tol": lambda: cg_solve(np.eye(2), np.ones(2), tol=np.inf),
    "cg_solve-string-vector": lambda: cg_solve(np.eye(2), ["a", "b"]),
    "cg_solve-complex-vector": lambda: cg_solve(np.eye(2), [1j, 1.0]),
    "cholesky-string-matrix": lambda: cholesky(STRINGS),
    "dense_inverse-string-matrix": lambda: dense_inverse(STRINGS),
    "hermitianize-string-matrix": lambda: hermitianize(STRINGS),
    "gershgorin_bound-string-matrix": lambda: gershgorin_bound(STRINGS),
    "hermitian_eigh-string-matrix": lambda: sv.hermitian_eigh(STRINGS),
    "dense_inverse-nan-matrix": lambda: dense_inverse([[np.nan]]),
    "build_model-inf-noise": lambda: build_model(TRAINING, SE, np.inf),
    "build_model-string-noise": lambda: build_model(TRAINING, SE, "x"),
    "shots_for_precision-inf-delta": lambda: shots_for_precision(np.inf, PILOT),
    "shots_for_precision-string-delta": lambda: shots_for_precision("x", PILOT),
    "spectrum-string-fill": lambda: spectrum(np.eye(3), "x"),
    "spectrum-nan-fill": lambda: spectrum(np.eye(3), np.nan),
    "controlled_evolution-string-t": lambda: sv.controlled_evolution(_state(), "E", "A",
                                                                     np.eye(2), "x"),
    "apply_gate-string-gate": lambda: sv.apply_gate(_state(), [["a", "b"], ["c", "d"]], "A"),
    "TrainingSet-ragged-X": lambda: TrainingSet([[0.0], [1.0, 2.0]], [1.0, 2.0]),
    "make_encoding-ragged-vector": lambda: make_encoding(RAGGED),
    "hermitian_eigh-ragged-matrix": lambda: sv.hermitian_eigh(RAGGED),
    "cholesky-ragged-matrix": lambda: cholesky(RAGGED),
    "reflect-string-vector": lambda: sv.reflect(_state(), ["a", "b"], "A"),
    "spectrum-scalar-system": lambda: spectrum(3.0, 0.5),
    "spectrum-vector-system": lambda: spectrum([1.0, 2.0], 0.5),
    "qla_solve-scalar-system": lambda: qla_solve([1.0], 3.0, CFG),
    "phase_estimate-scalar-system": lambda: phase_estimate(_state(), CFG, 3.0, "E", "A"),
    "gershgorin_bound-scalar-system": lambda: gershgorin_bound(3.0),
    "hermitian_eigh-empty-matrix": lambda: sv.hermitian_eigh(EMPTY),
    "gershgorin_bound-empty-system": lambda: gershgorin_bound(EMPTY),
    "config_for-empty-system": lambda: config_for(EMPTY, 4, 0.5),
    "dense_inverse-empty-system": lambda: dense_inverse(EMPTY),
    "qla_solve-empty-system": lambda: qla_solve(np.zeros(0), EMPTY, CFG),
    "cholesky-empty-system": lambda: cholesky(EMPTY),
    "spectrum-empty-system": lambda: spectrum(EMPTY, 0.5),
    "StateVector-string-amplitudes": lambda: sv.StateVector(_state().layout, ["a"] * 8),
    "StateVector-ragged-amplitudes": lambda: sv.StateVector(_state().layout, RAGGED),
    "StateVector-nan-amplitudes": lambda: sv.StateVector(_state().layout, [np.nan] + [0.0] * 7),
    "StateVector-bool-amplitudes": lambda: sv.StateVector(_state().layout, np.ones(8, bool)),
    "RegisterLayout-entry-without-width": lambda: sv.RegisterLayout((("A",),)),
    "RegisterLayout-string-registers": lambda: sv.RegisterLayout("AB"),
    "RegisterLayout-none-registers": lambda: sv.RegisterLayout(None),
    "cg_solve-shape-mismatch": lambda: cg_solve(np.eye(2), np.ones(3)),
    "dense_inverse-hilbert-matrix": lambda: dense_inverse(HILBERT),
    "load_config-json-list": lambda: load_config(_written("config.json", "[1, 2]")),
    "ingest_csv-blank-line-then-one-column-row": lambda: ingest_csv(_written("d.csv", BLANK_LINE)),
    "as_point-2d-point": lambda: as_point([[0.0, 1.0]]),
    "TrainingSet-3d-X": lambda: TrainingSet(np.zeros((2, 1, 1)), [0.0, 0.0]),
    "TrainingSet-zero-row-X": lambda: TrainingSet(np.zeros((0, 1)), []),
    "prepare_sparse_state-2-qubit-flag": lambda: prepare_sparse_state(
        sv.RegisterLayout((("index", 1), ("flag", 2))), "index", "flag", make_encoding([1.0])),
    "eigenvalue_inversion-wrong-clock-width": lambda: eigenvalue_inversion(_state(), "A", "E",
                                                                           CFG),
    "eigenvalue_inversion-2-qubit-ancilla": lambda: eigenvalue_inversion(_state(2), "E", "A",
                                                                         CFG),
    "qla_solve-sparse-length-mismatch": lambda: qla_solve(make_encoding([1.0] * 3), np.eye(2),
                                                          CFG),
    "qla_solve-vector-length-mismatch": lambda: qla_solve([1.0] * 3, np.eye(2), CFG),
    "hermitianize-vector": lambda: hermitianize([1.0, 2.0]),
    "StateVector-wrong-length": lambda: sv.StateVector(_state().layout, np.zeros(4)),
    "apply_gate-wrongly-sized-gate": lambda: sv.apply_gate(_state(), np.eye(4), "A"),
}

# the whole message of each probe named here; the others need only raise a QgprError
MESSAGES = {
    "cg_solve-shape-mismatch": r"^system shape \(2, 2\) does not match vector length 3$",
    "dense_inverse-hilbert-matrix": r"^inverse residual \S+ exceeds 1e-10$",
    "load_config-json-list": r"^config file must contain a JSON object$",
    "ingest_csv-blank-line-then-one-column-row": r"^row 3: need at least one feature and a target$",
    "as_point-2d-point": r"^input point must be one-dimensional, got shape \(1, 2\)$",
    "TrainingSet-3d-X": r"^training inputs must be \(n, d\) with n >= 1, got \(2, 1, 1\)$",
    "TrainingSet-zero-row-X": r"^training inputs must be \(n, d\) with n >= 1, got \(0, 1\)$",
    "prepare_sparse_state-2-qubit-flag": r"^flag register 'flag' must be one qubit wide$",
    "eigenvalue_inversion-wrong-clock-width": r"^clock register width does not match config$",
    "eigenvalue_inversion-2-qubit-ancilla": r"^ancilla register 'A' must be one qubit wide$",
    "qla_solve-sparse-length-mismatch": r"^vector length 3 does not match system size 2$",
    "qla_solve-vector-length-mismatch": r"^vector length 3 does not match system size 2$",
    "hermitianize-vector": r"^expected a matrix, got shape \(2,\)$",
    "StateVector-wrong-length": r"^amplitude vector has length \(4,\), layout needs 8$",
    "apply_gate-wrongly-sized-gate": r"^gate shape \(4, 4\) does not match dimension 2$",
}


@pytest.mark.parametrize("name", list(PROBES))
def test_hostile_value_ends_in_a_qgpr_error(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # where the probes that read a file write it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QgprError, match=MESSAGES.get(name)):
            PROBES[name]()


def test_readout_takes_none_as_no_pins():
    state = sv.init_basis(sv.RegisterLayout((("A", 1), ("B", 1))), {"B": 1})
    sv.apply_gate(state, sv.HADAMARD, "A")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sv.readout(state, "A", None) == sv.readout(state, "A", {})
        assert sv.readout(state, None, None) == sv.readout(state, None, {})
