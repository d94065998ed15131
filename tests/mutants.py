"""One-line mutations of the package that the test suite must catch.

Each entry is (file under ``src/``, exact old text, new text, pytest
arguments selecting the tests that must fail). For every entry the runner
copies ``src/`` into a temporary directory of its own, replaces the old text,
which must occur exactly once, and runs the selection against the copy, with
pytest's plugin autoload off (the selections need no third-party plugin). The
entries run concurrently, one per CPU, and are reported in the order listed.
The runner exits 1 if a selection passes on its mutant or an old text no
longer occurs once, so a refactor of a listed line has to update its entry.
pytest does not collect this file. Run it from the root of the repository:

    python3 tests/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

MUTANTS = (
    # the eigenvalue inversion clamps c/lambda at a full flip
    ("qgpr/qla.py", "np.minimum(_inversion_ratios(config), 1.0)", "_inversion_ratios(config)",
     ["tests/test_qla.py", "-k", "TestEigenvalueInversion"]),
    # a bin with c/lambda exactly 1 is a full flip, not a clamped bin
    ("qgpr/qla.py", "_inversion_ratios(self) > 1.0", "_inversion_ratios(self) >= 1.0",
     ["tests/test_qla.py", "-k", "TestEigenvalueInversion"]),
    # the readout's X halves are the pinned block's slices at X = 0 and at X = 1
    ("qgpr/statevector.py", "_re_inner(halves[0, ...], halves[1, ...])",
     "_re_inner(halves[0, ...], halves[0, ...])",
     ["tests/test_statevector.py", "-k", "matches_eigenbasis_reference"]),
    # the estimator's M pins D to 1
    ("qgpr/estimator.py", 'M = ("A", {"C": 1, "D": 1})', 'M = ("A", {"C": 1, "D": 0})',
     ["tests/test_estimator.py", "-k", "TestReadout"]),
    # a register width or value is an integer, not a float
    ("qgpr/exceptions.py",
     "    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):", "    if False:",
     ["tests/test_statevector.py", "-k", "TestRegisterValues or width_must_be"]),
    # an integer is not a bool: shots=True is refused, not run as one shot
    ("qgpr/exceptions.py", "isinstance(value, bool) or ", "",
     ["tests/test_estimator.py", "-k", "out_of_range_fail_before_the_state_is_built"]),
    # qft takes one register name, not a list of registers or qubits
    ("qgpr/statevector.py", "    if not isinstance(register, str):", "    if False:",
     ["tests/test_statevector.py", "-k", "acts_on_one_register_name"]),
    # controls and pins are mappings, not lists or tuples of pairs
    ("qgpr/statevector.py", "    if pins is not None and not isinstance(pins, Mapping):",
     "    if False:",
     ["tests/test_statevector.py", "tests/test_qla.py", "-k", "must_be_a_mapping"]),
    # a system with a NaN or an inf entry is refused before it is diagonalized
    ("qgpr/statevector.py", 'finite_array("matrix", system', 'numeric_array("matrix", system',
     ["tests/test_qla.py", "-k", "non_finite_system"]),
    # the readout refuses an X register that is also pinned
    ("qgpr/statevector.py", " or x in pins", "",
     ["tests/test_statevector.py", "-k", "readout_refuses"]),
    # the sample variance divides by shots - 1
    ("qgpr/estimator.py", "raw * raw) / (shots - 1)", "raw * raw) / shots",
     ["tests/test_estimator.py"]),
    # the sample variance of M is P(C=1,D=1) - <M>^2: M^2 is the C = D = 1 projector
    ("qgpr/estimator.py", "max(0.0, success - raw * raw)", "max(0.0, success)",
     ["tests/test_estimator.py"]),
    # P(-1) = (w - <M>) / 2 and P(+1) = (w + <M>) / 2, in that order
    ("qgpr/statevector.py",
     "[(weight - mean) / 2.0, 1.0 - weight, (weight + mean) / 2.0]",
     "[(weight + mean) / 2.0, 1.0 - weight, (weight - mean) / 2.0]",
     ["tests/test_statevector.py", "tests/test_estimator.py"]),
    # a k_* = 0 test point records the shots its sampled estimate was asked for
    ("qgpr/estimator.py", "EstimationResult(0.0, 0.0, shots or 0,", "EstimationResult(0.0, 0.0, 0,",
     ["tests/test_cli.py", "-k", "TestTestPointOutsideEveryCutoff"]),
    # the data set's size is checked before the Gram matrix is built
    ("qgpr/kernels.py", "    if n * n * d > MAX_GRAM_ENTRIES:", "    if False:",
     ["tests/test_kernels.py", "-k", "data_set_size"]),
    # solver_block refuses an ancilla that is not |0> on the controlled rows
    ("qgpr/qla.py", "    if np.any(rows):", "    if 0 and np.any(rows):",
     ["tests/test_qla.py", "-k", "nonzero_controlled_ancilla"]),
    # the forward QFT is the orthonormal inverse DFT
    ("qgpr/_accel.py", "np.fft.fft if inverse else np.fft.ifft",
     "np.fft.ifft if inverse else np.fft.fft",
     ["tests/test_accel.py", "-k", "TestFourier"]),
    # uncomputation applies the conjugate phase table
    ("qgpr/qla.py", "_accel.phase_mul(tensor, table.conj(), 2, 0)",
     "_accel.phase_mul(tensor, table, 2, 0)",
     ["tests/test_qla.py", "-k", "TestSolverBlock"]),
    # --out must name a file in an existing directory
    ("qgpr/cli.py", "out.is_dir() or not out.parent.is_dir()", "out.is_dir()",
     ["tests/test_cli.py", "-k", "unwritable_out"]),
    # c may exceed lambda_min by round-off only
    ("qgpr/qla.py", "_EIG_SLACK = 1e-9", "_EIG_SLACK = 1e-3",
     ["tests/test_qla.py", "-k", "TestConfig"]),
    # any negative variance estimate is clamped to 0
    ("qgpr/estimator.py", "if estimate < 0.0:", "if estimate < -1e-3:",
     ["tests/test_estimator.py", "-k", "TestPredictVarianceQuantum"]),
    # a clamped variance estimate says so
    ("qgpr/estimator.py", "replace(res, estimate=0.0, clamped=True)", "replace(res, estimate=0.0)",
     ["tests/test_estimator.py", "-k", "TestPredictVarianceQuantum"]),
    # solver_block: G_c at ancilla 0, G_s at ancilla 1
    ("qgpr/qla.py", "zip((g_c, g_s), dst)", "zip((g_s, g_c), dst)",
     ["tests/test_qla.py", "-k", "TestSpread"]),
    # solver_block: the clock Hadamards' 1/sqrt(T)
    ("qgpr/qla.py", "vec * (a0 / math.sqrt(big_t))", "vec * a0",
     ["tests/test_qla.py", "-k", "TestSpread"]),
    # solver_block: the real product only for real rows and a real V
    ("qgpr/qla.py", "a0 = vec.T @ x.real if real else vec.conj().T @ x",
     "a0 = vec.T @ x.real", ["tests/test_qla.py", "-k", "TestSpread"]),
    # solver_block: a complex V enters the eigenbasis by its conjugate transpose
    ("qgpr/qla.py", "vec.conj().T @ x", "vec.T @ x",
     ["tests/test_qla.py", "-k", "TestSpread"]),
    # solver_block: the new state's target axis comes before its clock axis
    ("qgpr/qla.py", "(anc, axis), (0, -2)", "(anc, axis), (0, -1)",
     ["tests/test_qla.py", "-k", "TestSpread"]),
    # an empty system is refused, not left to numpy's reductions
    ("qgpr/exceptions.py", " or arr.size == 0", "",
     ["tests/test_hostile_inputs.py", "-k", "empty"]),
    # a zero system is a conditioning error, not a division by its zero bound
    ("qgpr/qla.py", "    if bound == 0.0:", "    if False:",
     ["tests/test_qla.py", "-k", "zero_system"]),
    # estimate_bilinear checks shots and seed before it builds the state
    ("qgpr/estimator.py", "    sv.check_shots(shots, seed)\n    state = ", "    state = ",
     ["tests/test_estimator.py", "-k", "out_of_range_fail_before_the_state_is_built"]),
    # the rescaling divides by c, c_u and c_v in turn, never by their product
    ("qgpr/estimator.py",
     "x * math.sqrt(u.s_v * v.s_v) / plan.config.c / u.c_v / v.c_v",
     "x * (math.sqrt(u.s_v * v.s_v) / (plan.config.c * u.c_v * v.c_v))",
     ["tests/test_cli.py", "-k", "TestTargetNearTheFloatMaximum"]),
    # a shot recommendation that is not finite is a numerical error
    ("qgpr/estimator.py", "    except (ZeroDivisionError, OverflowError, ValueError):", "    except ():",
     ["tests/test_cli.py", "-k", "TestShotRecommendationNotFinite"]),
    # the CLI checks every run's qubit and shot caps before it builds the model
    ("qgpr/cli.py", "    for value, clock, shots in runs:", "    for value, clock, shots in ():",
     ["tests/test_cli.py", "-k", "TestLimitsBeforeTheModel"]),
    # a vector too small to scale to a unit entry is refused
    ("qgpr/qla.py", "    if not math.isfinite(1.0 / peak):", "    if False:",
     ["tests/test_qla.py", "-k", "TestMakeEncoding"]),
    # a non-positive delta is refused when the config is loaded
    ("qgpr/cli.py", '            self.delta = finite_real("delta", self.delta, 0)',
     '            self.delta = finite_real("delta", self.delta)',
     ["tests/test_cli.py", "-k", "non_positive_delta"]),
    # a config key that names no field is refused, at the top level, in kernel and in sweep
    ("qgpr/cli.py", "    if unknown:\n", "    if False:\n",
     ["tests/test_cli.py", "-k", "TestLoadConfig and unknown"]),
    # KernelSpec takes only finite real numbers, not bools, as hyperparameters
    ("qgpr/kernels.py",
     'finite_real(f"kernel.{name}", getattr(self, name), 0 if used else -np.inf)',
     "getattr(self, name)", ["tests/test_kernels.py", "-k", "not_a_finite_real"]),
    # a sweep axis is checked when the config is loaded, whatever the command
    ("qgpr/cli.py", '        if self.sweep_axis not in (None, "clock_qubits", "shots"):',
     "        if False:", ["tests/test_cli.py", "-k", "malformed_sweep"]),
    # an empty out is checked (and refused) like any other
    ("qgpr/cli.py", "        if self.out is not None:", "        if self.out:",
     ["tests/test_cli.py", "-k", "empty_out"]),
    # exact mode checks its seed too, where k_* = 0 as well
    ("qgpr/statevector.py", '    integer("seed", seed, 0)\n',
     '    shots is None or integer("seed", seed, 0)\n',
     ["tests/test_estimator.py", "-k", "zero_cross_covariance_skips_circuit"]),
    # a complex or non-numeric vector is refused, not cast to float
    ("qgpr/exceptions.py", '    if arr.dtype.kind not in ("iufc" if complex_ok else "iuf"):',
     "    if False:",
     ["tests/test_qla.py", "-k", "TestMakeEncoding"]),
    # a gate's target axes are taken in the order its registers are named
    ("qgpr/statevector.py", "    return view, [free.index(name) for name in names]",
     "    return view, sorted(free.index(name) for name in names)",
     ["tests/test_statevector.py", "-k", "TestApplyGate"]),
    # the Walsh blocks act on the qubit axes split from the register's own axis
    ("qgpr/statevector.py", "range(axis + j, axis + min(", "range(j, min(",
     ["tests/test_statevector.py", "-k", "TestHadamardLayer"]),
    # a table whose clock axis comes after its target axis is transposed first
    ("qgpr/_accel.py", "table, axes = table.T, axes[::-1]", "table, axes = table, axes[::-1]",
     ["tests/test_accel.py", "-k", "TestPhaseMul"]),
    # a gate with a NaN or an inf entry is refused, not applied
    ("qgpr/statevector.py", '    gate = finite_array("gate", gate, complex_ok=True)',
     "    gate = np.asarray(gate)",
     ["tests/test_statevector.py", "-k", "non_finite_gate"]),
    # a readout weight above 1 (a state that is not unit-norm) draws no shots
    ("qgpr/statevector.py", "    if not weight <= 1.0 + 1e-12:", "    if False:",
     ["tests/test_statevector.py", "-k", "weight_above_one"]),
    # a real parameter at or below its bound is refused, not only a non-finite one
    ("qgpr/exceptions.py", "            if not value > lo:", "            if False:",
     ["tests/test_cli.py", "-k", "non_positive_delta"]),
    # an array with a NaN or an inf entry is refused, not only one of the wrong dtype
    ("qgpr/exceptions.py", "    if not np.isfinite(arr).all():", "    if False:",
     ["tests/test_classical.py", "-k", "non_finite_input_rejected"]),
    # the response build runs every eigen-index chunk, the last one too
    ("qgpr/qla.py", "range(0, eigs.shape[0], rows)", "range(0, eigs.shape[0] - rows, rows)",
     ["tests/test_qla.py", "-k", "TestSolverResponse"]),
    # each chunk's phase table holds that chunk's eigenvalues
    ("qgpr/qla.py", "np.arange(big_t), eigs[j : j + rows]", "np.arange(big_t), eigs[:rows]",
     ["tests/test_qla.py", "-k", "TestSolverResponse"]),
    # the phase table is the input at D = 0, not at D = 1
    ("qgpr/qla.py", "        tensor[:, 0] = table.T", "        tensor[:, 1] = table.T",
     ["tests/test_qla.py", "-k", "TestSolverBlock"]),
    # the inverse QFT runs on the D = 0 rows, where the input is
    ("qgpr/qla.py", 'controls={"ancilla": 0}', 'controls={"ancilla": 1}',
     ["tests/test_qla.py", "-k", "TestSolverBlock"]),
    # a ragged nesting is an input error, not numpy's ValueError
    ("qgpr/exceptions.py", "    except ValueError:", "    except TypeError:",
     ["tests/test_hostile_inputs.py", "-k", "ragged"]),
    # a system that is not a square matrix is refused before its shape is read
    ("qgpr/exceptions.py", "    if square and (", "    if False and (",
     ["tests/test_hostile_inputs.py", "-k", "scalar"]),
    # a GPR estimate refuses a plan that is not its model's, with c = sigma_n^2
    ("qgpr/estimator.py",
     "    if plan.spectrum is not model.spectrum or plan.config.c != model.noise_variance:",
     "    if False:", ["tests/test_estimator.py", "-k", "foreign_plan"]),
    # a plan checks its config against the spectrum before it builds the response
    ("qgpr/qla.py", "    validate_config(config, spectrum.lam)\n", "",
     ["tests/test_qla.py", "-k", "TestConfig"]),
    # a reflection vector of strings is refused by its dtype
    ("qgpr/statevector.py", '    u = numeric_array("reflection vector", u, complex_ok=True)',
     "    u = np.asarray(u)", ["tests/test_hostile_inputs.py", "-k", "reflect"]),
    # a state's amplitudes are finite numbers: not strings, bools, NaN or a ragged nesting
    ("qgpr/statevector.py", 'finite_array("amplitudes", self.amps, complex_ok=True)',
     "np.asarray(self.amps)", ["tests/test_hostile_inputs.py", "-k", "StateVector"]),
    # a layout's registers are (name, width) pairs, refused with an InputError otherwise
    ("qgpr/statevector.py", "except (TypeError, ValueError):", "except ():",
     ["tests/test_hostile_inputs.py", "-k", "RegisterLayout"]),
    # the diagnostics read the system's own eigenvalues, not its padding
    ("qgpr/kernels.py", "model.spectrum.system_lam", "model.spectrum.lam",
     ["tests/test_kernels.py", "-k", "TestDiagnostics"]),
    # the wraparound check reads the largest eigenvalue, wherever the padding puts it
    ("qgpr/qla.py", "lam.max()", "lam[-1]", ["tests/test_qla.py", "-k", "TestConfig"]),
    # the padded indices of the eigenbasis are the identity block of the direct sum
    ("qgpr/qla.py", "np.eye(size, dtype=vec.dtype)", "np.zeros((size, size), dtype=vec.dtype)",
     ["tests/test_qla.py", "-k", "TestSpectrum"]),
    # the exact mean is z_* . z_y, with z = L^-1 [y, k_*1, ...]
    ("qgpr/classical.py", "z[:, 0] @ z[:, 1:]", "(z[:, 1:] ** 2).sum(0)",
     ["tests/test_classical.py", "-k", "TestPredictExact or TestOracleAgreement"]),
    # the exact variance subtracts |z_*|^2 from k(x, x)
    ("qgpr/classical.py", "k_ss - (z[:, 1:] ** 2)", "k_ss + (z[:, 1:] ** 2)",
     ["tests/test_classical.py", "-k", "TestPredictExact or TestOracleAgreement"]),
    # a shot recommendation past MAX_SHOTS is refused, as predict would refuse it
    ("qgpr/estimator.py", '"recommended_shots", shots, 1, sv.MAX_SHOTS)',
     '"recommended_shots", shots, 1, 2 * sv.MAX_SHOTS)',
     ["tests/test_estimator.py", "-k", "TestShotsForPrecision"]),
    # both encodings match the plan's system size, checked before any state is built
    ("qgpr/estimator.py", "    if u.length != n or v.length != n:", "    if False:",
     ["tests/test_estimator.py", "-k", "length_mismatch"]),
    # each block row of the forward substitution takes off the rows above it
    ("qgpr/classical.py", " - L[i:j, :i] @ z[:i]", "",
     ["tests/test_classical.py", "-k", "blocked_substitution"]),
    # delta is squared by multiplication: past the float range it is inf, not an OverflowError
    ("qgpr/estimator.py", "(delta * delta)", "delta**2",
     ["tests/test_estimator.py", "tests/test_cli.py", "-k", "square_overflows"]),
    # the system is the Gram matrix with sigma_n^2 added to its diagonal
    ("qgpr/kernels.py", "    system[np.diag_indices(n)] += noise_variance\n", "",
     ["tests/test_kernels.py", "-k", "TestBuildModel"]),
    # the Neumann series reads K: the system with k(x, x) put back on its diagonal
    ("qgpr/estimator.py", "    np.fill_diagonal(k, model.kernel.signal_variance)\n", "",
     ["tests/test_estimator.py", "-k", "reads_the_gram_matrix"]),
)


def survives(path: str, old: str, new: str, selection: list[str], scratch: Path) -> str | None:
    """Why the mutant is not killed, or None when its selection fails."""
    src = scratch / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    target = src / path
    text = target.read_text()
    if text.count(old) != 1:
        return f"old text occurs {text.count(old)} times, not once"
    target.write_text(text.replace(old, new))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "-o", f"pythonpath={src}", *selection],
        cwd=ROOT, capture_output=True, text=True,
        env={**os.environ, "PYTEST_DISABLE_PLUGIN_AUTOLOAD": "1"},
    )
    if run.returncode == 1:  # tests ran and some failed
        return None
    return f"pytest exited {run.returncode}:\n{run.stdout[-2000:]}{run.stderr[-2000:]}"


def timed(*entry) -> tuple[str | None, float]:
    """``survives(*entry)`` and its wall time in seconds."""
    start = time.perf_counter()
    return survives(*entry), time.perf_counter() - start


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp, ThreadPoolExecutor(os.cpu_count()) as pool:
        runs = [pool.submit(timed, *entry, Path(tmp) / str(i)) for i, entry in enumerate(MUTANTS)]
        survivors = 0
        for (path, old, _, _), run in zip(MUTANTS, runs):
            why, took = run.result()
            first = old.strip().splitlines()[0]
            print(f"{'killed' if why is None else 'SURVIVED'} {took:5.1f}s {path}: {first}")
            if why is not None:
                survivors += 1
                print(why)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
