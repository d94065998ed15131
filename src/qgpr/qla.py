"""The quantum linear-systems pipeline at desk scale.

Covers sparse-vector state preparation, phase estimation over a Hermitian
system matrix, the conditioned eigenvalue-inversion rotation, uncomputation,
and post-selection. The clock register holds T = 2**clock_qubits values; a
clock value k encodes the eigenvalue estimate 2*pi*k / (t0*T), so phases are
exact whenever every lambda * t0 * T / (2*pi) is an integer.

:func:`solver_block` runs estimation, inversion and uncomputation entering
the system's eigenbasis once: the basis change acts only on the target, the
rest only on the clock and the ancilla, so the pair between them cancels. In
the eigenbasis, each clock-controlled evolution is one multiply by a table of
phases per (clock value, eigenvalue), memoized per config.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import _accel
from . import statevector as sv
from .exceptions import ConfigError, InputError
from .statevector import DEFAULT_QUBIT_CAP, RegisterLayout, StateVector

log = logging.getLogger(__name__)

# relative slack when validating c <= lambda_min: the GPR layer sets
# c = sigma_n^2 while the Gram part is only PSD up to round-off
_EIG_SLACK = 1e-9


@dataclass(frozen=True)
class QlaConfig:
    """Clock width, per-step evolution time and inversion constant.

    ``t0 * lambda_max < 2*pi`` avoids phase wraparound and ``c <= lambda_min``
    keeps the rotation amplitude ``c/lambda`` at most one; both are checked
    against the actual matrix by :func:`validate_config`.
    """

    clock_qubits: int
    t0: float
    c: float

    def __post_init__(self):
        _check_clock(self.clock_qubits)
        if not (self.t0 > 0 and self.c > 0):  # also rejects NaN
            raise InputError("t0 and c must both be > 0")

    @property
    def T(self) -> int:
        return 1 << self.clock_qubits


def _check_clock(clock_qubits: int) -> None:
    """Reject a clock no layout under the qubit cap holds, before 2**clock_qubits is used."""
    if not 1 <= clock_qubits <= DEFAULT_QUBIT_CAP:
        raise InputError(f"clock_qubits {clock_qubits} is not in 1..{DEFAULT_QUBIT_CAP}")


def gershgorin_bound(system) -> float:
    """Upper bound on the largest eigenvalue: max absolute row sum."""
    return float(np.abs(np.asarray(system)).sum(axis=1).max())


def default_t0(system, clock_qubits: int) -> float:
    """Largest safe per-step time: the top eigenvalue lands in the last clock bin."""
    _check_clock(clock_qubits)
    big_t = 1 << clock_qubits
    return 2.0 * math.pi * (big_t - 1) / (big_t * gershgorin_bound(system))


def config_for(system, clock_qubits: int, c: float) -> QlaConfig:
    """QlaConfig with the default wraparound-safe t0 for this matrix.

    Logs a warning when the eigenvalue inversion will clamp clock bins. The
    clamp depends only on (T, t0, c), so it is reported once per config
    rather than once per circuit.
    """
    config = QlaConfig(clock_qubits, default_t0(system, clock_qubits), c)
    clamped = int(np.count_nonzero(_inversion_ratios(config) > 1.0))
    if clamped:
        log.warning(
            "eigenvalue inversion clamped %d of %d clock bins (c/lambda > 1); "
            "the clock resolution is coarse for this c",
            clamped,
            config.T - 1,
        )
    return config


def validate_config(config: QlaConfig, system) -> tuple[np.ndarray, np.ndarray]:
    """Check t0 and c against the spectrum; returns (eigenvalues, eigenvectors)."""
    eigs, vecs = sv.hermitian_eigh(system)
    lam_min, lam_max = float(eigs[0]), float(eigs[-1])
    if config.t0 * lam_max >= 2.0 * math.pi:
        raise ConfigError(
            f"t0 * lambda_max = {config.t0 * lam_max:.6f} >= 2*pi: phase wraparound"
        )
    if config.c > lam_min * (1.0 + _EIG_SLACK) + 1e-12:
        raise ConfigError(
            f"inversion constant c = {config.c:.6g} exceeds lambda_min = {lam_min:.6g}"
        )
    return eigs, vecs


@dataclass(frozen=True)
class SparseEncoding:
    """Sparse real vector in the form used for amplitude encoding.

    ``c_v`` is the admissible scaling 1/max|v_i|, so every rotation amplitude
    ``c_v * v_i`` lies in [-1, 1]; ``length`` is the original vector length
    (padding indices are never part of the support).
    """

    support: np.ndarray
    values: np.ndarray
    length: int
    c_v: float

    @property
    def s_v(self) -> int:
        return int(self.support.shape[0])

    def dense(self) -> np.ndarray:
        out = np.zeros(self.length)
        out[self.support] = self.values
        return out


def make_encoding(v) -> SparseEncoding:
    """Encode a vector for sparse state preparation; rejects all-zero input."""
    vec = np.asarray(v, dtype=float).reshape(-1)
    if not np.all(np.isfinite(vec)):
        raise InputError("vector has non-finite entries")
    support = np.flatnonzero(vec)
    if support.shape[0] == 0:
        raise InputError("cannot encode an all-zero vector")
    values = vec[support]
    support.setflags(write=False)
    values.setflags(write=False)
    return SparseEncoding(support, values, int(vec.shape[0]), float(1.0 / np.abs(values).max()))


def state_prep_vector(enc: SparseEncoding, index_width: int) -> np.ndarray:
    """Unit vector u whose reflection I - 2uu^T on (index register, flag qubit)
    sends |0...0> to

        w = s_v^{-1/2} sum_{i in support} |i> (sqrt(1 - c_v^2 v_i^2)|0> + c_v v_i |1>).

    u is the Householder vector (e_0 - w)/||e_0 - w||. w is never e_0: the
    entry of largest magnitude puts amplitude +-1/sqrt(s_v) on a flag-1 state.
    """
    if (1 << index_width) < enc.length:
        raise InputError(
            f"index register of {index_width} qubits cannot address {enc.length} entries"
        )
    w = np.zeros(1 << (index_width + 1))
    root_s = math.sqrt(enc.s_v)
    amp = enc.c_v * enc.values
    rows = enc.support << 1
    w[rows] = np.sqrt(np.maximum(0.0, 1.0 - amp * amp)) / root_s
    w[rows | 1] = amp / root_s
    u = -w
    u[0] += 1.0
    u /= np.linalg.norm(u)
    return u


def state_prep_unitary(enc: SparseEncoding, index_width: int) -> np.ndarray:
    """Dense form I - 2uu^T of the state-preparation reflection (a test reference)."""
    u = state_prep_vector(enc, index_width)
    return np.eye(u.shape[0]) - 2.0 * np.outer(u, u)


def prepare_sparse_state(
    layout: RegisterLayout, index_register: str, flag_qubit: str, enc: SparseEncoding
) -> StateVector:
    """Prepare the sparse-encoding state on (index, flag), all else |0>.

    Projecting the flag onto |1> leaves v/||v|| on the index register with
    probability c_v^2 ||v||^2 / s_v.
    """
    if layout.width(flag_qubit) != 1:
        raise InputError(f"flag register {flag_qubit!r} must be one qubit wide")
    u = state_prep_vector(enc, layout.width(index_register))
    state = sv.init_basis(layout)
    sv.reflect(state, u, [index_register, flag_qubit])
    return state


def pad_system(system, padded_dim: int, fill: float) -> np.ndarray:
    """Embed the matrix in a larger dimension as a direct sum with fill * I.

    Padded eigenvectors have zero overlap with zero-padded input vectors, so
    solutions are unchanged; using the inversion constant as the fill keeps
    configuration bounds intact. A complex matrix stays complex.
    """
    a = np.asarray(system)
    a = a.astype(np.result_type(a, float), copy=False)
    n = a.shape[0]
    if padded_dim == n:
        return a
    out = np.eye(padded_dim, dtype=a.dtype) * fill
    out[:n, :n] = a
    return out


def index_width(n: int) -> int:
    """Qubits needed to address n entries (at least one)."""
    return max(1, math.ceil(math.log2(n)))


def phase_estimate(
    state: StateVector,
    config: QlaConfig,
    system,
    clock: str = "clock",
    target: str = "index",
    controls=(),
    inverse: bool = False,
) -> None:
    """Phase estimation of the system Hamiltonian onto the clock register, in place.

    Forward: Hadamards on the clock, clock-controlled evolution for total
    time t0 * T, inverse QFT. With ``inverse=True`` the exact adjoint circuit
    is applied (uncomputation). Each step changes ``state.amps`` in place;
    inputs are checked before the first step, so an error leaves the state
    as it was. An eigenvalue lambda with lambda * t0 * T / (2*pi) = k
    integral lands exactly in clock bin k.
    """
    _check_solver(state, config, system, [clock, target], controls)
    t_total = config.t0 * config.T
    if not inverse:
        sv.hadamard_layer(state, clock, controls)
        sv.controlled_evolution(state, clock, target, system, t_total, controls)
        sv.qft(state, clock, inverse=True, controls=controls)
    else:
        sv.qft(state, clock, inverse=False, controls=controls)
        sv.controlled_evolution(state, clock, target, system, -t_total, controls)
        sv.hadamard_layer(state, clock, controls)


def _check_solver(state: StateVector, config: QlaConfig, system, registers, controls):
    """Checks on (clock, target, ...) before any step; returns (eigenvalues, eigenvectors, cpos)."""
    layout, (clock, target) = state.layout, registers[:2]
    if layout.width(clock) != config.clock_qubits:
        raise InputError(
            f"clock register {clock!r} has {layout.width(clock)} qubits, "
            f"config expects {config.clock_qubits}"
        )
    _, cpos = sv._gate_positions(layout, registers, controls)
    if len(system) != 1 << layout.width(target):
        raise InputError(f"system of size {len(system)} does not match register {target!r}")
    return (*validate_config(config, system), cpos)


def _inversion_ratios(config: QlaConfig) -> np.ndarray:
    """c/lambda_k for clock values k = 1 .. T-1, lambda_k = 2*pi*k/(t0*T)."""
    big_t = config.T
    return config.c / (2.0 * math.pi * np.arange(1, big_t) / (config.t0 * big_t))


def inversion_angles(config: QlaConfig) -> tuple[np.ndarray, np.ndarray]:
    """(cos, sin) tables of the half-angle rotation per clock value.

    Clock value k maps to the eigenvalue estimate 2*pi*k/(t0*T); the ancilla
    is rotated so its |1> amplitude is c/lambda_k. Bin 0 gets no rotation
    (failed estimation; removed by post-selection) and ratios above one are
    clamped to a full flip (:func:`config_for` logs how many).
    """
    sin_t = np.zeros(config.T)
    sin_t[1:] = np.minimum(_inversion_ratios(config), 1.0)
    cos_t = np.sqrt(1.0 - sin_t**2)
    return cos_t, sin_t


def eigenvalue_inversion(
    state: StateVector, clock: str, ancilla: str, config: QlaConfig, controls=()
) -> None:
    """Rotate the ancilla by 2*arcsin(c/lambda_k), controlled on clock value k, in place."""
    layout = state.layout
    if layout.width(clock) != config.clock_qubits:
        raise InputError("clock register width does not match config")
    if layout.width(ancilla) != 1:
        raise InputError(f"ancilla register {ancilla!r} must be one qubit wide")
    _, cpos = sv._gate_positions(layout, [clock, ancilla], controls)
    cos_t, sin_t = inversion_angles(config)
    _accel.pair_rot(
        state.amps, cos_t, sin_t, layout.start(clock), config.clock_qubits,
        layout.qubit(ancilla, 0), layout.total_qubits, cpos,
    )


def _clock_phase_table(lam: np.ndarray, clock_qubits: int, t: float) -> np.ndarray:
    """exp(i * lam_j * t * tau/T) per clock value tau (rows) and eigenvalue lam_j.

    Read-only and memoized, so a config's estimates share it; one entry, as a
    sweep runs its configs in turn and a table at the qubit cap is 8 MiB.
    """
    return _phase_table_of(lam.tobytes(), clock_qubits, t)


@functools.lru_cache(maxsize=1)
def _phase_table_of(lam: bytes, clock_qubits: int, t: float) -> np.ndarray:
    big_t = 1 << clock_qubits
    table = np.exp(1j * np.outer(np.arange(big_t), np.frombuffer(lam)) * (t / big_t))
    table.setflags(write=False)
    return table


def solver_block(state: StateVector, config: QlaConfig, system, clock: str = "clock",
                 target: str = "index", ancilla: str = "ancilla", controls=()) -> None:
    """:func:`phase_estimate`, :func:`eigenvalue_inversion` and the inverse
    estimation in place, entering the eigenbasis of ``system`` (V) once.

    V^H on the target, then the clock Hadamards, the clock-phase table, the
    inverse QFT, the inversion, the QFT, the conjugate table and the
    Hadamards, then V. Inputs are checked before the first step.
    """
    if state.layout.width(ancilla) != 1:
        raise InputError(f"ancilla register {ancilla!r} must be one qubit wide")
    lam, vec, cpos = _check_solver(state, config, system, [clock, target, ancilla], controls)
    table = _clock_phase_table(lam, config.clock_qubits, config.t0 * config.T)
    layout, amps = state.layout, state.amps
    m, tpos = layout.total_qubits, layout.positions(target)
    blocks = (layout.start(clock), config.clock_qubits, tpos[0], len(tpos))
    _accel.apply_matrix(amps, vec.conj().T, tpos, m, cpos)
    sv.hadamard_layer(state, clock, controls)
    _accel.phase_mul(amps, table, *blocks, m, cpos)
    sv.qft(state, clock, inverse=True, controls=controls)
    eigenvalue_inversion(state, clock, ancilla, config, controls)
    sv.qft(state, clock, controls=controls)
    _accel.phase_mul(amps, table.conj(), *blocks, m, cpos)
    sv.hadamard_layer(state, clock, controls)
    _accel.apply_matrix(amps, vec, tpos, m, cpos)


def qla_solve(b, system, config: QlaConfig) -> tuple[StateVector, float]:
    """Solve A x = b on the simulator; returns (state, success probability).

    ``b`` is either a :class:`SparseEncoding` (prepared through the sparse
    state-preparation circuit and post-selected on its flag) or an explicit
    vector (amplitudes injected directly -- the QRAM assumption). The returned
    state's index register approximates A^{-1} b / ||A^{-1} b|| after the
    ancilla is post-selected on |1>; the success probability of that
    projection is returned alongside.
    """
    a = np.asarray(system)
    n = a.shape[0]
    if a.shape != (n, n):
        raise InputError(f"system must be square, got {a.shape}")
    w = index_width(n)
    a_pad = pad_system(a, 1 << w, config.c)

    if isinstance(b, SparseEncoding):
        if b.length != n:
            raise InputError(f"vector length {b.length} does not match system size {n}")
        layout = RegisterLayout(
            (("index", w), ("flag", 1), ("ancilla", 1), ("clock", config.clock_qubits))
        )
        state = prepare_sparse_state(layout, "index", "flag", b)
        _, state = sv.project(state, "flag", 1)
    else:
        vec = np.asarray(b).reshape(-1)
        if vec.shape[0] != n:
            raise InputError(f"vector length {vec.shape[0]} does not match system size {n}")
        nrm = np.linalg.norm(vec)
        if nrm == 0.0:
            raise InputError("cannot solve for an all-zero right-hand side")
        layout = RegisterLayout((("index", w), ("ancilla", 1), ("clock", config.clock_qubits)))
        amps = np.zeros(1 << layout.total_qubits, dtype=np.complex128)
        stride = 1 << (1 + config.clock_qubits)
        amps[np.arange(n) * stride] = vec / nrm
        state = StateVector._adopt(layout, amps)

    solver_block(state, config, a_pad)
    success_prob, state = sv.project(state, "ancilla", 1)
    return state, success_prob


def solution_overlap(state: StateVector, reference: np.ndarray, index: str = "index") -> float:
    """|<reference|state>| with all non-index registers at their nominal values.

    The clock is pinned to zero and one-qubit flag/ancilla registers to |1>,
    so clock leakage counts as infidelity rather than being renormalized away.
    """
    fixed = {}
    for name, _width in state.layout.registers:
        if name == index:
            continue
        # the clock returns to |0...0>; one-qubit flags post-select on |1>
        fixed[name] = 0 if name == "clock" else 1
    comp = sv.register_component(state, index, fixed)
    ref = np.asarray(reference, dtype=complex).reshape(-1)
    ref = ref / np.linalg.norm(ref)
    if ref.shape[0] < comp.shape[0]:
        ref = np.concatenate([ref, np.zeros(comp.shape[0] - ref.shape[0], dtype=complex)])
    return float(abs(np.vdot(ref, comp)))


def hermitianize(a) -> np.ndarray:
    """Embed a general matrix in the Hermitian block form [[0, A], [A^H, 0]].

    Eigenvalues come in +/- pairs equal to the singular values of A.
    """
    mat = np.asarray(a)
    if mat.ndim != 2:
        raise InputError(f"expected a matrix, got shape {mat.shape}")
    p, q = mat.shape
    out = np.zeros((p + q, p + q), dtype=complex if np.iscomplexobj(mat) else float)
    out[:p, p:] = mat
    out[p:, :p] = mat.conj().T
    return out
