"""The quantum linear-systems pipeline at desk scale.

Covers sparse-vector state preparation, phase estimation over a Hermitian
system matrix, the conditioned eigenvalue-inversion rotation, uncomputation,
and post-selection. The clock register holds T = 2**clock_qubits values; a
clock value k encodes the eigenvalue estimate 2*pi*k / (t0*T), so phases are
exact whenever every lambda * t0 * T / (2*pi) is an integer.

:func:`solver_block` runs estimation, inversion and uncomputation entering
the system's eigenbasis once: the basis change acts only on the target, the
rest only on the clock and the ancilla, so the pair between them cancels.
That rest is one fixed map per eigenvalue, simulated gate by gate once per
config on chunks of the eigenvalues, and memoized. The clock is |0> until
its first Hadamards, so one pass (:func:`qgpr._accel.spread_solve`) reads
the state without it and writes the new state with the clock appended: V^H,
the clock spread, that map and V. As in HHL the ancilla enters in |0> (it
must, on the controlled rows), so only the ancilla-0 rows enter the
eigenbasis and the map's ancilla-0 column applies.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from . import _accel
from . import statevector as sv
from .exceptions import (ConfigError, InputError, NumericError, finite_array, finite_real, integer,
                         numeric_array)
from .statevector import DEFAULT_QUBIT_CAP, RegisterLayout, StateVector

log = logging.getLogger(__name__)

# relative slack when validating c <= lambda_min: the GPR layer sets
# c = sigma_n^2 while the Gram part is only PSD up to round-off
_EIG_SLACK = 1e-9
_CHUNK = 1 << 14  # amplitudes per eigen-index chunk of the solver response build


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
        integer("clock_qubits", self.clock_qubits, 1, DEFAULT_QUBIT_CAP)
        finite_real("t0", self.t0, 0)
        finite_real("c", self.c, 0)

    @property
    def T(self) -> int:
        return 1 << self.clock_qubits


def gershgorin_bound(system) -> float:
    """Upper bound on the largest eigenvalue: max absolute row sum."""
    a = finite_array("system", system, complex_ok=True, square=True)
    with np.errstate(over="ignore"):
        bound = float(np.abs(a).sum(axis=1).max())
    if not math.isfinite(bound):
        raise NumericError("the system's scale overflows: its largest row sum is not finite")
    return bound


def default_t0(system, clock_qubits: int) -> float:
    """Largest safe per-step time: the top eigenvalue lands in the last clock bin."""
    integer("clock_qubits", clock_qubits, 1, DEFAULT_QUBIT_CAP)  # before 2**clock_qubits
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
    """Encode a real vector for sparse state preparation; rejects all-zero,
    complex and non-numeric input."""
    vec = finite_array("vector", v).reshape(-1)
    support = np.flatnonzero(vec)
    if support.shape[0] == 0:
        raise InputError("cannot encode an all-zero vector")
    values = vec[support]
    support.setflags(write=False)
    values.setflags(write=False)
    peak = float(np.abs(values).max())
    if not math.isfinite(1.0 / peak):  # Python floats: inf past the range, not a warning
        raise NumericError(f"1/max|v| overflows: the largest entry is {peak:g}")
    return SparseEncoding(support, values, int(vec.shape[0]), 1.0 / peak)


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
    configuration bounds intact. A complex matrix stays complex. A system that needs
    no padding comes back as it is (no fill is read), checked where it is diagonalized.
    """
    a = numeric_array("system", system, complex_ok=True, square=True)
    n = a.shape[0]
    if integer("padded_dim", padded_dim, n) == n:
        return a
    a = finite_array("system", a, complex_ok=True)
    out = np.eye(padded_dim, dtype=a.dtype) * finite_real("fill", fill)
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
    controls=None,
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
    layout = state.layout
    if layout.width(clock) != config.clock_qubits:
        raise InputError(
            f"clock register {clock!r} has {layout.width(clock)} qubits, "
            f"config expects {config.clock_qubits}"
        )
    sv._operand(layout, state.amps, [clock, target], controls)  # checks only
    if len(validate_config(config, system)[0]) != 1 << layout.width(target):
        raise InputError(f"system of size {len(system)} does not match register {target!r}")
    t_total = config.t0 * config.T
    if not inverse:
        sv.hadamard_layer(state, clock, controls)
        sv.controlled_evolution(state, clock, target, system, t_total, controls)
        sv.qft(state, clock, inverse=True, controls=controls)
    else:
        sv.qft(state, clock, inverse=False, controls=controls)
        sv.controlled_evolution(state, clock, target, system, -t_total, controls)
        sv.hadamard_layer(state, clock, controls)


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
    state: StateVector, clock: str, ancilla: str, config: QlaConfig, controls=None
) -> None:
    """Rotate the ancilla by 2*arcsin(c/lambda_k), controlled on clock value k, in place."""
    layout = state.layout
    if layout.width(clock) != config.clock_qubits:
        raise InputError("clock register width does not match config")
    if layout.width(ancilla) != 1:
        raise InputError(f"ancilla register {ancilla!r} must be one qubit wide")
    view, axes = sv._operand(layout, state.amps, [clock, ancilla], controls)
    cos_t, sin_t = inversion_angles(config)
    _accel.pair_rot(view, cos_t, sin_t, *axes)


@functools.lru_cache(maxsize=1)
def _solver_response(lam: bytes, config: QlaConfig) -> tuple[np.ndarray, np.ndarray]:
    """sqrt(T) * (G_c, G_s) per (j, tau): :func:`solver_block`'s stages between
    the spread and V send |j>|d>_D|0>_E to sum_tau |j>R_d|tau>, with
    R_0 = G_c|0> + G_s|1> and R_1 = -G_s|0> + G_c|1> at [j, tau]: the inversion
    rotates the ancilla per clock value and the rest acts on the clock alone.
    Every stage is diagonal in j: they run gate by gate on chunks of
    eigen-indices, states of at most ``_CHUNK`` amplitudes (or two indices),
    in place in the table returned. The input is zero at D = 1, so the phase
    table is written into the D = 0 rows and the inverse QFT acts on them
    alone. Read-only and memoized (one entry: a sweep runs its configs in turn).
    """
    eigs, big_t = np.frombuffer(lam), config.T
    w = min(index_width(eigs.shape[0]), max(1, (_CHUNK // (2 * big_t)).bit_length() - 1))
    rows = 1 << w  # eigen-indices per chunk, two at least
    layout = RegisterLayout((("target", w), ("ancilla", 1), ("clock", config.clock_qubits)))
    out = np.zeros((eigs.shape[0], 2, big_t), dtype=np.complex128)
    for j in range(0, eigs.shape[0], rows):
        tensor = out[j : j + rows]  # axes target, ancilla, clock
        chunk = StateVector._adopt(layout, tensor.reshape(-1))
        # sqrt(T) times the spread of sum_j |j>|0>_D, phased by exp(i * lam_j * t0 * tau)
        table = np.exp(1j * np.outer(np.arange(big_t), eigs[j : j + rows]) * config.t0)
        tensor[:, 0] = table.T
        sv.qft(chunk, "clock", inverse=True, controls={"ancilla": 0})
        eigenvalue_inversion(chunk, "clock", "ancilla", config)
        sv.qft(chunk, "clock")
        _accel.phase_mul(tensor, table.conj(), 2, 0)
        sv.hadamard_layer(chunk, "clock")
    out.setflags(write=False)
    return out[:, 0], out[:, 1]


def solver_block(state: StateVector, config: QlaConfig, system, clock: str = "clock",
                 target: str = "index", ancilla: str = "ancilla", controls=None) -> StateVector:
    """:func:`phase_estimate`, :func:`eigenvalue_inversion` and the inverse
    estimation on ``state`` (x) |0>_clock, the clock appended last; returns that
    new state rather than working in place, and leaves ``state`` as it was.

    The stages between the clock spread and V (phase table, inverse QFT,
    inversion, QFT, conjugate table, Hadamards) run once per config, gate by
    gate on small states (:func:`_solver_response`). Each call is then one
    :func:`qgpr._accel.spread_solve`, which writes V^H, the spread, that
    response and V into the new state. ``controls`` maps register names to
    the values that select the controlled rows (``{"A": 1, "C": 1}``), where
    the ancilla must be |0>. Every input, the qubit cap (by appending the
    clock) and that ancilla among them, is checked before anything is
    allocated. The controls are resolved once per state; the rows at ancilla
    0 and 1 are that view's two slices along the ancilla's axis.
    """
    layout = RegisterLayout((*state.layout.registers, (clock, config.clock_qubits)))
    if layout.width(ancilla) != 1:
        raise InputError(f"ancilla register {ancilla!r} must be one qubit wide")
    view, (axis, anc) = sv._operand(state.layout, state.amps, [target, ancilla], controls)
    lam, vec = validate_config(config, system)
    if len(lam) != 1 << layout.width(target):
        raise InputError(f"system of size {len(lam)} does not match register {target!r}")
    src, rows = np.moveaxis(view, anc, 0)  # the controlled rows at ancilla 0 and 1
    if np.any(rows):
        raise InputError(f"ancilla register {ancilla!r} must be |0> on the controlled rows")
    g_c, g_s = _solver_response(lam.tobytes(), config)
    amps = np.zeros(state.amps.size << config.clock_qubits, dtype=np.complex128)
    amps.reshape(-1, config.T)[:, 0] = state.amps  # the controlled rows are overwritten below
    dst = np.moveaxis(sv._register_view(layout, amps, controls), anc, 0)  # and the clock last
    _accel.spread_solve(src, dst, vec, g_c, g_s, axis - (axis > anc))
    return StateVector._adopt(layout, amps)


def qla_solve(b, system, config: QlaConfig) -> tuple[StateVector, float]:
    """Solve A x = b on the simulator; returns (state, success probability).

    ``b`` is either a :class:`SparseEncoding` (prepared through the sparse
    state-preparation circuit and post-selected on its flag) or an explicit
    vector (amplitudes injected directly -- the QRAM assumption). The returned
    state's index register approximates A^{-1} b / ||A^{-1} b|| after the
    ancilla is post-selected on |1>; the success probability of that
    projection is returned alongside.
    """
    n = numeric_array("system", system, complex_ok=True, square=True).shape[0]
    w = index_width(n)
    a_pad = pad_system(system, 1 << w, config.c)

    if isinstance(b, SparseEncoding):
        if b.length != n:
            raise InputError(f"vector length {b.length} does not match system size {n}")
        layout = RegisterLayout((("index", w), ("flag", 1), ("ancilla", 1)))
        state = prepare_sparse_state(layout, "index", "flag", b)
        _, state = sv.project(state, "flag", 1)
    else:
        vec = finite_array("right-hand side", b, complex_ok=True).reshape(-1)
        if vec.shape[0] != n:
            raise InputError(f"vector length {vec.shape[0]} does not match system size {n}")
        nrm = np.linalg.norm(vec)
        if nrm == 0.0:
            raise InputError("cannot solve for an all-zero right-hand side")
        state = sv.init_basis(RegisterLayout((("index", w), ("ancilla", 1))))
        state.amps[: 2 * n : 2] = vec / nrm  # ancilla |0>

    state = solver_block(state, config, a_pad)
    success_prob, state = sv.project(state, "ancilla", 1)
    return state, success_prob


def solution_overlap(state: StateVector, reference: np.ndarray, index: str = "index") -> float:
    """|<reference|state>| with all non-index registers at their nominal values.

    The clock is pinned to zero and one-qubit flag/ancilla registers to |1>,
    so clock leakage counts as infidelity rather than being renormalized away.
    The reference must be finite, nonzero and no longer than the index register.
    """
    # the clock returns to |0...0>; one-qubit flags post-select on |1>
    fixed = {name: 0 if name == "clock" else 1 for name in state.layout.names if name != index}
    comp = sv.register_component(state, index, fixed)
    ref = finite_array("reference", reference, complex_ok=True).reshape(-1)
    if ref.shape[0] > comp.shape[0] or not ref.any():
        raise InputError(f"reference must be a nonzero vector of at most {comp.shape[0]} entries")
    # scaled first, so the norm neither overflows nor underflows
    ref = ref.astype(complex) / np.abs(ref).max()
    ref = ref / np.linalg.norm(ref)
    if ref.shape[0] < comp.shape[0]:
        ref = np.concatenate([ref, np.zeros(comp.shape[0] - ref.shape[0], dtype=complex)])
    return float(abs(np.vdot(ref, comp)))


def hermitianize(a) -> np.ndarray:
    """Embed a general matrix in the Hermitian block form [[0, A], [A^H, 0]].

    Eigenvalues come in +/- pairs equal to the singular values of A.
    """
    mat = finite_array("matrix", a, complex_ok=True)
    if mat.ndim != 2:
        raise InputError(f"expected a matrix, got shape {mat.shape}")
    p, q = mat.shape
    out = np.zeros((p + q, p + q), dtype=complex if np.iscomplexobj(mat) else float)
    out[:p, p:] = mat
    out[p:, :p] = mat.conj().T
    return out
