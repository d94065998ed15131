"""Exact complex-amplitude simulation of multi-register quantum circuits.

A state lives on an ordered set of named registers; the first register holds
the most significant bits of the basis index, and within a register qubit 0
is the most significant bit. Circuit operations return new ``StateVector``
instances: the amplitudes are copied, then mutated in place by the numpy
kernels in :mod:`qgpr._accel`.

Supported operations: computational-basis initialization, controlled
application of arbitrary unitaries, controlled reflections I - 2uu^H (applied
as a rank-1 update), the quantum Fourier transform on a register (an FFT
along the register), clock-controlled Hamiltonian evolution by exact
eigendecomposition, expectation values of factorized Hermitian observables,
projective measurement of a register, and seeded shot sampling of an
observable. The eigendecomposition of an evolution system is memoized on the
matrix contents, so a system is diagonalized once however many circuits
evolve under it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import _accel
from .exceptions import InputError, ZeroProbabilityError

SQRT2_INV = 1.0 / math.sqrt(2.0)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) * SQRT2_INV
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PROJ_0 = np.array([[1, 0], [0, 0]], dtype=complex)
PROJ_1 = np.array([[0, 0], [0, 1]], dtype=complex)

DEFAULT_QUBIT_CAP = 22  # 2^22 complex amplitudes ~ 64 MiB
MAX_SHOTS = 1 << DEFAULT_QUBIT_CAP  # as many draws as the cap admits amplitudes

_UNITARY_TOL = 1e-10
_HERMITIAN_TOL = 1e-10


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered named qubit registers; total width is capped."""

    registers: tuple[tuple[str, int], ...]
    max_qubits: int = DEFAULT_QUBIT_CAP

    def __post_init__(self):
        regs = tuple((str(n), int(w)) for n, w in self.registers)
        object.__setattr__(self, "registers", regs)
        names = [n for n, _ in regs]
        if len(set(names)) != len(names):
            raise InputError(f"duplicate register names in {names}")
        if any(w < 1 for _, w in regs):
            raise InputError("register widths must be >= 1")
        if self.total_qubits > self.max_qubits:
            raise InputError(
                f"{self.total_qubits} qubits exceeds the cap of {self.max_qubits}"
            )

    @property
    def total_qubits(self) -> int:
        return sum(w for _, w in self.registers)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.registers)

    def width(self, name: str) -> int:
        for n, w in self.registers:
            if n == name:
                return w
        raise InputError(f"no register named {name!r}")

    def start(self, name: str) -> int:
        pos = 0
        for n, w in self.registers:
            if n == name:
                return pos
            pos += w
        raise InputError(f"no register named {name!r}")

    def positions(self, name: str) -> tuple[int, ...]:
        s = self.start(name)
        return tuple(range(s, s + self.width(name)))

    def qubit(self, name: str, j: int) -> int:
        w = self.width(name)
        if not 0 <= j < w:
            raise InputError(f"register {name!r} has no qubit {j}")
        return self.start(name) + j

    def value(self, basis_index: int, name: str) -> int:
        shift = self.total_qubits - (self.start(name) + self.width(name))
        return (basis_index >> shift) & ((1 << self.width(name)) - 1)

    def dims(self) -> tuple[int, ...]:
        return tuple(1 << w for _, w in self.registers)


@dataclass
class StateVector:
    """Normalized amplitudes over a register layout."""

    layout: RegisterLayout
    amps: np.ndarray = field(repr=False)

    def __post_init__(self):
        amps = np.ascontiguousarray(self.amps, dtype=np.complex128)
        if amps.shape != (1 << self.layout.total_qubits,):
            raise InputError(
                f"amplitude vector has length {amps.shape}, layout needs "
                f"{1 << self.layout.total_qubits}"
            )
        self.amps = amps

    def copy(self) -> "StateVector":
        return StateVector(self.layout, self.amps.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


class Observable:
    """Tensor product of per-register Hermitian factors.

    Factors are given per register name as ``"X"``, ``"I"``, ``"P0"``
    (``|0><0|``), ``"P1"`` (``|1><1|``) or an explicit Hermitian matrix of the
    register's dimension. Registers not mentioned carry the identity.
    """

    _NAMED = {"X": PAULI_X, "P0": PROJ_0, "P1": PROJ_1}

    def __init__(self, layout: RegisterLayout, factors: Mapping[str, object]):
        self.layout = layout
        mats: dict[str, np.ndarray] = {}
        for name, fac in factors.items():
            dim = 1 << layout.width(name)  # raises for unknown names
            if isinstance(fac, str):
                if fac == "I":
                    continue
                if fac not in self._NAMED:
                    raise InputError(f"unknown factor {fac!r} for register {name!r}")
                mat = self._NAMED[fac]
            else:
                mat = np.asarray(fac, dtype=complex)
            if mat.shape != (dim, dim):
                raise InputError(
                    f"factor for register {name!r} has shape {mat.shape}, "
                    f"expected {(dim, dim)}"
                )
            if np.abs(mat - mat.conj().T).max() > _HERMITIAN_TOL:
                raise InputError(f"factor for register {name!r} is not Hermitian")
            mats[name] = mat
        self.factors = mats

    def items(self):
        return self.factors.items()


# ---------------------------------------------------------------------------
# construction


def init_basis(layout: RegisterLayout, indices: Mapping[str, int] | None = None) -> StateVector:
    """Computational basis state with the given value per register (default 0)."""
    indices = dict(indices or {})
    index = 0
    for name, w in layout.registers:
        val = int(indices.pop(name, 0))
        if not 0 <= val < (1 << w):
            raise InputError(f"basis index {val} overflows register {name!r} ({w} qubits)")
        index |= val << (layout.total_qubits - (layout.start(name) + w))
    if indices:
        raise InputError(f"unknown registers {sorted(indices)}")
    amps = np.zeros(1 << layout.total_qubits, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(layout, amps)


def _target_positions(layout: RegisterLayout, target) -> tuple[int, ...]:
    """Resolve a register name, a (register, qubit) pair, or a list of those."""
    if isinstance(target, str):
        return layout.positions(target)
    if isinstance(target, tuple) and len(target) == 2 and isinstance(target[0], str):
        return (layout.qubit(target[0], target[1]),)
    pos: list[int] = []
    for item in target:
        pos.extend(_target_positions(layout, item))
    return tuple(pos)


def _control_positions(layout: RegisterLayout, controls) -> tuple[tuple[int, int], ...]:
    out = []
    for reg, qubit, val in controls:
        if val not in (0, 1):
            raise InputError(f"control value must be 0 or 1, got {val}")
        out.append((layout.qubit(reg, qubit), val))
    return tuple(out)


def _gate_positions(layout: RegisterLayout, target, controls):
    """Target and control positions; no qubit may be both, or a target twice."""
    tpos = _target_positions(layout, target)
    cpos = _control_positions(layout, controls)
    if len(set(tpos)) != len(tpos):
        raise InputError("a target qubit is named twice")
    if set(tpos) & {p for p, _ in cpos}:
        raise InputError("target and control qubits overlap")
    return tpos, cpos


# ---------------------------------------------------------------------------
# circuit operations


def apply_gate(state: StateVector, gate: np.ndarray, target, controls=()) -> StateVector:
    """Apply a unitary to target qubits, optionally under qubit controls.

    ``target`` is a register name (whole register), a ``(register, qubit)``
    pair, or a sequence of those; ``controls`` is a sequence of
    ``(register, qubit, value)`` triples that must all match.
    """
    layout = state.layout
    tpos, cpos = _gate_positions(layout, target, controls)
    gate = np.asarray(gate, dtype=complex)
    dim = 1 << len(tpos)
    if gate.shape != (dim, dim):
        raise InputError(f"gate shape {gate.shape} does not match {len(tpos)} qubits")
    if np.abs(gate.conj().T @ gate - np.eye(dim)).max() > _UNITARY_TOL:
        raise InputError("gate is not unitary")
    amps = state.amps.copy()
    _accel.apply_matrix(amps, gate, tpos, layout.total_qubits, cpos)
    return StateVector(layout, amps)


def reflect(state: StateVector, u, target, controls=()) -> StateVector:
    """Apply the reflection ``I - 2 u u^H`` to target qubits, optionally controlled.

    ``target`` and ``controls`` are as for :func:`apply_gate`. ``u`` must be a
    unit vector over the target qubits, which makes the reflection unitary.
    """
    layout = state.layout
    tpos, cpos = _gate_positions(layout, target, controls)
    u = np.asarray(u)
    if u.shape != (1 << len(tpos),):
        raise InputError(f"reflection vector shape {u.shape} does not match {len(tpos)} qubits")
    if not abs(np.linalg.norm(u) - 1.0) <= _UNITARY_TOL:  # also rejects NaN
        raise InputError("reflection vector is not a unit vector")
    amps = state.amps.copy()
    _accel.reflect(amps, u, tpos, layout.total_qubits, cpos)
    return StateVector(layout, amps)


def qft_matrix(width: int) -> np.ndarray:
    """Dense QFT on ``width`` qubits: |j> -> N^{-1/2} sum_k exp(2 pi i jk/N)|k>."""
    dim = 1 << width
    j = np.arange(dim)
    return np.exp(2j * np.pi * np.outer(j, j) / dim) / math.sqrt(dim)


def qft(state: StateVector, register: str, inverse: bool = False, controls=()) -> StateVector:
    """Quantum Fourier transform (or its inverse) on one register, as an FFT.

    Forward: |j> -> T^{-1/2} sum_k exp(+2 pi i jk/T)|k> with T = 2**width; the
    inverse has exp(-2 pi i jk/T). Controls may not lie on ``register``.
    """
    layout = state.layout
    start, width = layout.start(register), layout.width(register)
    _, cpos = _gate_positions(layout, register, controls)
    amps = state.amps.copy()
    _accel.fourier(amps, start, width, layout.total_qubits, cpos, inverse)
    return StateVector(layout, amps)


def _check_hermitian(system: np.ndarray) -> np.ndarray:
    a = np.asarray(system, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError(f"expected a square matrix, got shape {a.shape}")
    scale = max(1.0, np.abs(a).max())
    if np.abs(a - a.conj().T).max() > _HERMITIAN_TOL * scale:
        raise InputError("matrix is not Hermitian")
    return a


@functools.lru_cache(maxsize=4)
def _eigh_of(shape: tuple[int, int], data: bytes) -> tuple[np.ndarray, np.ndarray]:
    lam, vec = np.linalg.eigh(np.frombuffer(data, dtype=np.complex128).reshape(shape))
    lam.setflags(write=False)
    vec.setflags(write=False)
    return lam, vec


def hermitian_eigh(system) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of a Hermitian matrix, read-only.

    The last few results are memoized on the matrix contents (shape and
    bytes), so circuits that share a system diagonalize it once.
    """
    a = _check_hermitian(system)
    return _eigh_of(a.shape, a.tobytes())


def controlled_evolution(
    state: StateVector,
    clock: str,
    target: str,
    system: np.ndarray,
    t: float,
    controls=(),
) -> StateVector:
    """Apply ``sum_tau |tau><tau| (x) exp(i * system * t * tau/T)`` (T clock states).

    Implemented by rotating the target register into the eigenbasis of
    ``system``, multiplying the joint (clock value, eigenvector) phase and
    rotating back, so the evolution is exact.
    """
    layout = state.layout
    _, cpos = _gate_positions(layout, [clock, target], controls)
    lam, vec = hermitian_eigh(system)
    tw = layout.width(target)
    if lam.shape[0] != (1 << tw):
        raise InputError(
            f"system dimension {lam.shape[0]} does not match register {target!r} "
            f"({1 << tw} states)"
        )
    cw = layout.width(clock)
    big_t = 1 << cw
    tau = np.arange(big_t)
    table = np.exp(1j * np.outer(tau, lam) * (t / big_t))

    amps = state.amps.copy()
    m = layout.total_qubits
    tpos = layout.positions(target)
    _accel.apply_matrix(amps, vec.conj().T, tpos, m, cpos)
    _accel.phase_mul(amps, table, layout.start(clock), cw, layout.start(target), tw, m, cpos)
    _accel.apply_matrix(amps, vec, tpos, m, cpos)
    return StateVector(layout, amps)


def expectation(state: StateVector, obs: Observable) -> float:
    """Real expectation value ``<psi|M|psi>`` of a factorized observable."""
    if obs.layout is not state.layout and obs.layout != state.layout:
        raise InputError("observable layout does not match state layout")
    phi = state.amps.copy()
    m = state.layout.total_qubits
    for name, mat in obs.items():
        _accel.apply_matrix(phi, mat, state.layout.positions(name), m)
    val = np.vdot(state.amps, phi)
    return float(val.real)


def project(state: StateVector, register: str, outcome: int) -> tuple[float, StateVector]:
    """Project a register onto a basis value; returns (probability, new state).

    The returned state is renormalized; outcomes whose probability is below
    1e-14 of the state's squared norm raise :class:`ZeroProbabilityError`.
    """
    layout = state.layout
    w = layout.width(register)
    if not 0 <= outcome < (1 << w):
        raise InputError(f"outcome {outcome} overflows register {register!r}")
    pre = 1 << layout.start(register)
    post = 1 << (layout.total_qubits - layout.start(register) - w)
    cube = state.amps.reshape(pre, 1 << w, post)
    block = cube[:, outcome, :]
    prob = float(np.vdot(block, block).real)
    if prob <= 1e-14 * float(np.vdot(state.amps, state.amps).real):
        raise ZeroProbabilityError(
            f"outcome {outcome} of register {register!r} has probability {prob:.3e}"
        )
    amps = np.zeros_like(state.amps).reshape(pre, 1 << w, post)
    amps[:, outcome, :] = block / math.sqrt(prob)
    return prob, StateVector(layout, amps.reshape(-1))


def register_component(state: StateVector, keep: str, fixed: Mapping[str, int]) -> np.ndarray:
    """Unnormalized amplitudes over ``keep`` with every other register pinned."""
    layout = state.layout
    missing = set(layout.names) - {keep} - set(fixed)
    if missing:
        raise InputError(f"registers {sorted(missing)} neither kept nor fixed")
    idx = []
    for name, w in layout.registers:
        if name == keep:
            idx.append(slice(None))
        else:
            val = fixed[name]
            if not 0 <= val < (1 << w):
                raise InputError(f"value {val} overflows register {name!r}")
            idx.append(val)
    return state.amps.reshape(layout.dims())[tuple(idx)].copy()


def sample_observable(
    state: StateVector, obs: Observable, shots: int, seed: int
) -> np.ndarray:
    """Seeded i.i.d. draws of the observable's measured value.

    Each factor is measured in its own eigenbasis; a draw's value is the
    product of the factor eigenvalues. Identical inputs give an identical
    outcome sequence.
    """
    if not 1 <= shots <= MAX_SHOTS:
        raise InputError(f"shots must be between 1 and {MAX_SHOTS}, got {shots}")
    layout = state.layout
    phi = state.amps.copy()
    m = layout.total_qubits
    eigvals: list[np.ndarray] = []
    axes: list[int] = []
    for axis, (name, _w) in enumerate(layout.registers):
        if name not in obs.factors:
            continue
        vals, vecs = np.linalg.eigh(obs.factors[name])
        _accel.apply_matrix(phi, vecs.conj().T, layout.positions(name), m)
        eigvals.append(vals)
        axes.append(axis)
    probs = (np.abs(phi) ** 2).reshape(layout.dims())
    drop = tuple(i for i in range(len(layout.registers)) if i not in axes)
    if drop:
        probs = probs.sum(axis=drop)
    probs = probs.reshape(-1)
    probs = probs / probs.sum()
    values = np.ones(1)
    for vals in eigvals:
        values = np.multiply.outer(values, vals).reshape(-1)
    rng = np.random.default_rng(seed)
    picks = rng.choice(values.shape[0], size=shots, p=probs)
    return values[picks]
