"""Exact complex-amplitude simulation of multi-register quantum circuits.

A state lives on an ordered set of named registers; the first register holds
the most significant bits of the basis index, and within a register qubit 0
is the most significant bit. Circuit operations change ``state.amps`` in
place through the numpy kernels in :mod:`qgpr._accel` and return ``None``; a
caller that still needs the state before an operation takes ``state.copy()``.
:func:`project` is a measurement and returns a new, renormalized state.

Supported operations: computational-basis initialization, controlled
application of arbitrary unitaries, a Hadamard layer on a register (Walsh
blocks H^(x)k of up to 4 qubits), controlled reflections I - 2uu^H (a rank-1
update), the quantum Fourier transform on a register (an FFT along the
register), clock-controlled Hamiltonian evolution as its definition (one
controlled gate per clock value: the reference for
:func:`qgpr.qla.solver_block`), projective measurement of a register, and the
expectation value and seeded shot sampling of an :class:`Observable`, read off
views of the amplitudes without a copy. The eigendecomposition of a Hermitian
system is memoized on the matrix contents, so a system is diagonalized once
however many circuits use it. Real gates and the real eigenbasis of a real
symmetric system stay real, so the kernels apply them as real products.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import _accel
from .exceptions import InputError, ZeroProbabilityError

SQRT2_INV = 1.0 / math.sqrt(2.0)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) * SQRT2_INV
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
# H^(x)k, k = 1..4: wider Walsh blocks measured slower at 18 to 22 qubits
_WALSH = [functools.reduce(np.kron, [HADAMARD] * k) for k in range(1, 5)]

DEFAULT_QUBIT_CAP = 22  # 2^22 complex amplitudes ~ 64 MiB
MAX_SHOTS = 1 << DEFAULT_QUBIT_CAP  # as many draws as the cap admits amplitudes

_UNITARY_TOL = 1e-10
_HERMITIAN_TOL = 1e-10
# eigenvalues of each one-qubit factor, ascending; P0's eigenvalue 0 is basis |1>
_EIGENVALUES = {"X": (-1.0, 1.0), "P0": (0.0, 1.0), "P1": (0.0, 1.0)}


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered named qubit registers of at most ``DEFAULT_QUBIT_CAP`` qubits in all."""

    registers: tuple[tuple[str, int], ...]

    def __post_init__(self):
        regs = tuple((str(n), int(w)) for n, w in self.registers)
        object.__setattr__(self, "registers", regs)
        names = [n for n, _ in regs]
        if len(set(names)) != len(names):
            raise InputError(f"duplicate register names in {names}")
        if any(w < 1 for _, w in regs):
            raise InputError("register widths must be >= 1")
        if self.total_qubits > DEFAULT_QUBIT_CAP:
            raise InputError(
                f"{self.total_qubits} qubits exceeds the cap of {DEFAULT_QUBIT_CAP}"
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
        # a copy, so the in-place operations never write to the caller's array
        amps = np.array(self.amps, dtype=np.complex128)
        if amps.shape != (1 << self.layout.total_qubits,):
            raise InputError(
                f"amplitude vector has length {amps.shape}, layout needs "
                f"{1 << self.layout.total_qubits}"
            )
        self.amps = amps

    @classmethod
    def _adopt(cls, layout: RegisterLayout, amps: np.ndarray) -> "StateVector":
        """A state over ``amps`` itself, uncopied: for arrays this module just allocated."""
        state = cls.__new__(cls)
        state.layout, state.amps = layout, amps
        return state

    def copy(self) -> "StateVector":
        return StateVector(self.layout, self.amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


class Observable:
    """Tensor product of one-qubit factors on named registers.

    Factors are given per register name as ``"X"``, ``"P0"`` (``|0><0|``),
    ``"P1"`` (``|1><1|``) or ``"I"``; all but ``"I"`` need a one-qubit
    register, and at most one factor is X. Registers not mentioned carry the
    identity. ``factors`` maps each register with a non-identity factor to its
    letter. Each projector pins its register's axis of the amplitude tensor
    and X pairs the two halves psi0, psi1 of its axis, so
    <X> = 2 Re<psi0|psi1> and X reads -/+1 with probability
    (|psi0|^2 + |psi1|^2 -/+ 2 Re<psi0|psi1>) / 2.
    """

    def __init__(self, layout: RegisterLayout, factors: Mapping[str, object]):
        self.layout = layout
        for name, fac in factors.items():
            width = layout.width(name)  # raises for unknown names
            if not isinstance(fac, str) or fac not in ("I", *_EIGENVALUES):
                raise InputError(f"unknown factor {fac!r} for register {name!r}")
            if fac != "I" and width != 1:
                raise InputError(f"factor {fac!r} on {name!r} needs a one-qubit register")
        self.factors = {name: fac for name, fac in factors.items() if fac != "I"}
        if list(self.factors.values()).count("X") > 1:
            raise InputError("an observable has at most one 'X' factor")


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
    return StateVector._adopt(layout, amps)


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


def apply_gate(state: StateVector, gate: np.ndarray, target, controls=()) -> None:
    """Apply a unitary to target qubits in place, optionally under qubit controls.

    ``target`` is a register name (whole register), a ``(register, qubit)``
    pair, or a sequence of those; ``controls`` is a sequence of
    ``(register, qubit, value)`` triples that must all match.
    """
    layout = state.layout
    tpos, cpos = _gate_positions(layout, target, controls)
    gate = np.asarray(gate)
    gate = gate.astype(np.result_type(gate, float), copy=False)  # a real gate stays real
    dim = 1 << len(tpos)
    if gate.shape != (dim, dim):
        raise InputError(f"gate shape {gate.shape} does not match {len(tpos)} qubits")
    if np.abs(gate.conj().T @ gate - np.eye(dim)).max() > _UNITARY_TOL:
        raise InputError("gate is not unitary")
    _accel.apply_matrix(state.amps, gate, tpos, layout.total_qubits, cpos)


def hadamard_layer(state: StateVector, register: str, controls=()) -> None:
    """H on every qubit of a register in place, optionally controlled, as Walsh
    blocks H^(x)k of up to 4 qubits: one pass over the amplitudes per block."""
    layout = state.layout
    tpos, cpos = _gate_positions(layout, register, controls)
    for j in range(0, len(tpos), len(_WALSH)):
        block = tpos[j : j + len(_WALSH)]
        _accel.apply_matrix(state.amps, _WALSH[len(block) - 1], block, layout.total_qubits, cpos)


def reflect(state: StateVector, u, target, controls=()) -> None:
    """Apply the reflection ``I - 2 u u^H`` to target qubits in place, optionally controlled.

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
    _accel.reflect(state.amps, u, tpos, layout.total_qubits, cpos)


def qft_matrix(width: int) -> np.ndarray:
    """Dense QFT on ``width`` qubits: |j> -> N^{-1/2} sum_k exp(2 pi i jk/N)|k>."""
    dim = 1 << width
    j = np.arange(dim)
    return np.exp(2j * np.pi * np.outer(j, j) / dim) / math.sqrt(dim)


def qft(state: StateVector, register: str, inverse: bool = False, controls=()) -> None:
    """Quantum Fourier transform (or its inverse) on one register in place, as an FFT.

    Forward: |j> -> T^{-1/2} sum_k exp(+2 pi i jk/T)|k> with T = 2**width; the
    inverse has exp(-2 pi i jk/T). Controls may not lie on ``register``.
    """
    layout = state.layout
    start, width = layout.start(register), layout.width(register)
    _, cpos = _gate_positions(layout, register, controls)
    _accel.fourier(state.amps, start, width, layout.total_qubits, cpos, inverse)


def _check_hermitian(system: np.ndarray) -> np.ndarray:
    a = np.asarray(system)
    a = a.astype(np.result_type(a, float), copy=False)  # a real system stays real
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError(f"expected a square matrix, got shape {a.shape}")
    scale = max(1.0, np.abs(a).max())
    if np.abs(a - a.conj().T).max() > _HERMITIAN_TOL * scale:
        raise InputError("matrix is not Hermitian")
    return a


@functools.lru_cache(maxsize=4)
def _eigh_of(shape: tuple[int, int], dtype: str, data: bytes) -> tuple[np.ndarray, np.ndarray]:
    lam, vec = np.linalg.eigh(np.frombuffer(data, dtype=dtype).reshape(shape))
    lam.setflags(write=False)
    vec.setflags(write=False)
    return lam, vec


def hermitian_eigh(system) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of a Hermitian matrix, read-only.

    The last few results are memoized on the matrix contents (shape, dtype
    and bytes), so circuits that share a system diagonalize it once. A real
    symmetric system has real eigenvectors; a complex one stays complex.
    """
    a = _check_hermitian(system)
    return _eigh_of(a.shape, a.dtype.str, a.tobytes())


def controlled_evolution(
    state: StateVector,
    clock: str,
    target: str,
    system: np.ndarray,
    t: float,
    controls=(),
) -> None:
    """Apply ``sum_tau |tau><tau| (x) exp(i * system * t * tau/T)`` (T clock states) in place.

    As defined, with ``system = V diag(lambda) V^H``: per clock value tau, one
    :func:`apply_gate` of ``V diag(exp(i * lambda * t * tau/T)) V^H`` on the
    target, controlled on the clock bits (most significant first) and ``controls``.
    """
    layout = state.layout
    _gate_positions(layout, [clock, target], controls)
    lam, vec = hermitian_eigh(system)
    if lam.shape[0] != 1 << layout.width(target):
        raise InputError(f"system dimension {lam.shape[0]} does not match register {target!r}")
    cw = layout.width(clock)
    for tau in range(1 << cw):
        bits = [(clock, j, (tau >> (cw - 1 - j)) & 1) for j in range(cw)]
        gate = (vec * np.exp(1j * lam * (t * tau / (1 << cw)))) @ vec.conj().T
        apply_gate(state, gate, target, [*bits, *controls])


def _blocks(state: StateVector, obs: Observable, bits: Sequence[int]) -> list[np.ndarray]:
    """The X axis's halves psi0, psi1 (or the one block without X) with the
    projectors, in layout order, pinned to read eigenvalue indices ``bits``."""
    if obs.layout is not state.layout and obs.layout != state.layout:
        raise InputError("observable layout does not match state layout")
    psi = state.amps.reshape(state.layout.dims())
    idx: list = [slice(None)] * psi.ndim
    bits, x_axis = iter(bits), None
    for axis, name in enumerate(state.layout.names):
        fac = obs.factors.get(name)
        if fac == "X":
            x_axis = axis
        elif fac is not None:
            idx[axis] = next(bits) ^ (fac == "P0")
    if x_axis is None:
        return [psi[tuple(idx)]]
    return [psi[tuple(idx[:x_axis] + [half] + idx[x_axis + 1:])] for half in (0, 1)]


def _re_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Re<a|b> off the real and imaginary views; ``np.vdot`` copies a strided slice."""
    ax = list(range(a.ndim))
    return float(np.einsum(a.real, ax, b.real, ax, []) + np.einsum(a.imag, ax, b.imag, ax, []))


def expectation(state: StateVector, obs: Observable) -> float:
    """Real expectation value ``<psi|M|psi>``, read off views of the amplitudes."""
    blocks = _blocks(state, obs, [1] * len(obs.factors))
    if len(blocks) == 1:
        return _re_inner(blocks[0], blocks[0])
    return 2.0 * _re_inner(*blocks)


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
    prob = _re_inner(block, block)
    if prob <= 1e-14 * float(np.vdot(state.amps, state.amps).real):
        raise ZeroProbabilityError(
            f"outcome {outcome} of register {register!r} has probability {prob:.3e}"
        )
    amps = np.zeros_like(state.amps)
    np.divide(block, math.sqrt(prob), out=amps.reshape(pre, 1 << w, post)[:, outcome, :])
    return prob, StateVector._adopt(layout, amps)


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
    product of the factor eigenvalues. One ``rng.choice`` draws from the
    outcome table (factor registers in layout order, eigenvalues ascending),
    so identical inputs give an identical outcome sequence.
    """
    if not 1 <= shots <= MAX_SHOTS:
        raise InputError(f"shots must be between 1 and {MAX_SHOTS}, got {shots}")
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    letters = [obs.factors[name] for name in state.layout.names if name in obs.factors]
    # X's eigenvalue index runs along the last table axis until it is moved into place
    probs = np.empty((2,) * len(letters))
    for bits in itertools.product((0, 1), repeat=len(letters) - letters.count("X")):
        blocks = _blocks(state, obs, bits)
        weight = sum(_re_inner(b, b) for b in blocks)
        if len(blocks) == 2:  # twice the probabilities of X = -1 and X = +1
            cross = 2.0 * _re_inner(*blocks)
            weight = (weight - cross, weight + cross)
        probs[bits] = weight
    if "X" in letters:
        probs = np.moveaxis(probs, -1, letters.index("X"))
    probs = np.maximum(probs.reshape(-1), 0.0)  # an X eigenstate can leave -1e-17
    values = functools.reduce(np.multiply.outer, [_EIGENVALUES[f] for f in letters], np.ones(1))
    picks = np.random.default_rng(seed).choice(values.size, size=shots, p=probs / probs.sum())
    return values.reshape(-1)[picks]
