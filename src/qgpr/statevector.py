"""Exact complex-amplitude simulation of multi-register quantum circuits.

A state lives on an ordered set of named registers; the first register holds
the most significant bits of the basis index, and within a register qubit 0
is the most significant bit. Circuit operations change ``state.amps`` in
place through the numpy kernels in :mod:`qgpr._accel` and return ``None``; a
caller that still needs the state before an operation takes ``state.copy()``.
:func:`project` (a measurement) returns a new state. Each operation resolves
its registers once (:func:`_operand`): the view with one axis per register
and its targets' axes. :func:`_register_view`, which makes every view, is the
one place that pins registers to values, controls and readout pins alike.

Supported operations: computational-basis initialization, controlled
application of arbitrary unitaries, a Hadamard layer on a register (Walsh
blocks H^(x)k of up to 4 qubits on its axis split into one axis per qubit,
the only operation that needs qubits), controlled reflections I - 2uu^H (a
rank-1 update), the quantum Fourier transform on a register (an FFT along the
register), clock-controlled Hamiltonian evolution as its definition (one
controlled gate per clock value: the reference for
:func:`qgpr.qla.solver_block`), projective measurement of a register, and the
readout of M = X on one one-qubit register times projectors that pin other
registers to values: its mean <M> and the weight w where every pin holds,
off views of the pinned amplitudes (no copy, no pass over the whole state);
its seeded shot counts of -1, 0, +1 are one multinomial draw over
(w -/+ <M>) / 2 and 1 - w. Operations name registers only: a gate's target
is a register name or a list of them (the QFT's is one name), and controls,
like pins, map register names to values. A system is checked (finite,
Hermitian) and diagonalized once per matrix content (memoized), however
many circuits use it. Real gates and the real
eigenbasis of a real symmetric system stay real, so the kernels apply them as
real products.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from . import _accel
from .exceptions import (InputError, ZeroProbabilityError, finite_array, finite_real, integer,
                         numeric_array)

SQRT2_INV = 1.0 / math.sqrt(2.0)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) * SQRT2_INV
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
# H^(x)k, k = 1..4: wider Walsh blocks measured slower at 18 to 22 qubits
_WALSH = [functools.reduce(np.kron, [HADAMARD] * k) for k in range(1, 5)]

DEFAULT_QUBIT_CAP = 22  # 2^22 complex amplitudes ~ 64 MiB
MAX_SHOTS = 1 << DEFAULT_QUBIT_CAP  # as many draws as the cap admits amplitudes

_UNITARY_TOL = 1e-10
_HERMITIAN_TOL = 1e-10


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered named qubit registers of at most ``DEFAULT_QUBIT_CAP`` qubits in all;
    ``names``, ``dims`` (2**width per register) and ``total_qubits`` are set once."""

    registers: tuple[tuple[str, int], ...]
    names: tuple[str, ...] = field(init=False, repr=False, compare=False)
    dims: tuple[int, ...] = field(init=False, repr=False, compare=False)
    total_qubits: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        regs = tuple([(str(n), integer(f"register {n!r} width", w, 1, DEFAULT_QUBIT_CAP))
                      for n, w in self.registers])
        names, total = [n for n, _ in regs], sum([w for _, w in regs])
        if len(set(names)) != len(names):
            raise InputError(f"duplicate register names in {names}")
        if total > DEFAULT_QUBIT_CAP:
            raise InputError(f"{total} qubits exceeds the cap of {DEFAULT_QUBIT_CAP}")
        for attr, value in (("registers", regs), ("names", tuple(names)), ("total_qubits", total),
                            ("dims", tuple([1 << w for _, w in regs]))):
            object.__setattr__(self, attr, value)

    def width(self, name: str) -> int:
        for n, w in self.registers:
            if n == name:
                return w
        raise InputError(f"no register named {name!r}")


@dataclass
class StateVector:
    """Amplitudes over a register layout. The norm is not checked: the circuit
    operations keep it, and :func:`sample_observable` assumes it is 1."""

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


# ---------------------------------------------------------------------------
# construction


def init_basis(layout: RegisterLayout, indices: Mapping[str, int] | None = None) -> StateVector:
    """Computational basis state with the given value per register (default 0)."""
    amps = np.zeros(1 << layout.total_qubits, dtype=np.complex128)
    rest = _register_view(layout, amps, indices)  # one axis per register not in ``indices``
    rest[(0,) * rest.ndim] = 1.0
    return StateVector._adopt(layout, amps)


def _pin_values(layout: RegisterLayout, pins: Mapping[str, int] | None) -> dict[str, int]:
    """``pins`` with each value checked against its register (``layout.width``
    raises for an unknown name)."""
    if pins is not None and not isinstance(pins, Mapping):
        raise InputError(f"controls and pins map register names to values, got {pins!r}")
    return {name: integer(f"register {name!r} value", val, 0, (1 << layout.width(name)) - 1)
            for name, val in (pins or {}).items()}


def _register_view(layout: RegisterLayout, amps: np.ndarray, values: Mapping[str, int] | None):
    """View of ``amps`` as the register tensor (one axis per register, in
    layout order) with each named register pinned to its value, its axis
    gone: the view every operation hands its kernel."""
    pinned = _pin_values(layout, values)
    idx = [pinned[name] if name in pinned else slice(None) for name in layout.names]
    return amps.reshape(layout.dims)[(*idx, ...)]  # the trailing ... keeps a 0-d result a view


def _operand(layout: RegisterLayout, amps: np.ndarray, target, controls):
    """``(view, axes)``: the register view that ``controls`` pin and the axes of
    ``target``, a register name or a non-empty list of them, there in order;
    no register may be both, or a target twice."""
    names = [target] if isinstance(target, str) else target
    if not isinstance(names, list) or not names or not all(isinstance(n, str) for n in names):
        raise InputError(f"a target is a register name or a non-empty list of them, got {target!r}")
    for name in names:
        layout.width(name)  # raises for an unknown name
    view = _register_view(layout, amps, controls)  # checks ``controls``, a mapping or None
    pinned = controls or {}
    if len(set(names)) != len(names):
        raise InputError("a target register is named twice")
    if pinned.keys() & names:
        raise InputError("target and control registers overlap")
    free = [name for name in layout.names if name not in pinned]
    return view, [free.index(name) for name in names]


# ---------------------------------------------------------------------------
# circuit operations


def apply_gate(state: StateVector, gate: np.ndarray, target, controls=None) -> None:
    """Apply a unitary to target registers in place, optionally controlled.

    ``target`` is a register name or a non-empty list of them, the gate's
    qubits in that order; ``controls`` maps register names to the values they
    must all hold, as :func:`readout`'s pins do.
    """
    view, axes = _operand(state.layout, state.amps, target, controls)
    # finite before the product (NaN compares False, inf - inf warns); a real gate stays real
    gate = finite_array("gate", gate, complex_ok=True)
    dim = math.prod([view.shape[axis] for axis in axes])
    if gate.shape != (dim, dim):
        raise InputError(f"gate shape {gate.shape} does not match dimension {dim}")
    if not np.abs(gate.conj().T @ gate - np.eye(dim)).max() <= _UNITARY_TOL:
        raise InputError("gate is not unitary")
    _accel.apply_matrix(view, gate, axes)


def hadamard_layer(state: StateVector, register: str, controls=None) -> None:
    """H on every qubit of a register in place, optionally controlled, as Walsh
    blocks H^(x)k of up to 4 qubits: one pass over the amplitudes per block.
    The register's axis is split into one axis per qubit, a reshape that is
    always a view."""
    view, axes = _operand(state.layout, state.amps, register, controls)
    for axis in axes:
        width = view.shape[axis].bit_length() - 1
        qubits = view.reshape(view.shape[:axis] + (2,) * width + view.shape[axis + 1 :])
        for j in range(0, width, len(_WALSH)):
            block = range(axis + j, axis + min(width, j + len(_WALSH)))
            _accel.apply_matrix(qubits, _WALSH[len(block) - 1], block)


def reflect(state: StateVector, u, target, controls=None) -> None:
    """Apply the reflection ``I - 2 u u^H`` to target registers in place, optionally controlled.

    ``target`` (a register name or a non-empty list of them) and ``controls``
    are as for :func:`apply_gate`. ``u`` must be a unit vector over the target
    qubits, which makes the reflection unitary.
    """
    view, axes = _operand(state.layout, state.amps, target, controls)
    u = numeric_array("reflection vector", u, complex_ok=True)  # its norm is checked below
    dim = math.prod([view.shape[axis] for axis in axes])
    if u.shape != (dim,):
        raise InputError(f"reflection vector shape {u.shape} does not match dimension {dim}")
    if not abs(np.linalg.norm(u) - 1.0) <= _UNITARY_TOL:  # also rejects NaN
        raise InputError("reflection vector is not a unit vector")
    _accel.reflect(view, u, axes)


def qft_matrix(width: int) -> np.ndarray:
    """Dense QFT on ``width`` qubits: |j> -> N^{-1/2} sum_k exp(2 pi i jk/N)|k>."""
    dim = 1 << width
    j = np.arange(dim)
    return np.exp(2j * np.pi * np.outer(j, j) / dim) / math.sqrt(dim)


def qft(state: StateVector, register: str, inverse: bool = False, controls=None) -> None:
    """Quantum Fourier transform (or its inverse) on one register in place, as an FFT.

    Forward: |j> -> T^{-1/2} sum_k exp(+2 pi i jk/T)|k> with T = 2**width; the
    inverse has exp(-2 pi i jk/T). Controls may not lie on ``register``.
    """
    if not isinstance(register, str):
        raise InputError(f"qft acts on one register, named by a string, got {register!r}")
    view, (axis,) = _operand(state.layout, state.amps, register, controls)
    _accel.fourier(view, axis, inverse)


@functools.lru_cache(maxsize=4)
def _eigh_of(shape: tuple[int, int], dtype: str, data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Checked and diagonalized once per content; an exception is not cached."""
    a = np.frombuffer(data, dtype=dtype).reshape(shape)
    if not np.isfinite(a).all():  # before the subtraction: inf - inf warns, and NaN compares False
        raise InputError("matrix has non-finite entries")
    if np.abs(a - a.conj().T).max() > _HERMITIAN_TOL * max(1.0, np.abs(a).max()):
        raise InputError("matrix is not Hermitian")
    lam, vec = np.linalg.eigh(a)
    lam.setflags(write=False)
    vec.setflags(write=False)
    return lam, vec


def hermitian_eigh(system) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of a Hermitian matrix, read-only.

    The last few results are memoized on the matrix contents (shape, dtype and
    bytes), so circuits that share a system check and diagonalize it once. A
    real symmetric system has real eigenvectors; a complex one stays complex.
    """
    a = numeric_array("matrix", system, complex_ok=True, square=True)  # _eigh_of reads the entries
    a = a.astype(np.result_type(a, float), copy=False)  # a real system stays real
    return _eigh_of(a.shape, a.dtype.str, a.tobytes())


def controlled_evolution(
    state: StateVector,
    clock: str,
    target: str,
    system: np.ndarray,
    t: float,
    controls=None,
) -> None:
    """Apply ``sum_tau |tau><tau| (x) exp(i * system * t * tau/T)`` (T clock states) in place.

    As defined, with ``system = V diag(lambda) V^H``: per clock value tau, one
    :func:`apply_gate` of ``V diag(exp(i * lambda * t * tau/T)) V^H`` on the
    target, controlled on ``controls`` and the clock holding tau.
    """
    layout = state.layout
    _operand(layout, state.amps, [clock, target], controls)  # checks only
    t = finite_real("t", t)
    lam, vec = hermitian_eigh(system)
    if lam.shape[0] != 1 << layout.width(target):
        raise InputError(f"system dimension {lam.shape[0]} does not match register {target!r}")
    big_t = 1 << layout.width(clock)
    for tau in range(big_t):
        gate = (vec * np.exp(1j * lam * (t * tau / big_t))) @ vec.conj().T
        apply_gate(state, gate, target, {**(controls or {}), clock: tau})


def _re_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Re<a|b> off the float64 views of the (re, im) pairs; ``np.vdot`` copies a strided slice."""
    ax = list(range(a.ndim + 1))  # and a last axis over each (re, im) pair
    return float(np.einsum(a[..., None].view(float), ax, b[..., None].view(float), ax, []))


def readout(state: StateVector, x: str | None,
            pins: Mapping[str, int] | None) -> tuple[float, float]:
    """``(<M>, w)`` of M = X_x (x) the projectors ``pins``, off views of the amplitudes.

    ``pins`` maps register names to the values their projectors read 1 on
    (``None`` for no pins, as for controls), and ``x`` names the one-qubit
    register that carries X (``None`` for no X). w = |psi[pins]|^2 is the
    weight where every pin holds, and with X <M> = 2 Re<psi0|psi1> over the
    halves psi_b = psi[pins, x = b] (without it, <M> = w). The pins are
    resolved once: the halves are the two slices of psi[pins] along X's axis.
    On a unit-norm state M reads -/+1 with probability (w -/+ <M>) / 2 and 0
    with 1 - w.
    """
    layout = state.layout
    block = _register_view(layout, state.amps, pins)  # checks ``pins``, a mapping or None
    pins = pins or {}
    if x is not None and (layout.width(x) != 1 or x in pins):
        raise InputError(f"X needs a one-qubit register outside the pins, got {x!r}")
    weight = _re_inner(block, block)
    if x is None:
        return weight, weight
    halves = np.moveaxis(block, [n for n in layout.names if n not in pins].index(x), 0)
    return 2.0 * _re_inner(halves[0, ...], halves[1, ...]), weight


def expectation(state: StateVector, x: str | None, pins: Mapping[str, int]) -> float:
    """Real expectation value ``<psi|M|psi>``: the mean of :func:`readout`."""
    return readout(state, x, pins)[0]


def project(state: StateVector, register: str, outcome: int) -> tuple[float, StateVector]:
    """Project a register onto a basis value; returns (probability, new state).

    The returned state is renormalized; outcomes whose probability is below
    1e-14 of the state's squared norm raise :class:`ZeroProbabilityError`.
    """
    layout = state.layout
    block = _register_view(layout, state.amps, {register: outcome})
    prob = _re_inner(block, block)
    if prob <= 1e-14 * float(np.vdot(state.amps, state.amps).real):
        raise ZeroProbabilityError(
            f"outcome {outcome} of register {register!r} has probability {prob:.3e}"
        )
    amps = np.zeros_like(state.amps)
    np.divide(block, math.sqrt(prob), out=_register_view(layout, amps, {register: outcome}))
    return prob, StateVector._adopt(layout, amps)


def register_component(state: StateVector, keep: str, fixed: Mapping[str, int]) -> np.ndarray:
    """Unnormalized amplitudes over ``keep`` with every other register pinned."""
    if keep not in state.layout.names or set(fixed) != set(state.layout.names) - {keep}:
        raise InputError(f"keep one register and fix the rest, got {keep!r} and {sorted(fixed)}")
    return _register_view(state.layout, state.amps, fixed).copy()


def sample_observable(state: StateVector, x: str | None, pins: Mapping[str, int],
                      shots: int, seed: int) -> np.ndarray:
    """Seeded counts of M's values (-1, 0, +1) over ``shots`` i.i.d. draws.

    M is as for :func:`readout`: X is measured in its eigenbasis and each pin
    in the computational basis, so a draw is nonzero only where every pin
    holds. The counts are one multinomial draw over the three value
    probabilities (w -/+ <M>) / 2 and 1 - w from :func:`readout`, so the
    cost does not depend on ``shots``, and identical inputs give identical
    counts. The state must be unit-norm, as every state the circuit
    operations build is: P(0) is not read off the amplitudes. A weight w
    above 1 is refused; a norm below 1 is still not detected.
    """
    check_shots(integer("shots", shots), seed)  # here None is no shot count, not exact mode
    mean, weight = readout(state, x, pins)
    if not weight <= 1.0 + 1e-12:  # also rejects NaN
        raise InputError(f"readout weight {weight!r} exceeds 1: the state is not unit-norm")
    # an X eigenstate can leave -1e-17 in w - <M>
    probs = np.maximum([(weight - mean) / 2.0, 1.0 - weight, (weight + mean) / 2.0], 0.0)
    return np.random.default_rng(seed).multinomial(shots, probs / probs.sum())


def check_shots(shots: int | None, seed: int) -> None:
    """Reject a seed that is not an integer >= 0 and, unless ``shots`` is None
    (exact mode), a shot count that is not an integer in 1..MAX_SHOTS."""
    if shots is not None:
        integer("shots", shots, 1, MAX_SHOTS)
    integer("seed", seed, 0)
