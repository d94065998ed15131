import tracemalloc
import warnings

import numpy as np
import pytest

from qgpr import statevector as sv
from qgpr.estimator import M, interference_layout
from qgpr.exceptions import InputError, ZeroProbabilityError
from qgpr.statevector import (
    HADAMARD,
    PAULI_X,
    RegisterLayout,
    StateVector,
    apply_gate,
    controlled_evolution,
    expectation,
    hadamard_layer,
    hermitian_eigh,
    init_basis,
    project,
    qft,
    qft_matrix,
    reflect,
    register_component,
    sample_observable,
)


def random_state(rng, layout):
    n = 1 << layout.total_qubits
    amps = rng.normal(size=n) + 1j * rng.normal(size=n)
    return StateVector(layout, amps / np.linalg.norm(amps))


def traced_peak(fn):
    """Peak bytes that tracemalloc sees while ``fn`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def plus_state():
    state = init_basis(RegisterLayout((("Q", 1),)))
    apply_gate(state, HADAMARD, "Q")
    return state


def random_unitary(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def dense_factors(layout, x, pins):
    """Dense one-register factors of M: X on ``x``, each pin's projector |v><v|."""
    factors = {name: np.diag(np.arange(1 << layout.width(name)) == val).astype(float)
               for name, val in pins.items()}
    if x is not None:
        factors[x] = PAULI_X
    return factors


def reference_sample(state, factors, shots, seed):
    """Sampler that measures each dense factor in the eigenbasis ``np.linalg.eigh`` gives.

    It rotates every factor register of a copy of the state into that basis,
    tabulates the outcome probabilities over the factor registers in layout
    order (eigenvalues ascending) and sums the table by value. Returns the
    probabilities of the values (-1, 0, +1) and one seeded multinomial draw
    of ``shots`` from them.
    """
    layout = state.layout
    psi = state.amps.reshape(layout.dims)
    eigvals, axes = [], []
    for axis, name in enumerate(layout.names):
        if name not in factors:
            continue
        vals, vecs = np.linalg.eigh(factors[name])
        psi = np.moveaxis(np.tensordot(vecs.conj().T, psi, axes=([1], [axis])), 0, axis)
        eigvals.append(vals)
        axes.append(axis)
    probs = np.abs(psi) ** 2
    probs = probs.sum(axis=tuple(i for i in range(psi.ndim) if i not in axes)).reshape(-1)
    values = np.ones(1)
    for vals in eigvals:
        values = np.multiply.outer(values, vals).reshape(-1)
    by_value = np.array([probs[values == v].sum() for v in (-1.0, 0.0, 1.0)])
    by_value = by_value / by_value.sum()
    return by_value, np.random.default_rng(seed).multinomial(shots, by_value)


def shot_values(counts):
    """The per-shot values (-1, 0, +1) that ``counts`` counts, in value order."""
    return np.repeat([-1.0, 0.0, 1.0], counts)


class TestLayout:
    def test_duplicate_names(self):
        with pytest.raises(InputError):
            RegisterLayout((("A", 1), ("A", 2)))

    def test_zero_width(self):
        with pytest.raises(InputError):
            RegisterLayout((("A", 0),))

    def test_qubit_cap(self):
        with pytest.raises(InputError):
            RegisterLayout((("A", 23),))

    @pytest.mark.parametrize("width", [2.7, 2.0, "2", True], ids=["fraction", "float", "str", "bool"])
    def test_width_must_be_an_integer(self, width):
        with pytest.raises(InputError, match="register 'A'"):
            RegisterLayout((("B", 1), ("A", width)))

    def test_numpy_integer_width(self):
        assert RegisterLayout((("A", np.int64(2)),)).registers == (("A", 2),)


class TestStateVector:
    def test_owns_its_amplitudes(self):
        a = np.array([1.0, 0.0], dtype=complex)
        apply_gate(StateVector(RegisterLayout((("Q", 1),)), a), HADAMARD, "Q")
        np.testing.assert_array_equal(a, [1.0, 0.0])

    def test_fresh_states_allocate_once(self, rng):
        # init_basis and project hand their new array to the state without a
        # second copy: at 20 qubits each allocates the state once
        layout = interference_layout(128, 10)
        state = random_state(rng, layout)
        for build in (lambda: init_basis(layout), lambda: project(state, "C", 1)):
            assert traced_peak(build) <= 1.05 * state.amps.nbytes


class TestInitBasis:
    def test_single_qubit_zero(self):
        state = init_basis(RegisterLayout((("Q", 1),)))
        np.testing.assert_array_equal(state.amps, [1.0, 0.0])

    def test_two_registers(self):
        lay = RegisterLayout((("A", 1), ("B", 2)))
        state = init_basis(lay, {"A": 1, "B": 2})
        expected = np.zeros(8)
        expected[6] = 1.0
        np.testing.assert_array_equal(state.amps, expected)

    def test_norm_is_one(self, rng):
        lay = RegisterLayout((("A", 2), ("B", 3)))
        for _ in range(5):
            idx = {"A": int(rng.integers(4)), "B": int(rng.integers(8))}
            assert init_basis(lay, idx).norm() == 1.0

    def test_index_overflow(self):
        with pytest.raises(InputError):
            init_basis(RegisterLayout((("A", 1),)), {"A": 2})

    @pytest.mark.parametrize("indices", [[("A", 1)], (("A", 1),), []],
                             ids=["list", "tuple", "empty"])
    def test_indices_must_be_a_mapping(self, indices):
        with pytest.raises(InputError, match="map register names to values"):
            init_basis(RegisterLayout((("A", 1),)), indices)


class TestApplyGate:
    def test_hadamard(self):
        np.testing.assert_allclose(plus_state().amps, [2**-0.5, 2**-0.5])

    def test_control_off_means_identity(self):
        lay = RegisterLayout((("A", 1), ("B", 1)))
        state = init_basis(lay)  # control A = 0
        apply_gate(state, PAULI_X, "B", {"A": 1})
        np.testing.assert_array_equal(state.amps, init_basis(lay).amps)

    def test_control_on_fires(self):
        lay = RegisterLayout((("A", 1), ("B", 1)))
        state = init_basis(lay, {"A": 1})
        apply_gate(state, PAULI_X, "B", {"A": 1})
        np.testing.assert_array_equal(state.amps, [0, 0, 0, 1])

    def test_random_unitary_preserves_norm(self, rng):
        lay = RegisterLayout((("A", 2), ("B", 2)))
        gate = random_unitary(rng, 4)
        for _ in range(100):
            state = random_state(rng, lay)
            apply_gate(state, gate, "B")
            assert abs(state.norm() - 1.0) <= 1e-12

    @pytest.mark.parametrize("controls", [{}, {"B": 2}])
    def test_targets_act_in_the_order_named(self, rng, controls):
        # on ["C", "A"] the gate reads C as its most significant qubit, though A
        # comes first in the layout: G[c'a', ca] against the (A, B, C) tensor
        lay = RegisterLayout(_ABC)
        state = random_state(rng, lay)
        gate = random_unitary(rng, 4)
        psi = state.amps.reshape(lay.dims)
        expected = np.einsum("pqrs,sbr->qbp", gate.reshape(2, 2, 2, 2), psi)
        if controls:
            kept = np.ones(4, dtype=bool)
            kept[controls["B"]] = False
            expected[:, kept] = psi[:, kept]
        apply_gate(state, gate, ["C", "A"], controls)
        np.testing.assert_allclose(state.amps, expected.ravel(), atol=1e-12)

    def test_non_unitary_rejected(self):
        state = init_basis(RegisterLayout((("Q", 1),)))
        with pytest.raises(InputError):
            apply_gate(state, np.array([[1.0, 0.0], [0.0, 2.0]]), "Q")

    def test_overlapping_target_and_control(self):
        state = init_basis(RegisterLayout((("Q", 2),)))
        with pytest.raises(InputError, match="overlap"):
            apply_gate(state, np.eye(4), "Q", {"Q": 1})

    @pytest.mark.parametrize("value", [1, 2])
    @pytest.mark.parametrize("control_first", [True, False], ids=["control-first", "target-first"])
    def test_two_qubit_control_matches_dense_controlled_gate(self, rng, value, control_first):
        # the values 1 and 2 differ in both bits, so a control read in the
        # wrong bit order fires on the other block
        gate = random_unitary(rng, 2)
        projector = np.diag(np.arange(4) == value).astype(float)
        parts = [(projector, gate), (np.eye(4) - projector, np.eye(2))]
        if control_first:
            registers = (("ctl", 2), ("t", 1))
            dense = sum(np.kron(p, g) for p, g in parts)
        else:
            registers = (("t", 1), ("ctl", 2))
            dense = sum(np.kron(g, p) for p, g in parts)
        state = random_state(rng, RegisterLayout(registers))
        expected = dense @ state.amps
        apply_gate(state, gate, "t", {"ctl": value})
        np.testing.assert_allclose(state.amps, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "gate, dtype",
        [
            (HADAMARD, np.float64),
            (np.array([[0, 1], [1, 0]]), np.float64),  # integers are real too
            (np.array([[1, 0], [0, 1j]]), np.complex128),
        ],
        ids=["real", "integer", "complex"],
    )
    def test_real_gate_stays_real(self, rng, monkeypatch, gate, dtype):
        lay = RegisterLayout((("A", 1), ("B0", 1), ("B1", 1)))  # B's qubits as one-qubit registers
        state = random_state(rng, lay)
        expected = np.kron(np.kron(np.eye(2), gate), np.eye(2)) @ state.amps
        seen = []
        original = sv._accel.apply_matrix

        def recorded(amps, mat, *args):
            seen.append(mat.dtype)
            original(amps, mat, *args)

        monkeypatch.setattr(sv._accel, "apply_matrix", recorded)
        apply_gate(state, gate, "B0")
        assert seen == [dtype]
        np.testing.assert_allclose(state.amps, expected, atol=1e-12)

    def test_non_unitary_complex_gate_rejected(self):
        state = init_basis(RegisterLayout((("Q", 1),)))
        with pytest.raises(InputError, match="not unitary"):
            apply_gate(state, np.array([[1, 0], [0, 2j]]), "Q")

    @pytest.mark.parametrize("gate", [np.full((2, 2), np.nan), [[1.0, 0.0], [0.0, np.inf]]],
                             ids=["all-nan", "one-inf"])
    def test_non_finite_gate_rejected(self, gate):
        # NaN compares False with the unitarity tolerance, so it was applied
        state = init_basis(RegisterLayout((("Q", 1),)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="non-finite"):
                apply_gate(state, gate, "Q")
        np.testing.assert_array_equal(state.amps, [1.0, 0.0])


_ABC = (("A", 1), ("B", 2), ("C", 1))
_SPLIT_B = (("A", 1), ("B0", 1), ("B1", 1), ("C", 1))  # B's qubits as one-qubit registers

# targets that are neither a register name nor a non-empty list of them: a
# (register, qubit) pair, a triple, an int, a list of an int, a nested list,
# an empty list and a tuple of names
_BAD_TARGETS = [("A", 0), ("A", 0, 1), 5, [3], [["A"]], [], ("A", "C")]
_BAD_TARGET_IDS = ["pair", "triple", "int", "list-of-int", "nested", "empty", "tuple-of-names"]


@pytest.mark.parametrize("target", _BAD_TARGETS, ids=_BAD_TARGET_IDS)
@pytest.mark.parametrize(
    "op",
    [
        lambda s, t: apply_gate(s, PAULI_X, t),
        lambda s, t: reflect(s, np.array([0.6, 0.8]), t),
        lambda s, t: hadamard_layer(s, t),
    ],
    ids=["apply_gate", "reflect", "hadamard_layer"],
)
def test_target_must_name_registers(rng, op, target):
    state = random_state(rng, RegisterLayout(_ABC))
    before = state.amps.copy()
    with pytest.raises(InputError, match="a target is a register name"):
        op(state, target)
    np.testing.assert_array_equal(state.amps, before)


class TestReflect:
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize(
        "registers, target, controls",
        [
            (_ABC, ["C", "B"], {}),  # targets out of order
            (_SPLIT_B, ["C", "A"], {"B1": 1}),  # control between the targets
            (_ABC, "B", {"A": 0}),  # control before the target
            (_ABC, ["B", "A"], {"C": 1}),  # control after the targets
            (_SPLIT_B, ["C", "B0"], {"A": 1, "B1": 0}),  # controls on both sides
        ],
    )
    def test_matches_dense_gate(self, rng, registers, target, controls, dtype):
        lay = RegisterLayout(registers)
        names = [target] if isinstance(target, str) else target
        dim = 1 << sum(lay.width(name) for name in names)
        u = rng.normal(size=dim).astype(dtype)
        if dtype is complex:
            u += 1j * rng.normal(size=dim)
        u /= np.linalg.norm(u)
        state = random_state(rng, lay)
        dense = state.copy()
        reflect(state, u, target, controls)
        apply_gate(dense, np.eye(dim) - 2.0 * np.outer(u, u.conj()), target, controls)
        np.testing.assert_allclose(state.amps, dense.amps, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "u, target, controls",
        [
            (np.array([1.0, 1.0]), "B0", {}),  # norm sqrt(2)
            (np.array([np.nan, 0.0]), "B0", {}),
            (np.array([1.0, 0.0, 0.0, 0.0]), "B0", {}),  # one qubit needs length 2
            (np.array([0.6, 0.8]), "B0", {"B0": 1}),
        ],
        ids=["not-unit", "nan", "shape-mismatch", "target-control-overlap"],
    )
    def test_rejects_bad_vector_or_positions(self, u, target, controls):
        state = init_basis(RegisterLayout((("A", 1), ("B0", 1), ("B1", 1))))
        with pytest.raises(InputError):
            reflect(state, u, target, controls)


class TestQft:
    def test_single_qubit_is_hadamard(self, rng):
        lay = RegisterLayout((("Q", 1),))
        state = random_state(rng, lay)
        dense = state.copy()
        qft(state, "Q")
        apply_gate(dense, HADAMARD, "Q")
        np.testing.assert_allclose(state.amps, dense.amps, atol=1e-12)

    def test_zero_state_goes_uniform(self):
        lay = RegisterLayout((("Q", 3),))
        state = init_basis(lay)
        qft(state, "Q")
        np.testing.assert_allclose(state.amps, np.full(8, 8**-0.5), atol=1e-12)

    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 6])
    def test_roundtrip_identity(self, rng, width):
        lay = RegisterLayout((("Q", width),))
        for _ in range(100):
            state = random_state(rng, lay)
            out = state.copy()
            qft(out, "Q")
            qft(out, "Q", inverse=True)
            assert np.abs(out.amps - state.amps).max() <= 1e-10

    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("inverse", [False, True])
    @pytest.mark.parametrize(
        "controls",
        [{}, {"A": 1}, {"A": 0, "B1": 1, "C": 1}],
        ids=["none", "before", "both-sides"],
    )
    def test_matches_dense_reference(self, rng, width, inverse, controls):
        # B's qubits are one-qubit registers, so a control can take one of them
        lay = RegisterLayout((("A", 1), ("E", width), ("B0", 1), ("B1", 1), ("C", 1)))
        mat = qft_matrix(width)
        if inverse:
            mat = mat.conj().T
        state = random_state(rng, lay)
        dense = state.copy()
        qft(state, "E", inverse, controls)
        apply_gate(dense, mat, "E", controls)
        np.testing.assert_allclose(state.amps, dense.amps, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "register, controls",
        [("E", {"E": 1}), ("E", {"A": 2}), ("F", {})],
        ids=["control-on-register", "bad-control-value", "unknown-register"],
    )
    def test_rejects_bad_target_or_controls(self, register, controls):
        lay = RegisterLayout((("A", 1), ("E", 3)))
        with pytest.raises(InputError):
            qft(init_basis(lay), register, controls=controls)

    @pytest.mark.parametrize(
        "register",
        [["A", "C"], ["C", "A"], [("B", 1), ("B", 0)], ("B", 0), ["B"]],
        ids=["two-registers", "reversed-registers", "reversed-qubits", "pair", "list-of-one"],
    )
    def test_acts_on_one_register_name(self, rng, register):
        # a QFT over several registers, or qubits out of order, is not the
        # dense QFT on the qubits it names: qft takes exactly one name
        state = random_state(rng, RegisterLayout(_ABC))
        before = state.amps.copy()
        with pytest.raises(InputError, match="qft acts on one register"):
            qft(state, register)
        np.testing.assert_array_equal(state.amps, before)


class TestControlledEvolution:
    def test_clock_zero_leaves_target_alone(self, rng):
        lay = RegisterLayout((("clock", 3), ("t", 1)))
        amps = np.zeros(16, dtype=complex)
        amps[0], amps[1] = 0.6, 0.8j  # clock |0>, target superposed
        state = StateVector(lay, amps.copy())
        a = rng.normal(size=(2, 2))
        controlled_evolution(state, "clock", "t", a + a.T, 1.7)
        np.testing.assert_allclose(state.amps, amps, atol=1e-12)

    def test_per_branch_phase_oracle(self, rng):
        # diagonal system: every (clock tau, basis i) amplitude gains
        # exp(i * lam_i * t * tau / T); checked amplitude by amplitude
        lam = np.array([0.5, 1.5, -0.7, 2.2])
        t = 0.9
        lay = RegisterLayout((("clock", 2), ("t", 2)))
        state = random_state(rng, lay)
        expected = state.amps.copy()
        controlled_evolution(state, "clock", "t", np.diag(lam), t)
        for idx in range(16):
            tau, i = idx >> 2, idx & 3
            expected[idx] *= np.exp(1j * lam[i] * t * tau / 4)
        np.testing.assert_allclose(state.amps, expected, atol=1e-12)

    def test_norm_preserved(self, rng):
        lay = RegisterLayout((("clock", 3), ("t", 2)))
        a = rng.normal(size=(4, 4))
        for _ in range(10):
            state = random_state(rng, lay)
            controlled_evolution(state, "clock", "t", a + a.T, 2.2)
            assert abs(state.norm() - 1.0) <= 1e-12

    def test_dimension_mismatch(self, rng):
        lay = RegisterLayout((("clock", 2), ("t", 2)))
        state = init_basis(lay)
        with pytest.raises(InputError):
            controlled_evolution(state, "clock", "t", np.eye(3), 1.0)

    def test_non_hermitian_rejected(self):
        state = init_basis(RegisterLayout((("clock", 2), ("t", 1))))
        with pytest.raises(InputError):
            controlled_evolution(state, "clock", "t", np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)

    def test_memo_tells_systems_of_one_shape_apart(self, rng):
        # a second system of the same shape, and the first one changed in
        # place, must each be diagonalized afresh
        lay = RegisterLayout((("clock", 2), ("t", 1)))
        state = random_state(rng, lay)
        a = rng.normal(size=(2, 2))
        a = a + a.T
        controlled_evolution(state.copy(), "clock", "t", a, 0.9)
        lam = np.array([0.5, -1.5])
        expected = state.amps.copy()
        for idx in range(8):
            expected[idx] *= np.exp(1j * lam[idx & 1] * 0.9 * (idx >> 1) / 4)
        out = state.copy()
        controlled_evolution(out, "clock", "t", np.diag(lam), 0.9)
        np.testing.assert_allclose(out.amps, expected, atol=1e-12)
        a[...] = np.diag(lam)
        out = state.copy()
        controlled_evolution(out, "clock", "t", a, 0.9)
        np.testing.assert_allclose(out.amps, expected, atol=1e-12)

    def test_eigendecomposition_is_read_only(self):
        lam, vec = hermitian_eigh(np.diag([2.0, 1.0]))
        np.testing.assert_array_equal(lam, [1.0, 2.0])
        assert not lam.flags.writeable and not vec.flags.writeable

    def test_real_system_keeps_a_real_eigenbasis(self, rng):
        a = rng.normal(size=(4, 4))
        a = a + a.T
        h = a + 1j * np.triu(a, 1) - 1j * np.triu(a, 1).T
        assert hermitian_eigh(a)[1].dtype == np.float64
        assert hermitian_eigh(a.astype(np.float32))[1].dtype == np.float64
        lam, vec = hermitian_eigh(h)
        assert vec.dtype == np.complex128
        np.testing.assert_allclose(vec @ np.diag(lam) @ vec.conj().T, h, atol=1e-12)

    def test_non_hermitian_matrix_raises_on_every_call(self):
        # the check runs inside the memo, which caches results, not exceptions
        a = np.array([[1.0, 2.0], [0.0, 1.0]])
        sv._eigh_of.cache_clear()
        for _ in range(2):
            with pytest.raises(InputError, match="not Hermitian"):
                hermitian_eigh(a)
        assert sv._eigh_of.cache_info().currsize == 0

    def test_memo_tells_a_matrix_and_its_complex_cast_apart(self, rng):
        a = rng.normal(size=(4, 4))
        a = a + a.T
        sv._eigh_of.cache_clear()
        lam, vec = hermitian_eigh(a)
        lam_c, vec_c = hermitian_eigh(a.astype(complex))
        assert sv._eigh_of.cache_info().misses == 2
        assert vec.dtype == np.float64 and vec_c.dtype == np.complex128
        np.testing.assert_allclose(lam, lam_c, atol=1e-12)


class TestExpectation:
    def test_x_on_plus(self):
        state = plus_state()
        assert expectation(state, "Q", {}) == pytest.approx(1.0, abs=1e-12)

    def test_projector_on_zero(self):
        state = init_basis(RegisterLayout((("Q", 1),)))
        assert expectation(state, None, {"Q": 1}) == pytest.approx(0.0, abs=1e-12)

    def test_matches_dense_oracle(self, rng):
        lay = RegisterLayout((("A", 1), ("B", 2), ("C", 1)))
        dense = np.kron(np.kron(np.array([[0, 1], [1, 0]]), np.eye(4)), np.diag([0.0, 1.0]))
        for _ in range(20):
            state = random_state(rng, lay)
            oracle = np.vdot(state.amps, dense @ state.amps).real
            assert expectation(state, "A", {"C": 1}) == pytest.approx(oracle, abs=1e-10)

    @pytest.mark.parametrize("x", [None, "A"], ids=["projector", "x-and-projector"])
    @pytest.mark.parametrize("value", range(4))
    def test_two_qubit_pin_matches_dense_projector(self, rng, x, value):
        lay = RegisterLayout((("A", 1), ("B", 2), ("C", 1)))
        projector = np.diag(np.arange(4) == value).astype(float)
        first = PAULI_X if x else np.eye(2)
        dense = np.kron(np.kron(first, projector), np.eye(2))
        for _ in range(20):
            state = random_state(rng, lay)
            oracle = np.vdot(state.amps, dense @ state.amps).real
            assert expectation(state, x, {"B": value}) == pytest.approx(oracle, abs=1e-10)


class TestObservable:
    @pytest.mark.parametrize(
        "x, pins",
        [("Q", {"Q": 1}), ("R", {}), (None, {"Z": 0}), ("Z", {}), (None, {"R": 4}),
         (None, {"Q": -1})],
        ids=["x-among-pins", "x-on-two-qubits", "unknown-pin", "unknown-x", "pin-overflows",
             "negative-pin"],
    )
    def test_readout_refuses(self, x, pins):
        state = init_basis(RegisterLayout((("Q", 1), ("R", 2), ("S", 1))))
        with pytest.raises(InputError):
            sv.readout(state, x, pins)

    def test_readout_reads_views(self, rng):
        # at 20 qubits each readout allocates less than the state and leaves
        # it unchanged: no full-state copy and no basis change
        layout = interference_layout(128, 10)
        state = random_state(rng, layout)
        before = state.amps.copy()
        readouts = [
            lambda: expectation(state, *M),
            lambda: expectation(state, None, {"C": 1, "D": 1}),
            lambda: sample_observable(state, *M, 1000, seed=0),
            lambda: sample_observable(state, *M, sv.MAX_SHOTS, seed=0),
        ]
        for readout in readouts:
            assert traced_peak(readout) <= 0.01 * state.amps.nbytes
            np.testing.assert_array_equal(state.amps, before)


# controls or pins no gate or readout may take on the layout (T: 1, C: 2): a
# value that is not an integer, a bool, one that C cannot hold, a register the
# layout lacks, T, which the gate targets and the readout reads X on, and
# (register, value) pairs in a list or a tuple rather than a mapping
_BAD_REGISTER_VALUES = [{"C": 0.5}, {"C": True}, {"C": 1.0}, {"C": 4}, {"C": -1}, {"Z": 0},
                        {"T": 1}, [("C", 1)], (("C", 1),)]
_BAD_REGISTER_VALUE_IDS = ["half", "bool", "float", "overflow", "negative", "unknown-register",
                           "pinned-and-targeted", "list", "tuple"]


class TestRegisterValues:
    """Controls and pins name register values alike, and are checked alike."""

    @pytest.mark.parametrize("values", _BAD_REGISTER_VALUES, ids=_BAD_REGISTER_VALUE_IDS)
    def test_control_refuses(self, values):
        state = init_basis(RegisterLayout((("T", 1), ("C", 2))), {"C": 1})
        with pytest.raises(InputError):
            apply_gate(state, PAULI_X, "T", values)
        np.testing.assert_array_equal(state.amps, init_basis(state.layout, {"C": 1}).amps)

    @pytest.mark.parametrize("values", _BAD_REGISTER_VALUES, ids=_BAD_REGISTER_VALUE_IDS)
    def test_pin_refuses(self, values):
        state = init_basis(RegisterLayout((("T", 1), ("C", 2))), {"C": 1})
        with pytest.raises(InputError):
            sv.readout(state, "T", values)


class TestHadamardLayer:
    @pytest.mark.parametrize("width", range(1, 10))
    @pytest.mark.parametrize("controls", [{}, {"L": 1}, {"L": 0, "R1": 1}])
    def test_matches_per_qubit_hadamards(self, rng, width, controls):
        # Walsh blocks of up to 4 qubits: widths above 4 take two or three blocks;
        # R's qubits are one-qubit registers, so a control can take one of them
        layout = RegisterLayout((("L", 1), ("K", width), ("R0", 1), ("R1", 1)))
        state = random_state(rng, layout)
        # the reference names K's qubits as one-qubit registers K0, K1, ...
        split = [("L", 1), *((f"K{j}", 1) for j in range(width)), ("R0", 1), ("R1", 1)]
        reference = StateVector(RegisterLayout(tuple(split)), state.amps)
        hadamard_layer(state, "K", controls)
        for j in range(width):
            apply_gate(reference, HADAMARD, f"K{j}", controls)
        np.testing.assert_allclose(state.amps, reference.amps, atol=1e-13)

    def test_control_on_register_leaves_state_unchanged(self, rng):
        state = random_state(rng, RegisterLayout((("K", 5),)))
        before = state.amps.copy()
        with pytest.raises(InputError):
            hadamard_layer(state, "K", {"K": 1})
        np.testing.assert_array_equal(state.amps, before)


class TestProject:
    def test_plus_state(self):
        prob, out = project(plus_state(), "Q", 1)
        assert prob == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(out.amps, [0.0, 1.0], atol=1e-12)

    def test_basis_state_onto_itself(self):
        lay = RegisterLayout((("A", 2),))
        prob, out = project(init_basis(lay, {"A": 3}), "A", 3)
        assert prob == pytest.approx(1.0)
        np.testing.assert_allclose(out.amps, init_basis(lay, {"A": 3}).amps)

    def test_completeness(self, rng):
        lay = RegisterLayout((("A", 2), ("B", 2)))
        for _ in range(10):
            state = random_state(rng, lay)
            total = 0.0
            for outcome in range(4):
                try:
                    prob, _ = project(state, "A", outcome)
                except ZeroProbabilityError:
                    prob = 0.0
                total += prob
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_threshold_is_relative_to_the_norm(self):
        # half the weight of a state with squared norm 1e-16 is not zero
        plus = plus_state()
        prob, out = project(StateVector(plus.layout, plus.amps * 1e-8), "Q", 1)
        assert prob == pytest.approx(5e-17, rel=1e-12)
        np.testing.assert_allclose(out.amps, [0.0, 1.0], atol=1e-12)

    def test_zero_probability(self):
        lay = RegisterLayout((("A", 1),))
        with pytest.raises(ZeroProbabilityError):
            project(init_basis(lay, {"A": 0}), "A", 1)


class TestRegisterComponent:
    def test_extracts_pinned_slice(self):
        lay = RegisterLayout((("A", 1), ("B", 2)))
        state = init_basis(lay, {"A": 1, "B": 2})
        comp = register_component(state, "B", {"A": 1})
        np.testing.assert_array_equal(comp, [0, 0, 1, 0])

    def test_missing_register(self):
        # one register missing, a kept register not in the layout, the kept one also fixed
        lay = RegisterLayout((("A", 1), ("B", 1), ("C", 1)))
        for keep, fixed in (("A", {"B": 0}), ("Z", {"A": 0, "B": 0, "C": 0}),
                            ("A", {"A": 0, "B": 0, "C": 0})):
            with pytest.raises(InputError):
                register_component(init_basis(lay), keep, fixed)


class TestSampleObservable:
    def test_eigenstate_gives_constant_outcomes(self):
        state = init_basis(RegisterLayout((("Q", 1),)), {"Q": 1})
        np.testing.assert_array_equal(sample_observable(state, None, {"Q": 1}, 200, seed=3),
                                      [0, 0, 200])

    def test_plus_state_x_always_one(self):
        state = plus_state()
        np.testing.assert_array_equal(sample_observable(state, "Q", {}, 500, seed=0), [0, 0, 500])

    def test_determinism(self, rng):
        lay = RegisterLayout((("A", 1), ("B", 2)))
        state = random_state(rng, lay)
        a = sample_observable(state, "A", {}, 1000, seed=42)
        b = sample_observable(state, "A", {}, 1000, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_mean_tracks_expectation(self, rng):
        # 4-sigma band should hold for ~all seeds; allow 1 failure in 100
        lay = RegisterLayout((("A", 1), ("C", 1), ("D", 1)))
        state = random_state(rng, lay)
        target = expectation(state, "A", {"C": 1, "D": 1})
        shots = 100_000
        failures = 0
        for seed in range(100):
            outcomes = shot_values(sample_observable(state, "A", {"C": 1, "D": 1}, shots, seed=seed))
            assert outcomes.shape == (shots,)
            band = 4.0 * outcomes.std(ddof=1) / np.sqrt(shots)
            if abs(outcomes.mean() - target) > max(band, 1e-12):
                failures += 1
        assert failures <= 1

    @pytest.mark.parametrize(
        "x, pins",
        [
            ("A", {}),
            (None, {"C": 0}),
            (None, {"D": 1}),
            ("A", {"D": 1}),
            ("A", {"F": 0}),
            ("A", {"C": 1, "D": 1}),
        ],
        ids=["X", "P0", "P1", "X-P1", "P0-before-X", "M"],
    )
    def test_matches_eigenbasis_reference(self, rng, x, pins):
        # the X register is never the first, so its halves are strided views
        lay = RegisterLayout((("B", 2), ("F", 1), ("A", 1), ("C", 1), ("D", 1), ("E", 2)))
        factors = dense_factors(lay, x, pins)
        for seed in range(4):
            state = random_state(rng, lay)
            probs, counts = reference_sample(state, factors, 2000, seed)
            mean, weight = sv.readout(state, x, pins)
            got = [(weight - mean) / 2.0, 1.0 - weight, (weight + mean) / 2.0]
            np.testing.assert_allclose(got, probs, rtol=0, atol=1e-12)
            np.testing.assert_array_equal(sample_observable(state, x, pins, 2000, seed=seed),
                                          counts)

    def test_x_eigenstate_up_to_rounding(self, rng):
        # |psi0|^2 + |psi1|^2 - 2 Re<psi0|psi1> rounds below 0 for some of these
        lay = RegisterLayout((("B", 3), ("A", 1)))
        for _ in range(20):
            b = rng.normal(size=8) + 1j * rng.normal(size=8)
            amps = np.kron(b / np.linalg.norm(b), [1.0, np.exp(1e-9j)]) / np.sqrt(2.0)
            counts = sample_observable(StateVector(lay, amps), "A", {}, 100, seed=0)
            np.testing.assert_array_equal(counts, [0, 0, 100])

    def test_negative_seed(self):
        state = plus_state()
        with pytest.raises(InputError):
            sample_observable(state, "Q", {}, 10, seed=-1)

    @pytest.mark.parametrize("x, pins", [("Q", {}), (None, {"Q": 1})], ids=["X", "P1"])
    def test_weight_above_one_rejected(self, x, pins):
        # 2|+> has weight 4: its shots all read +1 instead of an error
        state = StateVector(RegisterLayout((("Q", 1),)), 2.0 * plus_state().amps)
        with pytest.raises(InputError, match="weight .* exceeds 1"):
            sample_observable(state, x, pins, 10, seed=0)

    def test_shots_validation(self):
        state = init_basis(RegisterLayout((("Q", 1),)))
        for shots in (0, sv.MAX_SHOTS + 1, 2.5, True, 1000.0, None):  # None: not exact mode
            with pytest.raises(InputError, match="shots"):
                sample_observable(state, "Q", {}, shots, seed=0)
        for seed in (1.5, True):
            with pytest.raises(InputError, match="seed"):
                sample_observable(state, "Q", {}, 10, seed=seed)


class TestUnitarityInvariant:
    def test_operations_preserve_norm(self, rng):
        lay = RegisterLayout((("A", 1), ("B", 2), ("E", 3)))
        a = rng.normal(size=(4, 4))
        state = random_state(rng, lay)
        apply_gate(state, HADAMARD, "A")
        controlled_evolution(state, "E", "B", a + a.T, 1.1, controls={"A": 1})
        qft(state, "E", inverse=True)
        assert abs(state.norm() - 1.0) <= 1e-10
