import tracemalloc

import numpy as np
import pytest

from qgpr import statevector as sv
from qgpr.estimator import interference_layout, observable_M
from qgpr.exceptions import InputError, ZeroProbabilityError
from qgpr.statevector import (
    HADAMARD,
    PAULI_X,
    Observable,
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
    apply_gate(state, HADAMARD, ("Q", 0))
    return state


def random_unitary(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# dense matrices of the named observable factors, for the reference sampler
DENSE_FACTORS = {
    "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "P0": np.diag([1.0, 0.0]),
    "P1": np.diag([0.0, 1.0]),
}


def reference_sample(state, factors, shots, seed):
    """Sampler that measures each factor in the eigenbasis ``np.linalg.eigh`` gives.

    It rotates every factor register of a copy of the state into that basis,
    tabulates the outcome probabilities over the factor registers in layout
    order (eigenvalues ascending) and draws once from the table.
    """
    layout = state.layout
    psi = state.amps.reshape(layout.dims())
    eigvals, axes = [], []
    for axis, name in enumerate(layout.names):
        if name not in factors:
            continue
        vals, vecs = np.linalg.eigh(DENSE_FACTORS[factors[name]])
        psi = np.moveaxis(np.tensordot(vecs.conj().T, psi, axes=([1], [axis])), 0, axis)
        eigvals.append(vals)
        axes.append(axis)
    probs = np.abs(psi) ** 2
    probs = probs.sum(axis=tuple(i for i in range(psi.ndim) if i not in axes)).reshape(-1)
    probs = probs / probs.sum()
    values = np.ones(1)
    for vals in eigvals:
        values = np.multiply.outer(values, vals).reshape(-1)
    picks = np.random.default_rng(seed).choice(values.shape[0], size=shots, p=probs)
    return values[picks]


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

    def test_value_extraction(self):
        lay = RegisterLayout((("A", 1), ("B", 2)))
        # basis |1>|10> has index 1*4 + 2 = 6
        assert lay.value(6, "A") == 1
        assert lay.value(6, "B") == 2


class TestStateVector:
    def test_owns_its_amplitudes(self):
        a = np.array([1.0, 0.0], dtype=complex)
        apply_gate(StateVector(RegisterLayout((("Q", 1),)), a), HADAMARD, ("Q", 0))
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


class TestApplyGate:
    def test_hadamard(self):
        np.testing.assert_allclose(plus_state().amps, [2**-0.5, 2**-0.5])

    def test_control_off_means_identity(self):
        lay = RegisterLayout((("A", 1), ("B", 1)))
        state = init_basis(lay)  # control A = 0
        apply_gate(state, PAULI_X, ("B", 0), [("A", 0, 1)])
        np.testing.assert_array_equal(state.amps, init_basis(lay).amps)

    def test_control_on_fires(self):
        lay = RegisterLayout((("A", 1), ("B", 1)))
        state = init_basis(lay, {"A": 1})
        apply_gate(state, PAULI_X, ("B", 0), [("A", 0, 1)])
        np.testing.assert_array_equal(state.amps, [0, 0, 0, 1])

    def test_random_unitary_preserves_norm(self, rng):
        lay = RegisterLayout((("A", 2), ("B", 2)))
        gate = random_unitary(rng, 4)
        for _ in range(100):
            state = random_state(rng, lay)
            apply_gate(state, gate, "B")
            assert abs(state.norm() - 1.0) <= 1e-12

    def test_non_unitary_rejected(self):
        state = init_basis(RegisterLayout((("Q", 1),)))
        with pytest.raises(InputError):
            apply_gate(state, np.array([[1.0, 0.0], [0.0, 2.0]]), ("Q", 0))

    def test_overlapping_target_and_control(self):
        state = init_basis(RegisterLayout((("Q", 2),)))
        with pytest.raises(InputError):
            apply_gate(state, PAULI_X, ("Q", 0), [("Q", 0, 1)])

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
        lay = RegisterLayout((("A", 1), ("B", 2)))
        state = random_state(rng, lay)
        expected = np.kron(np.kron(np.eye(2), gate), np.eye(2)) @ state.amps
        seen = []
        original = sv._accel.apply_matrix

        def recorded(amps, mat, *args):
            seen.append(mat.dtype)
            original(amps, mat, *args)

        monkeypatch.setattr(sv._accel, "apply_matrix", recorded)
        apply_gate(state, gate, ("B", 0))
        assert seen == [dtype]
        np.testing.assert_allclose(state.amps, expected, atol=1e-12)

    def test_non_unitary_complex_gate_rejected(self):
        state = init_basis(RegisterLayout((("Q", 1),)))
        with pytest.raises(InputError, match="not unitary"):
            apply_gate(state, np.array([[1, 0], [0, 2j]]), ("Q", 0))


class TestReflect:
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize(
        "target, controls",
        [
            (["C", "B"], ()),  # targets out of order
            (["C", ("A", 0)], [("B", 1, 1)]),  # control between the targets
            ("B", [("A", 0, 0)]),  # control before the target
            (["B", "A"], [("C", 0, 1)]),  # control after the targets
            ([("C", 0), ("B", 0)], [("A", 0, 1), ("B", 1, 0)]),  # controls on both sides
        ],
    )
    def test_matches_dense_gate(self, rng, target, controls, dtype):
        lay = RegisterLayout((("A", 1), ("B", 2), ("C", 1)))
        dim = 1 << len(sv._target_positions(lay, target))
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
            (np.array([1.0, 1.0]), ("B", 0), ()),  # norm sqrt(2)
            (np.array([np.nan, 0.0]), ("B", 0), ()),
            (np.array([1.0, 0.0, 0.0, 0.0]), ("B", 0), ()),  # one qubit needs length 2
            (np.array([0.6, 0.8]), ("B", 0), [("B", 0, 1)]),
        ],
        ids=["not-unit", "nan", "shape-mismatch", "target-control-overlap"],
    )
    def test_rejects_bad_vector_or_positions(self, u, target, controls):
        state = init_basis(RegisterLayout((("A", 1), ("B", 2))))
        with pytest.raises(InputError):
            reflect(state, u, target, controls)


class TestQft:
    def test_single_qubit_is_hadamard(self, rng):
        lay = RegisterLayout((("Q", 1),))
        state = random_state(rng, lay)
        dense = state.copy()
        qft(state, "Q")
        apply_gate(dense, HADAMARD, ("Q", 0))
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
        [(), (("A", 0, 1),), (("A", 0, 0), ("B", 1, 1), ("C", 0, 1))],
        ids=["none", "before", "both-sides"],
    )
    def test_matches_dense_reference(self, rng, width, inverse, controls):
        lay = RegisterLayout((("A", 1), ("E", width), ("B", 2), ("C", 1)))
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
        [("E", [("E", 1, 1)]), ("E", [("A", 0, 2)]), ("F", [])],
        ids=["control-on-register", "bad-control-value", "unknown-register"],
    )
    def test_rejects_bad_target_or_controls(self, register, controls):
        lay = RegisterLayout((("A", 1), ("E", 3)))
        with pytest.raises(InputError):
            qft(init_basis(lay), register, controls=controls)


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
        obs = Observable(state.layout, {"Q": "X"})
        assert expectation(state, obs) == pytest.approx(1.0, abs=1e-12)

    def test_projector_on_zero(self):
        state = init_basis(RegisterLayout((("Q", 1),)))
        obs = Observable(state.layout, {"Q": "P1"})
        assert expectation(state, obs) == pytest.approx(0.0, abs=1e-12)

    def test_matches_dense_oracle(self, rng):
        lay = RegisterLayout((("A", 1), ("B", 2), ("C", 1)))
        obs = Observable(lay, {"A": "X", "C": "P1"})
        dense = np.kron(np.kron(np.array([[0, 1], [1, 0]]), np.eye(4)), np.diag([0.0, 1.0]))
        for _ in range(20):
            state = random_state(rng, lay)
            oracle = np.vdot(state.amps, dense @ state.amps).real
            assert expectation(state, obs) == pytest.approx(oracle, abs=1e-10)

    def test_non_hermitian_factor_rejected(self):
        lay = RegisterLayout((("Q", 1),))
        with pytest.raises(InputError):
            Observable(lay, {"Q": np.array([[0.0, 1.0], [0.0, 0.0]])})


class TestObservable:
    @pytest.mark.parametrize(
        "factors",
        [
            {"Q": PAULI_X},  # Hermitian, but a matrix
            {"R": "X"},  # two-qubit register
            {"Q": "X", "S": "X"},
            {"Q": "Z"},
            {"Q": 1},
        ],
        ids=["matrix", "x-on-two-qubits", "two-x", "unknown-letter", "not-a-string"],
    )
    def test_rejects_unsupported_factor(self, factors):
        lay = RegisterLayout((("Q", 1), ("R", 2), ("S", 1)))
        with pytest.raises(InputError):
            Observable(lay, factors)

    def test_identity_factor_is_dropped(self):
        lay = RegisterLayout((("Q", 1), ("R", 2)))
        assert Observable(lay, {"Q": "P1", "R": "I"}).factors == {"Q": "P1"}

    def test_readout_reads_views(self, rng):
        # at 20 qubits each readout allocates less than the state and leaves
        # it unchanged: no full-state copy and no basis change
        layout = interference_layout(128, 10)
        state = random_state(rng, layout)
        before = state.amps.copy()
        readouts = [
            lambda: expectation(state, observable_M(layout)),
            lambda: expectation(state, Observable(layout, {"C": "P1", "D": "P1"})),
            lambda: sample_observable(state, observable_M(layout), 1000, seed=0),
        ]
        for readout in readouts:
            assert traced_peak(readout) <= 0.01 * state.amps.nbytes
            np.testing.assert_array_equal(state.amps, before)


class TestHadamardLayer:
    @pytest.mark.parametrize("width", range(1, 10))
    @pytest.mark.parametrize("controls", [(), (("L", 0, 1),), (("L", 0, 0), ("R", 1, 1))])
    def test_matches_per_qubit_hadamards(self, rng, width, controls):
        # Walsh blocks of up to 4 qubits: widths above 4 take two or three blocks
        layout = RegisterLayout((("L", 1), ("K", width), ("R", 2)))
        state = random_state(rng, layout)
        reference = state.copy()
        hadamard_layer(state, "K", controls)
        for j in range(width):
            apply_gate(reference, HADAMARD, ("K", j), controls)
        np.testing.assert_allclose(state.amps, reference.amps, atol=1e-13)

    def test_control_on_register_leaves_state_unchanged(self, rng):
        state = random_state(rng, RegisterLayout((("K", 5),)))
        before = state.amps.copy()
        with pytest.raises(InputError):
            hadamard_layer(state, "K", [("K", 4, 1)])
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
        lay = RegisterLayout((("A", 1), ("B", 1), ("C", 1)))
        with pytest.raises(InputError):
            register_component(init_basis(lay), "A", {"B": 0})


class TestSampleObservable:
    def test_eigenstate_gives_constant_outcomes(self):
        state = init_basis(RegisterLayout((("Q", 1),)), {"Q": 1})
        obs = Observable(state.layout, {"Q": "P1"})
        outcomes = sample_observable(state, obs, 200, seed=3)
        np.testing.assert_array_equal(outcomes, np.ones(200))

    def test_plus_state_x_always_one(self):
        state = plus_state()
        obs = Observable(state.layout, {"Q": "X"})
        outcomes = sample_observable(state, obs, 500, seed=0)
        np.testing.assert_array_equal(outcomes, np.ones(500))

    def test_determinism(self, rng):
        lay = RegisterLayout((("A", 1), ("B", 2)))
        state = random_state(rng, lay)
        obs = Observable(lay, {"A": "X"})
        a = sample_observable(state, obs, 1000, seed=42)
        b = sample_observable(state, obs, 1000, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_mean_tracks_expectation(self, rng):
        # 4-sigma band should hold for ~all seeds; allow 1 failure in 100
        lay = RegisterLayout((("A", 1), ("C", 1), ("D", 1)))
        state = random_state(rng, lay)
        obs = Observable(lay, {"A": "X", "C": "P1", "D": "P1"})
        target = expectation(state, obs)
        shots = 100_000
        failures = 0
        for seed in range(100):
            outcomes = sample_observable(state, obs, shots, seed=seed)
            band = 4.0 * outcomes.std(ddof=1) / np.sqrt(shots)
            if abs(outcomes.mean() - target) > max(band, 1e-12):
                failures += 1
        assert failures <= 1

    @pytest.mark.parametrize(
        "factors",
        [
            {"A": "X"},
            {"C": "P0"},
            {"D": "P1"},
            {"A": "X", "D": "P1"},
            {"F": "P0", "A": "X"},
            {"A": "X", "C": "P1", "D": "P1"},
        ],
        ids=["X", "P0", "P1", "X-P1", "P0-before-X", "M"],
    )
    def test_matches_eigenbasis_reference(self, rng, factors):
        # the X register is never the first, so its halves are strided views
        lay = RegisterLayout((("B", 2), ("F", 1), ("A", 1), ("C", 1), ("D", 1), ("E", 2)))
        obs = Observable(lay, factors)
        for seed in range(4):
            state = random_state(rng, lay)
            np.testing.assert_array_equal(
                sample_observable(state, obs, 2000, seed=seed),
                reference_sample(state, factors, 2000, seed),
            )

    def test_x_eigenstate_up_to_rounding(self, rng):
        # |psi0|^2 + |psi1|^2 - 2 Re<psi0|psi1> rounds below 0 for some of these
        lay = RegisterLayout((("B", 3), ("A", 1)))
        obs = Observable(lay, {"A": "X"})
        for _ in range(20):
            b = rng.normal(size=8) + 1j * rng.normal(size=8)
            amps = np.kron(b / np.linalg.norm(b), [1.0, np.exp(1e-9j)]) / np.sqrt(2.0)
            outcomes = sample_observable(StateVector(lay, amps), obs, 100, seed=0)
            np.testing.assert_array_equal(outcomes, np.ones(100))

    def test_negative_seed(self):
        state = plus_state()
        with pytest.raises(InputError):
            sample_observable(state, Observable(state.layout, {"Q": "X"}), 10, seed=-1)

    def test_shots_validation(self):
        state = init_basis(RegisterLayout((("Q", 1),)))
        obs = Observable(state.layout, {"Q": "X"})
        with pytest.raises(InputError):
            sample_observable(state, obs, 0, seed=0)
        with pytest.raises(InputError):
            sample_observable(state, obs, sv.MAX_SHOTS + 1, seed=0)


class TestUnitarityInvariant:
    def test_operations_preserve_norm(self, rng):
        lay = RegisterLayout((("A", 1), ("B", 2), ("E", 3)))
        a = rng.normal(size=(4, 4))
        state = random_state(rng, lay)
        apply_gate(state, HADAMARD, ("A", 0))
        controlled_evolution(state, "E", "B", a + a.T, 1.1, controls=[("A", 0, 1)])
        qft(state, "E", inverse=True)
        assert abs(state.norm() - 1.0) <= 1e-10
