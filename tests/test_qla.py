import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from qgpr import _accel, qla
from qgpr import statevector as sv
from qgpr.exceptions import ConditioningError, ConfigError, InputError, NumericError
from qgpr.qla import (
    QlaConfig,
    config_for,
    default_t0,
    eigenvalue_inversion,
    gershgorin_bound,
    hermitianize,
    make_encoding,
    phase_estimate,
    prepare_sparse_state,
    qla_solve,
    solution_overlap,
    solver_block,
    state_prep_unitary,
    state_prep_vector,
)
from qgpr.statevector import RegisterLayout, StateVector, init_basis, project, register_component

from cases import (LAYOUTS, SEED, TAU, Case, agree, block_layout, case, catalogued, padded,
                   plan_for, random_hermitian, random_spd, random_state, solver_input,
                   with_zero_clock)
from conftest import non_finite_systems
from test_accel import block, dense_operator
from test_statevector import traced_peak


def clock_distribution(state, clock="clock"):
    lay = state.layout
    probs = np.abs(state.amps.reshape(lay.dims)) ** 2
    axis = lay.names.index(clock)
    other = tuple(i for i in range(len(lay.names)) if i != axis)
    return probs.sum(axis=other)


class TestMakeEncoding:
    def test_two_nonzeros(self):
        enc = make_encoding([0.0, 3.0, 0.0, 4.0])
        np.testing.assert_array_equal(enc.support, [1, 3])
        assert enc.s_v == 2
        assert enc.c_v == pytest.approx(0.25)

    def test_scalar(self):
        enc = make_encoding([1.0])
        np.testing.assert_array_equal(enc.support, [0])
        assert enc.s_v == 1 and enc.c_v == 1.0

    def test_scaling_saturates(self, rng):
        for _ in range(10):
            v = rng.normal(size=8)
            enc = make_encoding(v)
            assert enc.c_v == 1.0 / np.abs(v).max()  # maximal admissible value
            assert enc.c_v * np.abs(v).max() == pytest.approx(1.0, rel=5e-16)

    def test_all_zero_rejected(self):
        with pytest.raises(InputError):
            make_encoding(np.zeros(4))

    def test_subnormal_peak_is_numeric_error(self):
        # 1/1e-320 is past the float range: no admissible scaling exists
        with pytest.raises(NumericError, match=r"1/max\|v\| overflows"):
            make_encoding([0.0, 1e-320, -5e-321])

    @pytest.mark.parametrize(
        "v",
        [np.array([1 + 1j, 2.0]), [1 + 1j, 2.0], ["a", 1.0], [True, False]],
        ids=["complex-array", "complex-list", "string", "bool"],
    )
    def test_complex_or_non_numeric_vector_rejected(self, v):
        # a complex array used to encode as its real part, with only a ComplexWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="must hold real numbers"):
                make_encoding(v)

    def test_keeps_the_nonzero_entries_and_the_length(self, rng):
        v = rng.normal(size=6)
        v[2] = v[5] = 0.0
        enc = make_encoding(v)
        np.testing.assert_array_equal(enc.support, [0, 1, 3, 4])
        np.testing.assert_array_equal(enc.values, v[[0, 1, 3, 4]])
        assert enc.length == 6


class TestPrepareSparseState:
    LAYOUT = RegisterLayout((("index", 1), ("flag", 1)))

    def test_single_entry(self):
        state = prepare_sparse_state(self.LAYOUT, "index", "flag", make_encoding([1.0, 0.0]))
        np.testing.assert_allclose(state.amps, [0, 1, 0, 0], atol=1e-12)  # |0>|1>
        prob, _ = project(state, "flag", 1)
        assert prob == pytest.approx(1.0)

    def test_two_equal_entries(self):
        state = prepare_sparse_state(self.LAYOUT, "index", "flag", make_encoding([1.0, 1.0]))
        np.testing.assert_allclose(state.amps, [0, 2**-0.5, 0, 2**-0.5], atol=1e-12)

    def test_post_selected_amplitudes(self):
        # any scaling of (3, 4)/5 post-selects to amplitudes (0.6, 0.8)
        state = prepare_sparse_state(self.LAYOUT, "index", "flag", make_encoding([1.2, 1.6]))
        _, out = project(state, "flag", 1)
        comp = register_component(out, "index", {"flag": 1})
        np.testing.assert_allclose(comp, [0.6, 0.8], atol=1e-12)

    def test_post_selection_law(self, rng):
        # flag-1 probability is c_v^2 ||v||^2 / s_v for every sparse vector
        layout = RegisterLayout((("index", 3), ("flag", 1)))
        for _ in range(100):
            v = rng.normal(size=8)
            v[rng.random(8) < 0.5] = 0.0
            if not v.any():
                v[int(rng.integers(8))] = 1.0
            enc = make_encoding(v)
            state = prepare_sparse_state(layout, "index", "flag", enc)
            prob, _ = project(state, "flag", 1)
            expected = enc.c_v**2 * float(v @ v) / enc.s_v
            assert prob == pytest.approx(expected, abs=1e-10)

    def test_width_mismatch(self):
        with pytest.raises(InputError):
            prepare_sparse_state(self.LAYOUT, "index", "flag", make_encoding([1.0, 0.0, 2.0]))

    def test_prep_unitary_is_orthogonal(self, rng):
        v = rng.normal(size=4)
        u = state_prep_unitary(make_encoding(v), 2)
        np.testing.assert_allclose(u @ u.T, np.eye(8), atol=1e-12)

    @staticmethod
    def _householder_loop(enc, width):
        # entry-by-entry construction of the same vector, same arithmetic
        w = np.zeros(1 << (width + 1))
        for i, v in zip(enc.support, enc.values):
            amp = enc.c_v * v
            w[2 * int(i)] = math.sqrt(max(0.0, 1.0 - amp * amp)) / math.sqrt(enc.s_v)
            w[2 * int(i) + 1] = amp / math.sqrt(enc.s_v)
        u = -w
        u[0] += 1.0
        return u / np.linalg.norm(u)

    def test_prep_vector_matches_loop_and_dense_unitary(self, rng):
        for length, width in ((1, 1), (4, 2), (5, 3), (8, 3)):
            v = rng.normal(size=length)
            v[rng.random(length) < 0.4] = 0.0
            v[-1] = 1.5  # at least one nonzero
            enc = make_encoding(v)
            u = state_prep_vector(enc, width)
            np.testing.assert_array_equal(u, self._householder_loop(enc, width))
            np.testing.assert_array_equal(
                state_prep_unitary(enc, width), np.eye(u.shape[0]) - 2.0 * np.outer(u, u)
            )


class TestConfig:
    def test_validation(self):
        with pytest.raises(InputError):
            QlaConfig(clock_qubits=0, t0=1.0, c=1.0)
        with pytest.raises(InputError):
            QlaConfig(clock_qubits=3, t0=-1.0, c=1.0)

    @pytest.mark.parametrize("clock", [40, 2000])
    def test_clock_above_the_qubit_cap_rejected(self, clock):
        with pytest.raises(InputError, match="not in 1..22"):
            config_for(np.eye(2), clock, c=0.5)

    @pytest.mark.parametrize("clock", [2.5, True, "3"], ids=["fraction", "bool", "str"])
    def test_clock_must_be_an_integer(self, clock):
        with pytest.raises(InputError, match="clock_qubits"):
            QlaConfig(clock, t0=1.0, c=0.5)
        with pytest.raises(InputError, match="clock_qubits"):
            config_for(np.eye(2), clock, c=0.5)

    def test_clock_width_is_capped_at_the_qubit_cap(self):
        QlaConfig(sv.DEFAULT_QUBIT_CAP, t0=1.0, c=0.5)
        with pytest.raises(InputError, match="not in 1..22"):
            QlaConfig(sv.DEFAULT_QUBIT_CAP + 1, t0=1.0, c=0.5)

    def test_default_t0_avoids_wraparound(self, rng):
        a = random_spd(rng, 4)
        cfg = config_for(a, 8, c=0.1)
        lam_max = np.linalg.eigvalsh(a)[-1]
        assert cfg.t0 * lam_max < 2 * math.pi
        # the top representable bin can hold the Gershgorin bound itself
        assert gershgorin_bound(a) >= lam_max
        plan_for(a, cfg)

    def test_zero_system_is_a_conditioning_error(self):
        # its Gershgorin bound is 0: t0 used to divide by it
        for call in (lambda: default_t0(np.zeros((2, 2)), 4),
                     lambda: config_for(np.zeros((2, 2)), 4, 0.5)):
            with pytest.raises(ConditioningError, match="Gershgorin bound is 0"):
                call()

    def test_wraparound_rejected(self):
        with pytest.raises(ConfigError):
            plan_for(np.eye(2), QlaConfig(3, t0=7.0, c=0.5))

    def test_wraparound_rejected_on_a_padded_system(self):
        # a 3x3 system pads with c: its lambda_max 2 is not the last entry of lam
        with pytest.raises(ConfigError, match="wraparound"):
            plan_for(np.diag([1.0, 1.5, 2.0]), QlaConfig(3, t0=4.0, c=0.5))

    def test_c_above_lambda_min_rejected(self):
        with pytest.raises(ConfigError):
            plan_for(np.eye(2), QlaConfig(3, t0=0.1, c=2.0))

    @pytest.mark.parametrize("name, value", [("c", "x"), ("c", np.nan), ("t0", np.inf),
                                             ("t0", True)])
    def test_t0_and_c_must_be_finite_reals(self, name, value):
        # c = "x" used to raise a bare TypeError, and t0 = inf passed
        with pytest.raises(InputError, match=f"{name} must be a finite number"):
            QlaConfig(3, **{"t0": 1.0, "c": 0.5, name: value})
        if name == "c":
            with pytest.raises(InputError, match="c must be a finite number"):
                config_for(np.eye(2), 4, c=value)

    def test_c_a_millionth_above_lambda_min_rejected(self):
        # the slack admits round-off in a PSD Gram part, not a relative 1e-6
        system = np.diag([0.5, 0.9])
        with pytest.raises(ConfigError):
            plan_for(system, QlaConfig(3, t0=0.1, c=0.5 * (1 + 1e-6)))
        plan_for(system, QlaConfig(3, t0=0.1, c=0.5))


class TestPhaseEstimate:
    def test_exact_half_phase_reads_bin_four(self):
        # lambda * t0 / (2 pi) = 0.5 with 3 clock qubits -> clock |4> w.p. 1
        t0 = 0.77
        lam = math.pi / t0
        layout = RegisterLayout((("index", 1), ("clock", 3)))
        cfg = QlaConfig(clock_qubits=3, t0=t0, c=lam / 2)
        state = init_basis(layout)  # index |0>, an eigenstate of a diagonal system
        phase_estimate(state, cfg, np.diag([lam, lam * 0.5]), target="index")
        dist = clock_distribution(state)
        assert dist[4] == pytest.approx(1.0, abs=1e-10)

    def test_peak_distribution_matches_brute_force(self):
        # non-representable phase: compare the full clock distribution with
        # the direct Fourier sum |(1/T) sum_tau exp(2 pi i (phi - k/T) tau)|^2
        t0 = 1.0
        clock = 4
        big_t = 1 << clock
        phi = 0.3137  # lambda t0 / (2 pi), deliberately off-grid
        lam = 2 * math.pi * phi / t0
        layout = RegisterLayout((("index", 1), ("clock", clock)))
        cfg = QlaConfig(clock_qubits=clock, t0=t0, c=lam / 2)
        state = init_basis(layout)
        phase_estimate(state, cfg, np.diag([lam, lam / 2]), target="index")
        dist = clock_distribution(state)

        tau = np.arange(big_t)
        oracle = np.array(
            [
                abs(np.exp(2j * np.pi * (phi - k / big_t) * tau).sum() / big_t) ** 2
                for k in range(big_t)
            ]
        )
        np.testing.assert_allclose(dist, oracle, atol=1e-10)
        peak = int(np.argmax(oracle))
        assert peak == round(phi * big_t)
        assert dist[peak] >= 4 / math.pi**2

    def test_norm_preserved(self, rng):
        a = random_spd(rng, 2)
        layout = RegisterLayout((("index", 1), ("clock", 4)))
        cfg = config_for(a, 4, c=0.1)
        amps = np.zeros(32, dtype=complex)
        amps[0], amps[16] = 0.6, 0.8
        state = StateVector(layout, amps)
        phase_estimate(state, cfg, a, target="index")
        assert abs(state.norm() - 1.0) <= 1e-10

    def test_inverse_uncomputes(self, rng):
        a = random_spd(rng, 2)
        layout = RegisterLayout((("index", 1), ("clock", 4)))
        cfg = config_for(a, 4, c=0.1)
        amps = np.zeros(32, dtype=complex)
        amps[0], amps[16] = 0.6, 0.8
        state = StateVector(layout, amps.copy())
        phase_estimate(state, cfg, a, target="index")
        phase_estimate(state, cfg, a, target="index", inverse=True)
        np.testing.assert_allclose(state.amps, amps, atol=1e-10)

    @pytest.mark.parametrize("inverse", [False, True])
    def test_wrong_system_size_leaves_state_unchanged(self, inverse):
        layout = RegisterLayout((("index", 1), ("clock", 2)))
        state = init_basis(layout)
        with pytest.raises(InputError):
            phase_estimate(state, QlaConfig(2, t0=0.1, c=0.5), np.eye(4), inverse=inverse)
        np.testing.assert_array_equal(state.amps, init_basis(layout).amps)

    def test_wrong_clock_width(self):
        layout = RegisterLayout((("index", 1), ("clock", 3)))
        cfg = QlaConfig(clock_qubits=4, t0=0.1, c=0.5)
        with pytest.raises(InputError):
            phase_estimate(init_basis(layout), cfg, np.eye(2), target="index")


class TestEigenvalueInversion:
    def _run(self, clock_value, cfg):
        layout = RegisterLayout((("clock", cfg.clock_qubits), ("anc", 1)))
        state = init_basis(layout, {"clock": clock_value})
        eigenvalue_inversion(state, "clock", "anc", cfg)
        return state

    def test_full_flip_at_lambda_equal_c(self):
        # clock bin k=1 with t0 chosen so lambda_1 = c
        c = 0.8
        cfg = QlaConfig(clock_qubits=3, t0=2 * math.pi / (8 * c), c=c)
        out = self._run(1, cfg)
        comp = register_component(out, "anc", {"clock": 1})
        np.testing.assert_allclose(comp, [0.0, 1.0], atol=1e-12)

    def test_half_amplitude_at_twice_c(self):
        c = 0.8
        cfg = QlaConfig(clock_qubits=3, t0=2 * math.pi / (8 * c), c=c)
        out = self._run(2, cfg)  # lambda_2 = 2c
        comp = register_component(out, "anc", {"clock": 2})
        np.testing.assert_allclose(comp, [math.sqrt(3) / 2, 0.5], atol=1e-12)

    def test_zero_bin_untouched(self):
        cfg = QlaConfig(clock_qubits=3, t0=1.0, c=0.5)
        out = self._run(0, cfg)
        comp = register_component(out, "anc", {"clock": 0})
        np.testing.assert_allclose(comp, [1.0, 0.0], atol=1e-12)

    def test_superposed_clock_branchwise(self):
        # every branch k carries sqrt(1 - c^2/lam_k^2)|0> + (c/lam_k)|1>
        cfg = QlaConfig(clock_qubits=2, t0=1.3, c=0.4)
        layout = RegisterLayout((("clock", 2), ("anc", 1)))
        amps = np.zeros(8, dtype=complex)
        weights = np.array([0.1, 0.5, 0.3, 0.1]) ** 0.5
        amps[::2] = weights
        state = StateVector(layout, amps)
        eigenvalue_inversion(state, "clock", "anc", cfg)
        expected = np.zeros(8, dtype=complex)
        for k in range(4):
            if k == 0:
                ratio = 0.0
            else:
                lam = 2 * math.pi * k / (cfg.t0 * 4)
                ratio = min(cfg.c / lam, 1.0)
            expected[2 * k] = weights[k] * math.sqrt(1 - ratio**2)
            expected[2 * k + 1] = weights[k] * ratio
        np.testing.assert_allclose(state.amps, expected, atol=1e-12)

    def test_clamped_bins_counted_not_logged(self, caplog):
        # T=4 and lambda_max = 1 put bin 1 at lambda = 1/3 < c; bin 2 (2/3) is not
        # clamped. The config counts it; neither it nor the circuits log a record.
        with caplog.at_level("DEBUG"):
            cfg = config_for(np.eye(2), 2, c=0.5)
            self._run(1, cfg)
            self._run(2, cfg)
        assert cfg.clamped_bins == 1
        assert caplog.records == []

    @pytest.mark.parametrize("cfg", [
        QlaConfig(clock_qubits=3, t0=2 * math.pi / (8 * 0.8), c=0.8),
        QlaConfig(clock_qubits=3, t0=math.pi / 2, c=0.5),
        QlaConfig(clock_qubits=3, t0=2 * math.pi / 8, c=1.0),
        QlaConfig(clock_qubits=2, t0=1.3, c=0.4),
    ])
    def test_no_bin_clamped_up_to_a_unit_ratio(self, cfg):
        # the first three put lambda_1 = c exactly on the clock grid: a full flip, no clamp
        assert cfg.clamped_bins == 0


_LAYOUT = RegisterLayout((("index", 1), ("anc", 1), ("clock", 2)))
_FREE = RegisterLayout(_LAYOUT.registers[:-1])  # solver_block appends the clock
_CFG = QlaConfig(clock_qubits=2, t0=1.0, c=0.5)
_IDENTITY = plan_for(np.eye(2), _CFG)


@pytest.mark.parametrize(
    "layout, op",
    [
        (_LAYOUT, lambda s: sv.apply_gate(s, sv.PAULI_X, "anc", {"anc": 1})),
        (_LAYOUT, lambda s: sv.apply_gate(s, np.eye(4), ["anc", "anc"])),
        (_LAYOUT, lambda s: sv.reflect(s, np.array([0.6, 0.8]), "anc", {"anc": 1})),
        (_LAYOUT, lambda s: sv.qft(s, "clock", controls={"clock": 1})),
        (_LAYOUT, lambda s: sv.controlled_evolution(s, "clock", "index", np.eye(2), 1.0, {"index": 1})),
        (_LAYOUT, lambda s: sv.controlled_evolution(s, "clock", "index", np.eye(2), 1.0, {"clock": 2})),
        (_LAYOUT, lambda s: sv.controlled_evolution(s, "index", "index", np.eye(2), 1.0)),
        (_LAYOUT, lambda s: eigenvalue_inversion(s, "clock", "anc", _CFG, {"clock": 1})),
        (_LAYOUT, lambda s: eigenvalue_inversion(s, "clock", "anc", _CFG, {"anc": 1})),
        (_LAYOUT, lambda s: phase_estimate(s, config_for(np.eye(2), 2, c=0.5), np.eye(2),
                                           controls={"index": 1})),
        (_FREE, lambda s: solver_block(s, _IDENTITY, ancilla="anc", controls={"anc": 1})),
        (_FREE, lambda s: solver_block(s, _IDENTITY, ancilla="index")),
        (_FREE, lambda s: solver_block(s, _IDENTITY, ancilla="clock")),
        (_FREE, lambda s: solver_block(s, _IDENTITY, ancilla="anc", controls={"clock": 2})),
        (_LAYOUT, lambda s: solver_block(s, _IDENTITY, ancilla="anc")),
        (_FREE, lambda s: solver_block(s, _IDENTITY, ancilla="anc",
                                       controls={"clock": 1})),
        (_FREE, lambda s: solver_block(s, _IDENTITY, clock="index", ancilla="anc")),
    ],
    ids=[
        "apply_gate-control-on-target",
        "apply_gate-target-twice",
        "reflect-control-on-target",
        "qft-control-on-register",
        "controlled_evolution-control-on-target",
        "controlled_evolution-control-on-clock",
        "controlled_evolution-clock-is-target",
        "eigenvalue_inversion-control-on-clock",
        "eigenvalue_inversion-control-on-ancilla",
        "phase_estimate-control-on-target",
        "solver_block-control-on-ancilla",
        "solver_block-ancilla-is-target",
        "solver_block-wide-ancilla",
        "solver_block-control-on-clock",
        "solver_block-clock-already-in-input",
        "spread-control-on-register",
        "spread-register-already-in-input",
    ],
)
def test_overlapping_qubits_are_input_errors(rng, layout, op):
    # an op that raises must do so before changing its input
    state = random_state(rng, layout)
    before = state.copy()
    with pytest.raises(InputError):
        op(state)
    np.testing.assert_array_equal(state.amps, before.amps)


_SYSTEM = np.array([[1.0, 0.3], [0.3, 0.8]])  # eigenvalues 0.58 and 1.22: valid for _CFG
_PLAN = plan_for(_SYSTEM, _CFG)


@pytest.mark.parametrize(
    "layout, op",
    [
        (_LAYOUT, lambda s: sv.apply_gate(s, sv.HADAMARD, "anc", {"index": 1})),
        (_LAYOUT, lambda s: sv.reflect(s, np.array([0.6, 0.8]), "anc")),
        (_LAYOUT, lambda s: sv.qft(s, "clock")),
        (_LAYOUT, lambda s: sv.qft(s, "clock", inverse=True)),
        (_LAYOUT, lambda s: sv.controlled_evolution(s, "clock", "index", _SYSTEM, 1.0)),
        (_LAYOUT, lambda s: eigenvalue_inversion(s, "clock", "anc", _CFG)),
        (_LAYOUT, lambda s: phase_estimate(s, _CFG, _SYSTEM)),
        (_LAYOUT, lambda s: phase_estimate(s, _CFG, _SYSTEM, inverse=True)),
        (_FREE, lambda s: solver_block(s, _PLAN, ancilla="anc")),
    ],
    ids=[
        "apply_gate",
        "reflect",
        "qft",
        "qft-inverse",
        "controlled_evolution",
        "eigenvalue_inversion",
        "phase_estimate",
        "phase_estimate-inverse",
        "solver_block",
    ],
)
def test_ops_act_in_place(rng, layout, op):
    """Circuit ops change the buffer and return None; solver_block, which
    appends the clock, instead returns a new state and leaves its input."""
    state = solver_input(rng, layout) if layout is _FREE else random_state(rng, layout)
    buffer, before = state.amps, state.copy()
    snapshot = state.amps.copy()
    result = op(state)
    if layout is _FREE:
        assert result.layout == RegisterLayout((*layout.registers, ("clock", 2)))
        assert not np.shares_memory(result.amps, buffer)
        np.testing.assert_array_equal(state.amps, snapshot)
        assert np.abs(result.amps - np.kron(snapshot, [1, 0, 0, 0])).max() > 1e-3
        return
    assert result is None
    assert state.amps is buffer
    assert np.abs(state.amps - snapshot).max() > 1e-3  # the op changed the buffer
    np.testing.assert_array_equal(before.amps, snapshot)


_CTL = RegisterLayout((("ctl", 2), ("index", 1), ("anc", 1), ("clock", 2)))


@pytest.mark.parametrize("controls", [[("ctl", 2)], (("ctl", 2),), []],
                         ids=["list", "tuple", "empty"])
@pytest.mark.parametrize(
    "layout, op",
    [
        (RegisterLayout(_CTL.registers[:-1]),
         lambda s, c: solver_block(s, _PLAN, ancilla="anc", controls=c)),
        (_CTL, lambda s, c: phase_estimate(s, _CFG, _SYSTEM, controls=c)),
        (_CTL, lambda s, c: eigenvalue_inversion(s, "clock", "anc", _CFG, c)),
    ],
    ids=["solver_block", "phase_estimate", "eigenvalue_inversion"],
)
def test_controls_must_be_a_mapping(rng, layout, op, controls):
    # {"ctl": 2} would be valid controls; (register, value) pairs are not
    state = random_state(rng, layout)
    before = state.amps.copy()
    with pytest.raises(InputError, match="map register names to values"):
        op(state, controls)
    np.testing.assert_array_equal(state.amps, before)


@pytest.mark.parametrize(
    "layout, op, passes",
    [
        (_CTL, lambda s: sv.apply_gate(s, sv.PAULI_X, "anc", {"ctl": 2}), 1),
        (_CTL, lambda s: sv.hadamard_layer(s, "clock", {"ctl": 2, "anc": 1}), 1),
        (_CTL, lambda s: sv.reflect(s, np.array([0.6, 0.8]), "anc", {"ctl": 2}), 1),
        (_CTL, lambda s: sv.qft(s, "clock", controls={"ctl": 2}), 1),
        (_CTL, lambda s: eigenvalue_inversion(s, "clock", "anc", _CFG, {"ctl": 2}), 1),
        (_CTL, lambda s: sv.readout(s, "anc", {"ctl": 2, "clock": 1}), 1),
        (_CTL, lambda s: sv.sample_observable(s, "anc", {"ctl": 2}, 10, seed=0), 1),
        (RegisterLayout(_CTL.registers[:-1]),
         lambda s: solver_block(s, _PLAN, ancilla="anc", controls={"ctl": 2}), 2),
    ],
    ids=["apply_gate", "hadamard_layer", "reflect", "qft", "eigenvalue_inversion", "readout",
         "sample_observable", "solver_block"],
)
def test_each_op_resolves_its_registers_once(rng, monkeypatch, layout, op, passes):
    """One _pin_values pass per state an op views: solver_block views its
    input and the state it writes, every other op the one state."""
    state = solver_input(rng, layout, {"ctl": 2})  # solver_block's input contract
    seen = []

    def counted(layout, pins, original=sv._pin_values):
        seen.append(pins)
        return original(layout, pins)

    monkeypatch.setattr(sv, "_pin_values", counted)
    op(state)
    assert len(seen) == passes


class TestSpread:
    """solver_block's write of the solver's rows, with random response tables,
    against the gate chain it writes: V^H on the target of the clock-free
    input, the Hadamard layer on a zero clock appended last, the ancilla
    rotation by (target value, clock value) tables, and V on the target, all
    controlled."""

    @staticmethod
    def check_against_chain(rng, monkeypatch, state, width, controls):
        before = state.amps.copy()
        big_t = 1 << width
        g_c, g_s = (rng.normal(size=(4, big_t)) + 1j * rng.normal(size=(4, big_t))
                    for _ in range(2))
        monkeypatch.setattr(qla, "_solver_response",
                            lambda lam, config: np.stack((g_c, g_s), axis=1))
        cfg = QlaConfig(width, t0=1.0, c=0.25)  # both spectra lie in [0.25, 1]
        for system in (random_spd(rng, 4), random_hermitian(rng, 4)):  # real V, complex V
            vec = sv.hermitian_eigh(system)[1]
            entered = state.copy()
            sv.apply_gate(entered, vec.conj().T, "index", controls)
            expected = with_zero_clock(entered, "clock", width)
            sv.hadamard_layer(expected, "clock", controls)
            for j in range(4):  # one (clock, ancilla) block per target value
                rot = np.zeros((big_t, 2, big_t, 2), dtype=complex)
                rot[np.arange(big_t), :, np.arange(big_t), :] = np.moveaxis(
                    [[g_c[j], -g_s[j]], [g_s[j], g_c[j]]], -1, 0)
                pins = {**controls, "index": j}
                view, axes = sv._operand(expected.layout, expected.amps, ["clock", "anc"], pins)
                _accel.apply_matrix(view, rot.reshape(2 * big_t, -1), axes)
            sv.apply_gate(expected, vec, "index", controls)
            out = solver_block(state, plan_for(system, cfg), "clock", "index", "anc", controls)
            assert np.abs(out.amps - expected.amps).max() <= 1e-12
        np.testing.assert_array_equal(state.amps, before)

    @pytest.mark.parametrize("width", range(1, 10))
    @pytest.mark.parametrize("layout_name", list(LAYOUTS))
    def test_matches_hadamard_layer_on_a_zero_clock(self, rng, monkeypatch, width, layout_name):
        layout, controls = block_layout(layout_name, 2)
        self.check_against_chain(rng, monkeypatch, solver_input(rng, layout, controls), width,
                                 controls)

    @pytest.mark.parametrize("half", [False, True], ids=["real", "half-imaginary"])
    @pytest.mark.parametrize("layout_name", list(LAYOUTS))
    def test_real_rows_match_hadamard_layer_on_a_zero_clock(self, rng, monkeypatch, half,
                                                            layout_name):
        # real rows with a real V take the real product; with the rows whose
        # first qubit is 1 made imaginary, some controlled blocks (or every
        # block's target entries in part) take the complex one
        layout, controls = block_layout(layout_name, 2)
        state = solver_input(rng, layout, controls)
        state.amps[:] = state.amps.real
        if half:
            state.amps[state.amps.shape[0] // 2 :] *= 1j
        self.check_against_chain(rng, monkeypatch, state, 3, controls)

    # the 8-qubit layouts of a dense reference with a two-qubit clock block at
    # cstart: solver_block appends its clock last, so the clock block moves to
    # the end and the other qubits keep their order, each one a register of its
    # own but the target block. V^H, the Hadamards on the zero clock, one 2x2
    # block per joint (target, clock) value with complex tables, then V
    @pytest.mark.parametrize(
        "tstart, twidth, cstart, apos, controls",
        [
            (1, 1, 2, 0, ((7, 1),)),  # ancilla before both blocks, control after
            (0, 1, 2, 1, ((5, 0),)),  # ancilla between the blocks
            (0, 1, 1, 3, ((6, 1), (7, 0))),  # ancilla after both blocks
            (2, 1, 3, 6, ((0, 1),)),  # ancilla after, control before
            (1, 3, 4, 0, ((6, 0),)),
            (1, 3, 5, 4, ((0, 1),)),  # ancilla between, control before
            (0, 3, 3, 5, ((6, 1), (7, 1))),
            (2, 3, 0, 5, ((7, 0),)),  # target after the clock
            (4, 3, 1, 3, ((0, 1), (7, 1))),  # target after the clock, controls on both sides
        ],
    )
    def test_matches_dense_operator(self, rng, monkeypatch, tstart, twidth, cstart, apos,
                                    controls):
        m, cwidth = 8, 2
        rest = [q for q in range(m) if q not in block(cstart, cwidth)]
        tpos = tuple(rest.index(q) for q in block(tstart, twidth))
        apos, controls = rest.index(apos), tuple((rest.index(q), v) for q, v in controls)
        layout = RegisterLayout(tuple(
            ("index", twidth) if q == tpos[0] else ("anc", 1) if q == apos else (f"q{q}", 1)
            for q in range(m - cwidth) if q not in tpos[1:]))
        pins = {f"q{q}": v for q, v in controls}
        clock = block(m - cwidth, cwidth)
        shape = (1 << twidth, 1 << cwidth)
        g_c, g_s = (rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(2))
        monkeypatch.setattr(qla, "_solver_response",
                            lambda lam, config: np.stack((g_c, g_s), axis=1))
        rot = np.zeros((2 * g_c.size,) * 2, dtype=complex)
        for k, (c, s) in enumerate(zip(g_c.ravel(), g_s.ravel())):
            rot[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = [[c, -s], [s, c]]
        state = solver_input(rng, layout, pins)
        walsh = np.kron(sv.HADAMARD, sv.HADAMARD)
        dim = 1 << twidth
        for system in (random_spd(rng, dim), random_hermitian(rng, dim)):  # real V, complex V
            vec = sv.hermitian_eigh(system)[1]
            entered = dense_operator(vec.conj().T, tpos, m - cwidth, controls) @ state.amps
            spread = dense_operator(walsh, clock, m, controls) @ np.kron(entered, np.eye(1 << cwidth)[0])
            turned = dense_operator(rot, tpos + clock + (apos,), m, controls) @ spread
            expected = dense_operator(vec, tpos, m, controls) @ turned
            out = solver_block(state, plan_for(system, QlaConfig(cwidth, t0=1.0, c=0.25)), "clock",
                               "index", "anc", pins)
            np.testing.assert_allclose(out.amps, expected, atol=1e-12)

    def test_over_the_qubit_cap_is_an_input_error(self):
        # a 2-qubit target, the ancilla and a 21-qubit clock: the response,
        # like the new state, would be 24 qubits
        with pytest.raises(InputError, match="exceeds the cap"):
            plan_for(np.eye(4), QlaConfig(sv.DEFAULT_QUBIT_CAP - 1, t0=0.1, c=0.5))


class TestSolverBlock:
    @pytest.mark.parametrize("n", [3, 4], ids=["padded", "unpadded"])
    @pytest.mark.parametrize("clock", range(1, 11))
    @pytest.mark.parametrize("layout_name", list(LAYOUTS))
    def test_matches_three_op_sequence(self, n, clock, layout_name):
        t0 = TAU * ((1 << clock) - 1) / (1 << clock)  # lambda_k = k / (T - 1)
        agree(case("sweep", n, "complex", clock, 0.25, t0, lo=0.3, solver=1e-12),
              layout_name)

    def test_each_config_matches_through_its_own_plan(self):
        # one system, configs that differ from the one before only in c, then
        # only in t0, then only in the clock width: one plan each
        drawn = case("configs", 4, "complex", lo=0.3, solver=1e-12)  # spectrum in [0.3, 1)
        for clock, k, c in ((5, 31, 0.25), (5, 31, 0.2), (5, 21, 0.2), (4, 21, 0.2)):
            agree(replace(drawn, config=QlaConfig(clock, t0=TAU * k / 32, c=c)), "before")

    @pytest.mark.parametrize("layout_name", list(LAYOUTS))
    def test_real_system_matches_its_complex_cast(self, layout_name):
        agree(catalogued("n5"), layout_name)  # a real system, padded to 8: real V and complex V

    @pytest.mark.parametrize("via, complex_v", [("sparse", 0), ("vector", 0), ("vector", 1)],
                             ids=["sparse", "vector", "complex-rhs"])
    def test_qla_solve_matches_three_op_sequence(self, via, complex_v):
        # a complex b on a real system: real V, complex ancilla-0 rows, the complex product
        agree(case("qla_solve", 5, clock=6, c=0.2, complex_v=complex_v, solver=1e-12), via)

    def test_wrong_system_size_leaves_state_unchanged(self):
        layout = RegisterLayout((("index", 1), ("ancilla", 1)))
        state = init_basis(layout)
        with pytest.raises(InputError):
            solver_block(state, plan_for(np.eye(4), QlaConfig(2, t0=0.1, c=0.5)))
        np.testing.assert_array_equal(state.amps, init_basis(layout).amps)

    def test_over_the_qubit_cap_fails_before_any_step(self, monkeypatch):
        # a 3-qubit target, the ancilla and a 19-qubit clock: a 23-qubit response,
        # refused before it is built. Its 18-qubit clock fits the plan (a zero-cost
        # stand-in here), but a 1-qubit control puts the new state at 23 qubits
        def no_step(*args, **kwargs):
            raise AssertionError("a step ran before the checks")

        monkeypatch.setattr(qla, "_solver_response", no_step)
        with pytest.raises(InputError, match="exceeds the cap"):
            plan_for(np.eye(8), QlaConfig(19, t0=0.1, c=0.5))
        monkeypatch.setattr(qla, "_solver_response", lambda lam, config: np.broadcast_to(
            np.zeros((1, 1, 1), dtype=complex), (len(lam), 2, config.T)))
        plan = plan_for(np.eye(8), QlaConfig(18, t0=0.1, c=0.5))
        monkeypatch.setattr(qla._accel, "apply_matrix", no_step)
        state = init_basis(RegisterLayout((("index", 3), ("ancilla", 1), ("ctl", 1))))
        with pytest.raises(InputError, match="exceeds the cap"):
            solver_block(state, plan)
        np.testing.assert_array_equal(state.amps, init_basis(state.layout).amps)

    @pytest.mark.parametrize("layout_name", list(LAYOUTS))
    def test_nonzero_controlled_ancilla_fails_before_any_step(self, rng, monkeypatch, layout_name):
        def no_step(*args, **kwargs):
            raise AssertionError("a step ran before the checks")

        plan = plan_for(np.eye(4) * 0.5, QlaConfig(2, t0=1.0, c=0.25))
        monkeypatch.setattr(qla._accel, "apply_matrix", no_step)
        layout, controls = block_layout(layout_name, 2)
        state = solver_input(rng, layout, controls)
        # one small amplitude on the last controlled row with the ancilla at 1
        rows = sv._register_view(layout, state.amps, {**controls, "anc": 1})
        rows[(-1,) * rows.ndim] = 1e-9
        before = state.amps.copy()
        with pytest.raises(InputError, match=r"must be \|0> on the controlled rows"):
            solver_block(state, plan, "clock", "index", "anc", controls)
        np.testing.assert_array_equal(state.amps, before)

    @pytest.mark.parametrize("value", [1, 2])
    def test_two_qubit_control_matches_dense_controlled_solver(self, rng, value):
        # the rows where ctl holds ``value`` get the uncontrolled solver and the
        # rest get |0> on the clock, read off the register tensor: the values
        # 1 and 2 differ in both bits, so a control read in the wrong bit
        # order acts on the other block
        cfg = QlaConfig(3, t0=2 * math.pi * 7 / 8, c=0.25)
        plan = plan_for(random_hermitian(rng, 4), cfg)  # spectrum in [0.3, 1)
        state = solver_input(rng, RegisterLayout((("ctl", 2), ("index", 2), ("anc", 1))),
                             {"ctl": value})
        out = solver_block(state, plan, "clock", "index", "anc", {"ctl": value})
        block = StateVector(RegisterLayout((("index", 2), ("anc", 1))),
                            state.amps.reshape(4, -1)[value])
        solved = solver_block(block, plan, "clock", "index", "anc")
        zero_clock = np.eye(8)[0]
        for k, rows in enumerate(out.amps.reshape(4, -1)):
            expected = solved.amps if k == value else np.kron(state.amps.reshape(4, -1)[k], zero_clock)
            assert np.abs(rows - expected).max() <= 1e-12


class TestSolverResponse:
    """_solver_response builds its table gate by gate in eigen-index chunks of
    at most _CHUNK amplitudes (or of two eigen-indices), in place in the array
    it returns; the chunks change no bit of the table."""

    @staticmethod
    def response_input(n, clock, kind):
        """(eigenvalues, config) of a real or complex case with c = lambda_min."""
        drawn = case(kind, n, kind, clock)
        return sv.hermitian_eigh(drawn.system)[0], drawn.config

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("n, clock", [(2, 1), (16, 10), (128, 8), (8, 16)])
    def test_chunks_are_bit_identical_to_one_chunk(self, monkeypatch, n, clock, kind):
        lam, cfg = self.response_input(n, clock, kind)
        build = qla._solver_response
        monkeypatch.setattr(qla, "_CHUNK", n << (clock + 1))  # every eigen-index in one chunk
        whole = build(lam, cfg)
        # two eigen-indices a chunk, four (a _CHUNK that is no power of two), the default
        for chunk in (1, 12 << clock, 1 << 14):
            monkeypatch.setattr(qla, "_CHUNK", chunk)
            for got, want in zip(build(lam, cfg), whole):
                assert np.array_equal(got, want)
                assert not got.flags.writeable

    def test_cold_build_at_the_qubit_cap_stays_within_32_mib(self):
        # n = 8 with clock 16: the 22-qubit cap. The table itself is 16 MiB;
        # the unchunked build peaked at 41 MiB
        lam, cfg = self.response_input(8, 16, "real")
        assert traced_peak(lambda: qla._solver_response(lam, cfg)) <= 32 << 20


class TestQlaSolve:
    @non_finite_systems
    def test_non_finite_system_is_refused(self, system):
        cfg = QlaConfig(4, t0=0.5, c=0.1)
        with pytest.raises(InputError, match="non-finite"):
            qla_solve(np.array([0.3, 1.0]), np.array(system), cfg)

    def test_identity_system_exact(self):
        cfg = QlaConfig(clock_qubits=3, t0=2 * math.pi / 8, c=1.0)  # lambda=1 -> bin 1
        state, prob = qla_solve(np.array([1.0, 0.0]), np.eye(2), cfg)
        assert prob == pytest.approx(1.0, abs=1e-10)
        comp = register_component(state, "index", {"ancilla": 1, "clock": 0})
        np.testing.assert_allclose(comp, [1.0, 0.0], atol=1e-8)

    def test_diagonal_exact(self):
        # A = diag(0.5, 1), t0 = pi/2, T=8: bins 1 and 2 exactly
        cfg = QlaConfig(clock_qubits=3, t0=math.pi / 2, c=0.5)
        b = np.array([1.0, 1.0]) / math.sqrt(2.0)
        state, prob = qla_solve(b, np.diag([0.5, 1.0]), cfg)
        comp = register_component(state, "index", {"ancilla": 1, "clock": 0})
        np.testing.assert_allclose(np.abs(comp), np.array([2.0, 1.0]) / math.sqrt(5), atol=1e-8)
        # success probability law: || c A^{-1} b_hat ||^2
        expected = np.linalg.norm(0.5 * np.linalg.solve(np.diag([0.5, 1.0]), b)) ** 2
        assert prob == pytest.approx(expected, abs=1e-8)

    def test_sparse_encoding_route(self):
        cfg = QlaConfig(clock_qubits=3, t0=math.pi / 2, c=0.5)
        enc = make_encoding([3.0, 3.0])
        state, prob = qla_solve(enc, np.diag([0.5, 1.0]), cfg)
        comp = register_component(state, "index", {"flag": 1, "ancilla": 1, "clock": 0})
        np.testing.assert_allclose(np.abs(comp), np.array([2.0, 1.0]) / math.sqrt(5), atol=1e-8)
        assert prob == pytest.approx(0.625, abs=1e-8)

    def test_uncompute_residual_exact_phase(self):
        cfg = QlaConfig(clock_qubits=3, t0=math.pi / 2, c=0.5)
        state, _ = qla_solve(np.array([0.3, -0.9]), np.diag([0.5, 1.0]), cfg)
        prob0, _ = project(state, "clock", 0)
        assert 1.0 - prob0 <= 1e-6

    def test_random_instances_high_fidelity(self):
        for seed in range(SEED, SEED + 5):
            agree(case("real", 4, seed=seed, overlap=0.99))

    def test_monotone_accuracy_in_clock_width(self):
        # agree reads each overlap; a tolerance of 0 leaves the check to the medians
        reads = [[agree(case("real", 4, clock=clock, seed=seed, overlap=0.0))
                  for seed in range(SEED, SEED + 5)] for clock in (4, 6, 8)]
        medians = [np.median([1.0 - read["overlap"] for read in row]) for row in reads]
        assert medians[0] >= medians[1] >= medians[2]

    def test_complex_hermitian_system_keeps_imaginary_part(self):
        # casting to float would solve the real part, the identity, instead (and warn);
        # the padded complex case is the catalogue's "complex"
        a, b = np.array([[1.0, 0.3j], [-0.3j, 1.0]]), np.array([1.0, 0.0])  # lambda 0.7, 1.3
        assert gershgorin_bound(a) >= 1.3
        agree(Case("imaginary", a, b, b, config_for(a, 8, 0.7), dict(overlap=0.999, solver=1e-12)))

    def test_zero_rhs_rejected(self):
        cfg = QlaConfig(clock_qubits=3, t0=0.5, c=0.5)
        with pytest.raises(InputError):
            qla_solve(np.zeros(2), np.eye(2), cfg)

    @pytest.mark.parametrize("b", [[np.nan, 1.0], [np.inf, 1.0], ["a", "b"]],
                             ids=["nan", "inf", "string"])
    def test_non_finite_rhs_rejected(self, b):
        # a NaN entry used to give success probability NaN with a RuntimeWarning
        cfg = QlaConfig(clock_qubits=3, t0=0.5, c=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="right-hand side (has non-finite entries|must "
                                                 "hold real or complex numbers)"):
                qla_solve(b, np.eye(2), cfg)

    @pytest.mark.parametrize("reference",
                             [[0.0, 0.0], [1.0, np.nan], [1.0, np.inf], [1.0, 2.0, 3.0], "ab"],
                             ids=["zero", "nan", "inf", "longer-than-the-index", "string"])
    def test_overlap_refuses_a_bad_reference(self, reference):
        # a 1-qubit index register; no RuntimeWarning and no bare numpy error
        cfg = QlaConfig(clock_qubits=3, t0=math.pi / 2, c=0.5)
        state, _ = qla_solve(np.array([0.3, -0.9]), np.diag([0.5, 1.0]), cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="reference"):
                solution_overlap(state, reference)

    @pytest.mark.parametrize("scale", [1e300, 1e-300])
    def test_overlap_does_not_depend_on_the_reference_scale(self, scale):
        cfg = QlaConfig(clock_qubits=3, t0=math.pi / 2, c=0.5)
        state, _ = qla_solve(np.array([0.3, -0.9]), np.diag([0.5, 1.0]), cfg)
        reference = np.array([1.0, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = solution_overlap(state, scale * reference)
        assert got == pytest.approx(solution_overlap(state, reference), rel=1e-12)


class TestSpectrum:
    def test_identity_when_power_of_two(self, rng):
        a = random_spd(rng, 4)
        spectrum = qla.spectrum(a, 0.3)
        assert spectrum.n == 4
        for got, want in zip((spectrum.lam, spectrum.vec), sv.hermitian_eigh(a)):
            np.testing.assert_array_equal(got, want)
            assert not got.flags.writeable

    def test_system_eigenpairs_come_first(self, rng):
        # a direct sum: the 5x5 system's own eigh, then fill * I on the 3 padded indices
        a = random_spd(rng, 5)
        spectrum = qla.spectrum(a, 0.3)
        lam, vec = sv.hermitian_eigh(a)
        np.testing.assert_array_equal(spectrum.system_lam, lam)
        np.testing.assert_array_equal(spectrum.lam[5:], [0.3] * 3)
        np.testing.assert_array_equal(spectrum.vec, padded(vec, 1.0))
        assert not (spectrum.lam.flags.writeable or spectrum.vec.flags.writeable)

    def test_block_structure(self):
        spectrum = qla.spectrum(np.full((3, 3), 2.0), 0.7)
        assert spectrum.n == 3 and spectrum.vec.shape == (4, 4)
        rebuilt = (spectrum.vec * spectrum.lam) @ spectrum.vec.T
        np.testing.assert_allclose(rebuilt, padded(np.full((3, 3), 2.0), 0.7), atol=1e-12)

    def test_plan_answers_its_clock_width(self):
        # a plan stands where a config did: callers read its clock width off it
        cfg = QlaConfig(3, t0=1.0, c=0.5)
        plan = plan_for(np.eye(3), cfg)
        assert plan.clock_qubits == 3 and plan.config is cfg
        assert plan.response.shape == (4, 2, 8) and not plan.response.flags.writeable


class TestHermitianize:
    def test_scalar(self):
        h = hermitianize([[1.0]])
        np.testing.assert_array_equal(h, [[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(np.linalg.eigvalsh(h), [-1.0, 1.0])

    def test_scaled_identity(self):
        h = hermitianize(2.0 * np.eye(2))
        np.testing.assert_allclose(sorted(np.linalg.eigvalsh(h)), [-2.0, -2.0, 2.0, 2.0])

    def test_eigenvalues_are_plus_minus_singular_values(self, rng):
        a = rng.normal(size=(3, 3))
        h = hermitianize(a)
        eigs = np.sort(np.linalg.eigvalsh(h))
        svals = np.linalg.svd(a, compute_uv=False)
        expected = np.sort(np.concatenate([svals, -svals]))
        np.testing.assert_allclose(eigs, expected, atol=1e-10)

    def test_hermitian_by_construction(self, rng):
        a = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
        h = hermitianize(a)
        np.testing.assert_allclose(h, h.conj().T)
