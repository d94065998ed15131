import math
import tracemalloc
import warnings

import numpy as np
import pytest

from qgpr import _accel, qla
from qgpr import statevector as sv
from qgpr.exceptions import ConfigError, InputError, NumericError, ZeroProbabilityError
from qgpr.qla import (
    QlaConfig,
    config_for,
    default_t0,
    eigenvalue_inversion,
    gershgorin_bound,
    hermitianize,
    make_encoding,
    pad_system,
    phase_estimate,
    prepare_sparse_state,
    qla_solve,
    solution_overlap,
    solver_block,
    state_prep_unitary,
    state_prep_vector,
    validate_config,
)
from qgpr.statevector import RegisterLayout, StateVector, init_basis, project, register_component

from conftest import non_finite_systems, random_spd, zero_controlled_ancilla


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

    def test_dense_roundtrip(self, rng):
        v = rng.normal(size=6)
        v[2] = v[5] = 0.0
        np.testing.assert_array_equal(make_encoding(v).dense(), v)


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
        validate_config(cfg, a)

    def test_wraparound_rejected(self):
        with pytest.raises(ConfigError):
            validate_config(QlaConfig(3, t0=7.0, c=0.5), np.eye(2))

    def test_c_above_lambda_min_rejected(self):
        with pytest.raises(ConfigError):
            validate_config(QlaConfig(3, t0=0.1, c=2.0), np.eye(2))

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
            validate_config(QlaConfig(3, t0=0.1, c=0.5 * (1 + 1e-6)), system)
        validate_config(QlaConfig(3, t0=0.1, c=0.5), system)


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

    def test_clamp_logged(self, caplog):
        # T=4 and lambda_max = 1 put bin 1 at lambda = 1/3 < c; bin 2 (2/3) is not
        # clamped. The config logs it once; the circuits that use it do not.
        with caplog.at_level("WARNING", logger="qgpr.qla"):
            cfg = config_for(np.eye(2), 2, c=0.5)
            self._run(1, cfg)
            self._run(2, cfg)
        messages = [rec.getMessage() for rec in caplog.records]
        assert len(messages) == 1 and "clamped 1 of 3 clock bins" in messages[0]


_LAYOUT = RegisterLayout((("index", 1), ("anc", 1), ("clock", 2)))
_FREE = RegisterLayout(_LAYOUT.registers[:-1])  # solver_block appends the clock
_CFG = QlaConfig(clock_qubits=2, t0=1.0, c=0.5)


def random_state(rng, layout):
    amps = rng.normal(size=1 << layout.total_qubits) + 1j * rng.normal(size=1 << layout.total_qubits)
    return StateVector(layout, amps / np.linalg.norm(amps))


def solver_input(rng, layout, controls=None):
    """A random state on a clock-free ``layout`` whose ancilla ``anc`` is |0> on
    the rows ``controls`` select, as :func:`solver_block` requires."""
    return zero_controlled_ancilla(random_state(rng, layout), "anc", controls)


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
        (_FREE, lambda s: solver_block(s, _CFG, np.eye(2), ancilla="anc", controls={"anc": 1})),
        (_FREE, lambda s: solver_block(s, _CFG, np.eye(2), ancilla="index")),
        (_FREE, lambda s: solver_block(s, _CFG, np.eye(2), ancilla="clock")),
        (_FREE, lambda s: solver_block(s, _CFG, np.eye(2), ancilla="anc", controls={"clock": 2})),
        (_LAYOUT, lambda s: solver_block(s, _CFG, np.eye(2), ancilla="anc")),
        (_FREE, lambda s: solver_block(s, _CFG, np.eye(2), ancilla="anc",
                                       controls={"clock": 1})),
        (_FREE, lambda s: solver_block(s, _CFG, np.eye(2), clock="index", ancilla="anc")),
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
        (_FREE, lambda s: solver_block(s, _CFG, _SYSTEM, ancilla="anc")),
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
         lambda s, c: solver_block(s, _CFG, _SYSTEM, ancilla="anc", controls=c)),
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
         lambda s: solver_block(s, _CFG, _SYSTEM, ancilla="anc", controls={"ctl": 2}), 2),
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


def with_zero_clock(state, clock, width):
    """state (x) |0> on a ``width``-qubit clock appended last."""
    zero = init_basis(RegisterLayout(((clock, width),)))
    return StateVector(RegisterLayout((*state.layout.registers, (clock, width))),
                       np.kron(state.amps, zero.amps))


def reference_solver(state, cfg, system, clock="clock", target="index", ancilla="ancilla",
                     controls=None):
    """The solver as three separate ops, each with its own basis change, on
    ``state`` (x) |0> with the clock appended last."""
    full = with_zero_clock(state, clock, cfg.clock_qubits)
    phase_estimate(full, cfg, system, clock=clock, target=target, controls=controls)
    eigenvalue_inversion(full, clock, ancilla, cfg, controls=controls)
    phase_estimate(full, cfg, system, clock=clock, target=target, controls=controls, inverse=True)
    return full


def random_hermitian(rng, n, lo=0.3, hi=1.0):
    """Complex Hermitian matrix with spectrum inside [lo, hi]."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return (q * rng.uniform(lo, hi, size=n)) @ q.conj().T


# (registers, controls) of the clock-free input; the clock is appended last.
# No controls, then controls before, between and after the target and the
# ancilla, then the two layouts qla_solve builds
_BLOCK_LAYOUTS = {
    "none": ((("index", None), ("anc", 1)), {}),
    "before": ((("ctl", 2), ("index", None), ("anc", 1)), {"ctl": 2}),
    "between": ((("anc", 1), ("ctl", 2), ("index", None)), {"ctl": 3}),
    "after": ((("anc", 1), ("index", None), ("ctl", 2)), {"ctl": 1}),
    "qla_solve-sparse": ((("index", None), ("flag", 1), ("anc", 1)), {}),
    "qla_solve-vector": ((("index", None), ("anc", 1)), {}),
}


def block_layout(layout_name, index_width):
    """(clock-free layout, controls) of a _BLOCK_LAYOUTS entry."""
    registers, controls = _BLOCK_LAYOUTS[layout_name]
    return RegisterLayout(tuple((name, wd or index_width) for name, wd in registers)), controls


class TestSpread:
    """solver_block's one _accel.spread_solve pass, with random response
    tables, against the gate chain it writes: V^H on the target of the
    clock-free input, the Hadamard layer on a zero clock appended last, the
    ancilla rotation by (target value, clock value) tables, and V on the
    target, all controlled."""

    @staticmethod
    def check_against_chain(rng, monkeypatch, state, width, controls):
        before = state.amps.copy()
        big_t = 1 << width
        g_c, g_s = (rng.normal(size=(4, big_t)) + 1j * rng.normal(size=(4, big_t))
                    for _ in range(2))
        monkeypatch.setattr(qla, "_solver_response", lambda lam, config: (g_c, g_s))
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
            out = solver_block(state, cfg, system, "clock", "index", "anc", controls)
            assert np.abs(out.amps - expected.amps).max() <= 1e-12
        np.testing.assert_array_equal(state.amps, before)

    @pytest.mark.parametrize("width", range(1, 10))
    @pytest.mark.parametrize("layout_name", list(_BLOCK_LAYOUTS))
    def test_matches_hadamard_layer_on_a_zero_clock(self, rng, monkeypatch, width, layout_name):
        layout, controls = block_layout(layout_name, 2)
        self.check_against_chain(rng, monkeypatch, solver_input(rng, layout, controls), width,
                                 controls)

    @pytest.mark.parametrize("half", [False, True], ids=["real", "half-imaginary"])
    @pytest.mark.parametrize("layout_name", list(_BLOCK_LAYOUTS))
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

    def test_over_the_qubit_cap_is_an_input_error(self):
        # 2 + 1 input qubits and a 21-qubit clock: the new state would be 24 qubits
        state = init_basis(RegisterLayout((("index", 2), ("ancilla", 1))))
        with pytest.raises(InputError, match="exceeds the cap"):
            solver_block(state, QlaConfig(sv.DEFAULT_QUBIT_CAP - 1, t0=0.1, c=0.5), np.eye(4))


class TestSolverBlock:
    @pytest.mark.parametrize("n", [3, 4], ids=["padded", "unpadded"])
    @pytest.mark.parametrize("clock", range(1, 10))
    @pytest.mark.parametrize("layout_name", list(_BLOCK_LAYOUTS))
    def test_matches_three_op_sequence(self, rng, n, clock, layout_name):
        w = qla.index_width(n)
        layout, controls = block_layout(layout_name, w)
        big_t = 1 << clock
        cfg = QlaConfig(clock, t0=2 * math.pi * (big_t - 1) / big_t, c=0.25)  # spectrum in [0.3, 1)
        system = np.eye(1 << w, dtype=complex) * cfg.c  # padded as pad_system does, kept complex
        system[:n, :n] = random_hermitian(rng, n)
        state = solver_input(rng, layout, controls)
        before = state.amps.copy()
        out = solver_block(state, cfg, system, "clock", "index", "anc", controls)
        reference = reference_solver(state, cfg, system, "clock", "index", "anc", controls)
        assert out.layout == reference.layout
        assert np.abs(out.amps - reference.amps).max() <= 1e-12
        np.testing.assert_array_equal(state.amps, before)

    def test_response_memo_is_keyed_on_the_whole_config(self, rng):
        # one system, configs run in turn that differ from the one before only
        # in c, then only in t0, then only in the clock width: each must build
        # its own response rather than reuse the memoized one
        layout, controls = block_layout("before", 2)
        system = random_hermitian(rng, 4)  # spectrum in [0.3, 1)
        state = solver_input(rng, layout, controls)
        configs = [
            QlaConfig(5, t0=2 * math.pi * 31 / 32, c=0.25),
            QlaConfig(5, t0=2 * math.pi * 31 / 32, c=0.2),
            QlaConfig(5, t0=2 * math.pi * 21 / 32, c=0.2),
            QlaConfig(4, t0=2 * math.pi * 21 / 32, c=0.2),
        ]
        qla._solver_response.cache_clear()
        for cfg in configs:
            out = solver_block(state, cfg, system, "clock", "index", "anc", controls)
            reference = reference_solver(state, cfg, system, "clock", "index", "anc", controls)
            assert np.abs(out.amps - reference.amps).max() <= 1e-12
        assert qla._solver_response.cache_info().misses == len(configs)

    @pytest.mark.parametrize("layout_name", list(_BLOCK_LAYOUTS))
    def test_real_system_matches_its_complex_cast(self, rng, layout_name):
        layout, controls = block_layout(layout_name, 3)
        clock = 5
        cfg = QlaConfig(clock, t0=2 * math.pi * 31 / 32, c=0.25)
        system = np.eye(8) * cfg.c
        system[:5, :5] = random_spd(rng, 5, lo=0.3)  # padded as pad_system does
        state = solver_input(rng, layout, controls)
        out = solver_block(state, cfg, system, "clock", "index", "anc", controls)
        cast = solver_block(state, cfg, system.astype(complex), "clock", "index", "anc", controls)
        assert np.abs(out.amps - cast.amps).max() <= 1e-12

    @pytest.mark.parametrize("sparse", [True, False], ids=["sparse", "vector"])
    def test_qla_solve_matches_three_op_sequence(self, rng, monkeypatch, sparse):
        a = random_spd(rng, 5)
        b = rng.normal(size=5)
        cfg = config_for(a, 6, c=0.2)
        rhs = make_encoding(b) if sparse else b
        state, prob = qla_solve(rhs, a, cfg)
        monkeypatch.setattr(qla, "solver_block", reference_solver)
        ref_state, ref_prob = qla_solve(rhs, a, cfg)
        assert abs(prob - ref_prob) <= 1e-12
        assert np.abs(state.amps - ref_state.amps).max() <= 1e-12

    def test_wrong_system_size_leaves_state_unchanged(self):
        layout = RegisterLayout((("index", 1), ("ancilla", 1)))
        state = init_basis(layout)
        with pytest.raises(InputError):
            solver_block(state, QlaConfig(2, t0=0.1, c=0.5), np.eye(4))
        np.testing.assert_array_equal(state.amps, init_basis(layout).amps)

    def test_over_the_qubit_cap_fails_before_any_step(self, monkeypatch):
        # 3 + 1 input qubits and a 19-qubit clock: 23 qubits, one over the cap
        def no_step(*args, **kwargs):
            raise AssertionError("a step ran before the checks")

        monkeypatch.setattr(qla, "_solver_response", no_step)  # nor the response build
        monkeypatch.setattr(qla._accel, "spread_solve", no_step)
        monkeypatch.setattr(qla._accel, "apply_matrix", no_step)
        state = init_basis(RegisterLayout((("index", 3), ("ancilla", 1))))
        with pytest.raises(InputError, match="exceeds the cap"):
            solver_block(state, QlaConfig(19, t0=0.1, c=0.5), np.eye(8))
        np.testing.assert_array_equal(state.amps, init_basis(state.layout).amps)

    @pytest.mark.parametrize("layout_name", list(_BLOCK_LAYOUTS))
    def test_nonzero_controlled_ancilla_fails_before_any_step(self, rng, monkeypatch, layout_name):
        def no_step(*args, **kwargs):
            raise AssertionError("a step ran before the checks")

        monkeypatch.setattr(qla, "_solver_response", no_step)
        monkeypatch.setattr(qla._accel, "spread_solve", no_step)
        monkeypatch.setattr(qla._accel, "apply_matrix", no_step)
        layout, controls = block_layout(layout_name, 2)
        state = solver_input(rng, layout, controls)
        # one small amplitude on the last controlled row with the ancilla at 1
        rows = sv._register_view(layout, state.amps, {**controls, "anc": 1})
        rows[(-1,) * rows.ndim] = 1e-9
        before = state.amps.copy()
        with pytest.raises(InputError, match=r"must be \|0> on the controlled rows"):
            solver_block(state, QlaConfig(2, t0=1.0, c=0.25), np.eye(4) * 0.5, "clock", "index",
                         "anc", controls)
        np.testing.assert_array_equal(state.amps, before)

    @pytest.mark.parametrize("value", [1, 2])
    def test_two_qubit_control_matches_dense_controlled_solver(self, rng, value):
        # the rows where ctl holds ``value`` get the uncontrolled solver and the
        # rest get |0> on the clock, read off the register tensor: the values
        # 1 and 2 differ in both bits, so a control read in the wrong bit
        # order acts on the other block
        cfg = QlaConfig(3, t0=2 * math.pi * 7 / 8, c=0.25)
        system = random_hermitian(rng, 4)  # spectrum in [0.3, 1)
        state = random_state(rng, RegisterLayout((("ctl", 2), ("index", 2), ("anc", 1))))
        state.amps.reshape(4, 4, 2)[value, :, 1] = 0.0  # the ancilla is |0> on the controlled rows
        out = solver_block(state, cfg, system, "clock", "index", "anc", {"ctl": value})
        block = StateVector(RegisterLayout((("index", 2), ("anc", 1))),
                            state.amps.reshape(4, -1)[value])
        solved = solver_block(block, cfg, system, "clock", "index", "anc")
        zero_clock = np.eye(8)[0]
        for k, rows in enumerate(out.amps.reshape(4, -1)):
            expected = solved.amps if k == value else np.kron(state.amps.reshape(4, -1)[k], zero_clock)
            assert np.abs(rows - expected).max() <= 1e-12

    def test_qla_solve_complex_rhs_on_a_real_system(self, rng, monkeypatch):
        # a complex b on a real system: real V, complex ancilla-0 rows, the complex product
        a = random_spd(rng, 5)
        b = rng.normal(size=5) + 1j * rng.normal(size=5)
        cfg = config_for(a, 6, c=0.2)
        state, prob = qla_solve(b, a, cfg)
        monkeypatch.setattr(qla, "solver_block", reference_solver)
        ref_state, ref_prob = qla_solve(b, a, cfg)
        assert abs(prob - ref_prob) <= 1e-12
        assert np.abs(state.amps - ref_state.amps).max() <= 1e-12


class TestSolverResponse:
    """_solver_response builds its table gate by gate in eigen-index chunks of
    at most _CHUNK amplitudes (or of two eigen-indices), in place in the array
    it returns; the chunks change no bit of the table."""

    @staticmethod
    def response_input(rng, n, clock, kind):
        """(eigenvalue bytes, config) of a random real or complex system: the memo's key."""
        system = random_spd(rng, n) if kind == "real" else random_hermitian(rng, n)
        lam = sv.hermitian_eigh(system)[0]
        return lam.tobytes(), config_for(system, clock, c=float(lam[0]))

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("n, clock", [(2, 1), (16, 10), (128, 8), (8, 16)])
    def test_chunks_are_bit_identical_to_one_chunk(self, rng, monkeypatch, n, clock, kind):
        lam, cfg = self.response_input(rng, n, clock, kind)
        build = qla._solver_response.__wrapped__  # past the memo
        monkeypatch.setattr(qla, "_CHUNK", n << (clock + 1))  # every eigen-index in one chunk
        whole = build(lam, cfg)
        # two eigen-indices a chunk, four (a _CHUNK that is no power of two), the default
        for chunk in (1, 12 << clock, 1 << 14):
            monkeypatch.setattr(qla, "_CHUNK", chunk)
            for got, want in zip(build(lam, cfg), whole):
                assert np.array_equal(got, want)
                assert not got.flags.writeable

    def test_cold_build_at_the_qubit_cap_stays_within_32_mib(self, rng):
        # n = 8 with clock 16: the 22-qubit cap. The memo itself is 16 MiB;
        # the unchunked build peaked at 41 MiB
        lam, cfg = self.response_input(rng, 8, 16, "real")
        tracemalloc.start()
        try:
            qla._solver_response.__wrapped__(lam, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 << 20


class TestQlaSolve:
    @non_finite_systems
    def test_non_finite_system_is_refused(self, system):
        cfg = QlaConfig(4, t0=0.5, c=0.1)
        for _ in range(2):  # the memo caches no exception
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

    def test_random_instances_high_fidelity(self, rng):
        for _ in range(5):
            a = random_spd(rng, 4)
            b = rng.normal(size=4)
            cfg = config_for(a, 8, c=float(np.linalg.eigvalsh(a)[0]))
            state, _ = qla_solve(b, a, cfg)
            assert solution_overlap(state, np.linalg.solve(a, b)) >= 0.99

    def test_monotone_accuracy_in_clock_width(self, rng):
        instances = [(random_spd(rng, 4), rng.normal(size=4)) for _ in range(5)]
        medians = []
        for clock in (4, 6, 8):
            infids = []
            for a, b in instances:
                cfg = config_for(a, clock, c=float(np.linalg.eigvalsh(a)[0]))
                state, _ = qla_solve(b, a, cfg)
                infids.append(1.0 - solution_overlap(state, np.linalg.solve(a, b)))
            medians.append(np.median(infids))
        assert medians[0] >= medians[1] >= medians[2]

    def test_padding_of_odd_dimension(self, rng):
        # n=3 pads to 4 with c I; solution unchanged
        a3 = random_spd(rng, 3, lo=0.5, hi=1.0)
        b3 = rng.normal(size=3)
        cfg = config_for(a3, 8, c=0.45)
        state, _ = qla_solve(b3, a3, cfg)
        x = np.linalg.solve(a3, b3)
        assert solution_overlap(state, x) >= 0.99

    @pytest.mark.parametrize("n", [2, 3], ids=["unpadded", "padded"])
    def test_complex_hermitian_system_keeps_imaginary_part(self, rng, n):
        # casting to float would solve the real part instead (and warn); for
        # n = 2 that part is the identity, while lambda_max = 1.3
        if n == 2:
            a, b = np.array([[1.0, 0.3j], [-0.3j, 1.0]]), np.array([1.0, 0.0])
        else:
            a = random_hermitian(rng, n, lo=0.5, hi=1.0)
            b = rng.normal(size=n) + 1j * rng.normal(size=n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert gershgorin_bound(a) >= np.linalg.eigvalsh(a)[-1]
            cfg = config_for(a, 8, c=float(np.linalg.eigvalsh(a)[0]))
            state, _ = qla_solve(b, a, cfg)
        assert solution_overlap(state, np.linalg.solve(a, b)) >= 0.999

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


class TestPadSystem:
    @pytest.mark.parametrize("dim", [1, 2.5], ids=["smaller", "fraction"])
    def test_dimension_below_the_system_or_not_an_integer_rejected(self, dim):
        with pytest.raises(InputError, match="padded_dim"):
            pad_system(np.eye(2), dim, 0.5)

    def test_identity_when_power_of_two(self, rng):
        a = random_spd(rng, 4)
        np.testing.assert_array_equal(pad_system(a, 4, 0.3), a)

    def test_block_structure(self):
        out = pad_system(np.full((3, 3), 2.0), 4, 0.7)
        assert out.shape == (4, 4)
        assert out[3, 3] == 0.7
        np.testing.assert_array_equal(out[:3, 3], np.zeros(3))


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
