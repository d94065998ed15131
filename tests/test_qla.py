import math
import warnings

import numpy as np
import pytest

from qgpr import qla
from qgpr import statevector as sv
from qgpr.exceptions import ConfigError, InputError, ZeroProbabilityError
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

from conftest import random_spd


def clock_distribution(state, clock="clock"):
    lay = state.layout
    probs = np.abs(state.amps.reshape(lay.dims())) ** 2
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
_CFG = QlaConfig(clock_qubits=2, t0=1.0, c=0.5)


@pytest.mark.parametrize(
    "op",
    [
        lambda s: sv.apply_gate(s, sv.PAULI_X, ("anc", 0), [("anc", 0, 1)]),
        lambda s: sv.apply_gate(s, np.eye(4), [("anc", 0), ("anc", 0)]),
        lambda s: sv.reflect(s, np.array([0.6, 0.8]), ("anc", 0), [("anc", 0, 1)]),
        lambda s: sv.qft(s, "clock", controls=[("clock", 1, 1)]),
        lambda s: sv.controlled_evolution(s, "clock", "index", np.eye(2), 1.0, [("index", 0, 1)]),
        lambda s: sv.controlled_evolution(s, "clock", "index", np.eye(2), 1.0, [("clock", 0, 1)]),
        lambda s: sv.controlled_evolution(s, "index", "index", np.eye(2), 1.0),
        lambda s: eigenvalue_inversion(s, "clock", "anc", _CFG, [("clock", 1, 1)]),
        lambda s: eigenvalue_inversion(s, "clock", "anc", _CFG, [("anc", 0, 1)]),
        lambda s: phase_estimate(s, config_for(np.eye(2), 2, c=0.5), np.eye(2),
                                 controls=[("index", 0, 1)]),
        lambda s: solver_block(s, _CFG, np.eye(2), ancilla="anc", controls=[("anc", 0, 1)]),
        lambda s: solver_block(s, _CFG, np.eye(2), ancilla="index"),
        lambda s: solver_block(s, _CFG, np.eye(2), ancilla="clock"),
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
    ],
)
def test_overlapping_qubits_are_input_errors(rng, op):
    # ops act in place, so an op that raises must do so before changing the state
    amps = rng.normal(size=16) + 1j * rng.normal(size=16)
    state = StateVector(_LAYOUT, amps / np.linalg.norm(amps))
    before = state.copy()
    with pytest.raises(InputError):
        op(state)
    np.testing.assert_array_equal(state.amps, before.amps)


_SYSTEM = np.array([[1.0, 0.3], [0.3, 0.8]])  # eigenvalues 0.58 and 1.22: valid for _CFG


@pytest.mark.parametrize(
    "op",
    [
        lambda s: sv.apply_gate(s, sv.HADAMARD, ("anc", 0), [("index", 0, 1)]),
        lambda s: sv.reflect(s, np.array([0.6, 0.8]), ("anc", 0)),
        lambda s: sv.qft(s, "clock"),
        lambda s: sv.qft(s, "clock", inverse=True),
        lambda s: sv.controlled_evolution(s, "clock", "index", _SYSTEM, 1.0),
        lambda s: eigenvalue_inversion(s, "clock", "anc", _CFG),
        lambda s: phase_estimate(s, _CFG, _SYSTEM),
        lambda s: phase_estimate(s, _CFG, _SYSTEM, inverse=True),
        lambda s: solver_block(s, _CFG, _SYSTEM, ancilla="anc"),
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
def test_ops_act_in_place(rng, op):
    amps = rng.normal(size=16) + 1j * rng.normal(size=16)
    state = StateVector(_LAYOUT, amps / np.linalg.norm(amps))
    buffer, before = state.amps, state.copy()
    snapshot = state.amps.copy()
    assert op(state) is None
    assert state.amps is buffer
    assert np.abs(state.amps - snapshot).max() > 1e-3  # the op changed the buffer
    np.testing.assert_array_equal(before.amps, snapshot)


def reference_solver(state, cfg, system, clock="clock", target="index", ancilla="ancilla", controls=()):
    """The solver as three separate ops, each with its own basis change."""
    phase_estimate(state, cfg, system, clock=clock, target=target, controls=controls)
    eigenvalue_inversion(state, clock, ancilla, cfg, controls=controls)
    phase_estimate(state, cfg, system, clock=clock, target=target, controls=controls, inverse=True)


def random_hermitian(rng, n, lo=0.3, hi=1.0):
    """Complex Hermitian matrix with spectrum inside [lo, hi]."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return (q * rng.uniform(lo, hi, size=n)) @ q.conj().T


# (registers, controls): no controls, then controls before, between and after
# the clock and the target, then the two layouts qla_solve builds
_BLOCK_LAYOUTS = {
    "none": ((("index", None), ("anc", 1), ("clock", None)), ()),
    "before": ((("ctl", 2), ("index", None), ("anc", 1), ("clock", None)),
               (("ctl", 0, 1), ("ctl", 1, 0))),
    "between": ((("clock", None), ("ctl", 2), ("anc", 1), ("index", None)),
                (("ctl", 1, 1), ("ctl", 0, 1))),
    "after": ((("anc", 1), ("index", None), ("clock", None), ("ctl", 2)),
              (("ctl", 0, 0), ("ctl", 1, 1))),
    "qla_solve-sparse": ((("index", None), ("flag", 1), ("anc", 1), ("clock", None)), ()),
    "qla_solve-vector": ((("index", None), ("anc", 1), ("clock", None)), ()),
}


class TestSolverBlock:
    @pytest.mark.parametrize("n", [3, 4], ids=["padded", "unpadded"])
    @pytest.mark.parametrize("clock", range(1, 10))
    @pytest.mark.parametrize("layout_name", list(_BLOCK_LAYOUTS))
    def test_matches_three_op_sequence(self, rng, n, clock, layout_name):
        registers, controls = _BLOCK_LAYOUTS[layout_name]
        w = qla.index_width(n)
        big_t = 1 << clock
        cfg = QlaConfig(clock, t0=2 * math.pi * (big_t - 1) / big_t, c=0.25)  # spectrum in [0.3, 1)
        system = np.eye(1 << w, dtype=complex) * cfg.c  # padded as pad_system does, kept complex
        system[:n, :n] = random_hermitian(rng, n)
        widths = {"index": w, "clock": clock}
        layout = RegisterLayout(tuple((name, wd or widths[name]) for name, wd in registers))
        amps = rng.normal(size=1 << layout.total_qubits) + 1j * rng.normal(size=1 << layout.total_qubits)
        state = StateVector(layout, amps / np.linalg.norm(amps))
        reference = state.copy()
        solver_block(state, cfg, system, "clock", "index", "anc", controls)
        reference_solver(reference, cfg, system, "clock", "index", "anc", controls)
        assert np.abs(state.amps - reference.amps).max() <= 1e-12

    @pytest.mark.parametrize("layout_name", list(_BLOCK_LAYOUTS))
    def test_real_system_matches_its_complex_cast(self, rng, layout_name):
        registers, controls = _BLOCK_LAYOUTS[layout_name]
        clock = 5
        cfg = QlaConfig(clock, t0=2 * math.pi * 31 / 32, c=0.25)
        system = np.eye(8) * cfg.c
        system[:5, :5] = random_spd(rng, 5, lo=0.3)  # padded as pad_system does
        widths = {"index": 3, "clock": clock}
        layout = RegisterLayout(tuple((name, wd or widths[name]) for name, wd in registers))
        amps = rng.normal(size=1 << layout.total_qubits) + 1j * rng.normal(size=1 << layout.total_qubits)
        state = StateVector(layout, amps / np.linalg.norm(amps))
        cast = state.copy()
        solver_block(state, cfg, system, "clock", "index", "anc", controls)
        solver_block(cast, cfg, system.astype(complex), "clock", "index", "anc", controls)
        assert np.abs(state.amps - cast.amps).max() <= 1e-12

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
        layout = RegisterLayout((("index", 1), ("ancilla", 1), ("clock", 2)))
        state = init_basis(layout)
        with pytest.raises(InputError):
            solver_block(state, QlaConfig(2, t0=0.1, c=0.5), np.eye(4))
        np.testing.assert_array_equal(state.amps, init_basis(layout).amps)


class TestQlaSolve:
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


class TestPadSystem:
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
