import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from qgpr import estimator, qla
from qgpr import statevector as sv
from qgpr.classical import dense_inverse, predict_exact
from qgpr.estimator import (
    M,
    BilinearSpec,
    EstimationResult,
    build_interference_state,
    estimate_bilinear,
    gpr_config,
    interference_layout,
    neumann_row,
    predict_mean_quantum,
    predict_variance_quantum,
    shots_for_precision,
    sparsify_y,
)
from qgpr.exceptions import ExpansionError, InputError
from qgpr.kernels import KernelSpec, TrainingSet, build_cross, build_model, eval_kernel
from qgpr.qla import QlaConfig, config_for, make_encoding
from qgpr.statevector import RegisterLayout, expectation, init_basis

from conftest import grid_spd, non_finite_systems, random_se_model, random_spd

SE = KernelSpec("squared-exponential", 1.0, 1.0)

# (shots, seed) pairs an estimate refuses: shots out of 1..MAX_SHOTS, a
# negative seed, and shots or a seed that is not an integer (a bool, a float);
# exact mode (shots None) draws nothing but checks the seed it records all the same
_BAD_SHOTS_AND_SEEDS = ((0, 0), (sv.MAX_SHOTS + 1, 0), (100, -1), (2.5, 0), (True, 0),
                        (1000.0, 0), (100, 1.5), (100, True),
                        (None, 1.5), (None, "x"), (None, -3), (None, True))


def exact_cfg(clock_qubits, lam_grid_unit, c):
    """Config whose clock grid is {k * lam_grid_unit}; lambda on the grid are exact."""
    big_t = 1 << clock_qubits
    t0 = 2.0 * math.pi / (big_t * lam_grid_unit)
    return QlaConfig(clock_qubits=clock_qubits, t0=t0, c=c)


def displayed_state(u, v, diag_lam, cfg):
    """The post-solver state built directly from the three-term expression.

    Assumes a diagonal system with exactly representable eigenvalues, so the
    eigenvectors are basis states and the clock returns to zero.
    """
    n = len(diag_lam)
    enc_u, enc_v = make_encoding(u), make_encoding(v)
    dim_b = 1 << max(1, math.ceil(math.log2(n)))
    big_t = 1 << cfg.clock_qubits

    def basis(dim, i):
        e = np.zeros(dim)
        e[i] = 1.0
        return e

    total = None
    for i in np.flatnonzero(u):
        amp_c = enc_u.c_v * u[i]
        cvec = np.array([math.sqrt(max(0.0, 1 - amp_c**2)), amp_c])
        term = np.kron(basis(2, 0), np.kron(basis(dim_b, i), np.kron(cvec, np.kron(basis(2, 1), basis(big_t, 0)))))
        term /= math.sqrt(2 * enc_u.s_v)
        total = term if total is None else total + term
    for i in np.flatnonzero(v):
        amp_c = enc_v.c_v * v[i]
        ratio = cfg.c / diag_lam[i]
        dvec = np.array([math.sqrt(max(0.0, 1 - ratio**2)), ratio])
        term = np.kron(basis(2, 1), np.kron(basis(dim_b, i), np.kron(basis(2, 1) * amp_c, np.kron(dvec, basis(big_t, 0)))))
        term /= math.sqrt(2 * enc_v.s_v)
        total = total + term
        rest = np.kron(basis(2, 1), np.kron(basis(dim_b, i), np.kron(basis(2, 0) * math.sqrt(max(0.0, 1 - amp_c**2)), np.kron(basis(2, 0), basis(big_t, 0)))))
        total = total + rest / math.sqrt(2 * enc_v.s_v)
    return total


class TestBuildInterferenceState:
    def test_matches_displayed_state_termwise(self):
        # diagonal system, eigenvalues on the clock grid: compare every amplitude
        lam = np.array([1.0, 2.0])
        cfg = exact_cfg(3, 1.0, c=1.0)
        u = np.array([0.8, -0.5])
        v = np.array([0.25, 1.0])
        spec = BilinearSpec(make_encoding(u), make_encoding(v), np.diag(lam), cfg)
        state = build_interference_state(spec)
        expected = displayed_state(u, v, lam, cfg)
        np.testing.assert_allclose(state.amps, expected, atol=1e-8)

    def test_scalar_system_expectation(self):
        # n=1, system [[1]], c=1: <M> = c_u * c_v * u A^{-1} v = c_u * c_v
        cfg = exact_cfg(3, 1.0, c=1.0)
        u = np.array([2.0])
        v = np.array([0.5])
        spec = BilinearSpec(make_encoding(u), make_encoding(v), np.array([[1.0]]), cfg)
        state = build_interference_state(spec)
        got = expectation(state, *M)
        assert got == pytest.approx(0.5 * 2.0, abs=1e-10)  # c_u=1/2, c_v=2 -> c_u*c_v=1; u A v = 1
        # spelled out: <M> = c c_u c_v / sqrt(s_u s_v) * u^T A^{-1} v
        assert got == pytest.approx(1.0 * 0.5 * 2.0 * (2.0 * 0.5), abs=1e-10)

    def test_equal_vectors_symmetric_construction(self):
        # u = v on the identity system: circuit state equals the displayed
        # expression whose only A-branch asymmetry is the D flag
        lam = np.array([1.0, 1.0])
        cfg = exact_cfg(3, 1.0, c=1.0)
        u = np.array([0.6, -1.0])
        spec = BilinearSpec(make_encoding(u), make_encoding(u), np.eye(2), cfg)
        state = build_interference_state(spec)
        expected = displayed_state(u, u, lam, cfg)
        np.testing.assert_allclose(state.amps, expected, atol=1e-8)

    def test_norm_is_one(self, rng):
        a, _ = grid_spd(rng, 4, 5, t0=2 * math.pi / 32)
        cfg = QlaConfig(5, t0=2 * math.pi / 32, c=1.0)
        spec = BilinearSpec(
            make_encoding(rng.normal(size=4)), make_encoding(rng.normal(size=4)), a, cfg
        )
        state = build_interference_state(spec)
        assert abs(state.norm() - 1.0) <= 1e-10

    def test_temporaries_above_the_state_stay_small(self, rng):
        # 20 qubits (n = 8, clock 14: A1 B3 C1 D1 E14), a 16 MiB state: the
        # clock spread, the solver response and V are written into it in pieces
        a = random_spd(rng, 8)
        cfg = config_for(a, 14, c=float(np.linalg.eigvalsh(a)[0]))
        u, v = (make_encoding(rng.normal(size=8)) for _ in range(2))
        spec = BilinearSpec(u, v, a, cfg)
        build_interference_state(spec)  # warms the eigenbasis and solver-response memos
        tracemalloc.start()
        try:
            state = build_interference_state(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert state.amps.nbytes == 16 << 20
        assert peak - state.amps.nbytes <= 3 << 20


class TestObservableM:
    def test_plus_one_one_state(self):
        layout = interference_layout(2, 3)
        state = init_basis(layout, {"C": 1, "D": 1})
        sv.apply_gate(state, sv.HADAMARD, "A")
        assert expectation(state, *M) == pytest.approx(1.0, abs=1e-12)

    def test_c_zero_component_scores_zero(self):
        layout = interference_layout(2, 3)
        state = init_basis(layout, {"C": 0, "D": 1})
        sv.apply_gate(state, sv.HADAMARD, "A")
        assert expectation(state, *M) == pytest.approx(0.0, abs=1e-12)

    def test_matches_dense_operator_oracle(self, rng):
        layout = RegisterLayout((("A", 1), ("B", 2), ("C", 1), ("D", 1), ("E", 2)))
        x = np.array([[0, 1], [1, 0]])
        p1 = np.diag([0.0, 1.0])
        dense = np.kron(np.kron(np.kron(np.kron(x, np.eye(4)), p1), p1), np.eye(4))
        for _ in range(10):
            amps = rng.normal(size=128) + 1j * rng.normal(size=128)
            amps /= np.linalg.norm(amps)
            state = sv.StateVector(layout, amps)
            oracle = np.vdot(amps, dense @ amps).real
            assert expectation(state, *M) == pytest.approx(oracle, abs=1e-10)

    def test_missing_register(self):
        layout = RegisterLayout((("A", 1), ("B", 1)))
        with pytest.raises(InputError):
            expectation(init_basis(layout), *M)


class TestEstimateBilinear:
    def test_identity_system_unit_vectors(self):
        cfg = exact_cfg(3, 1.0, c=1.0)
        e0 = np.array([1.0, 0.0])
        spec = BilinearSpec(make_encoding(e0), make_encoding(e0), np.eye(2), cfg)
        res = estimate_bilinear(spec)
        assert res.estimate == pytest.approx(1.0, abs=1e-10)
        assert res.std_error == 0.0 and res.shots == 0

    def test_sign_recovered(self):
        cfg = exact_cfg(3, 1.0, c=1.0)
        e0 = np.array([1.0, 0.0])
        spec = BilinearSpec(make_encoding(e0), make_encoding(-e0), np.eye(2), cfg)
        res = estimate_bilinear(spec)
        assert res.estimate == pytest.approx(-1.0, abs=1e-10)

    @non_finite_systems
    def test_non_finite_system_is_refused(self, system):
        cfg = QlaConfig(4, t0=0.5, c=0.1)
        spec = BilinearSpec(make_encoding([1.0, 0.5]), make_encoding([0.3, 1.0]), np.array(system), cfg)
        with pytest.raises(InputError, match="non-finite"):
            estimate_bilinear(spec)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_matches_dense_inverse_on_grid_systems(self, rng, n):
        t0 = 2 * math.pi / 64
        for _ in range(3):
            a, lam = grid_spd(rng, n, 6, t0)
            cfg = QlaConfig(6, t0, c=float(lam.min()))
            u, v = rng.normal(size=n), rng.normal(size=n)
            spec = BilinearSpec(make_encoding(u), make_encoding(v), a, cfg)
            res = estimate_bilinear(spec)
            truth = u @ dense_inverse(a) @ v
            assert res.estimate == pytest.approx(truth, abs=1e-6)

    def test_exact_at_the_qubit_cap(self, rng):
        # n = 8 with clock 16 is A1 + B3 + C1 + D1 + E16 = 22 qubits, the default cap
        assert interference_layout(8, 16).total_qubits == sv.DEFAULT_QUBIT_CAP
        a = random_spd(rng, 8)
        cfg = config_for(a, 16, c=float(np.linalg.eigvalsh(a)[0]))
        u, v = rng.normal(size=8), rng.normal(size=8)
        res = estimate_bilinear(BilinearSpec(make_encoding(u), make_encoding(v), a, cfg))
        assert res.estimate == pytest.approx(u @ np.linalg.solve(a, v), abs=1e-3)

    def test_one_warm_estimate_builds_two_layouts(self, rng, monkeypatch):
        # the A..D state's, and solver_block's with the clock E appended
        a = random_spd(rng, 4)
        cfg = config_for(a, 4, c=float(np.linalg.eigvalsh(a)[0]))
        spec = BilinearSpec(make_encoding(rng.normal(size=4)), make_encoding(rng.normal(size=4)),
                            a, cfg)
        estimate_bilinear(spec)  # warms the eigenbasis and solver-response memos
        built = []

        def counted(layout, original=RegisterLayout.__post_init__):
            built.append(tuple(name for name, _ in layout.registers))
            original(layout)

        monkeypatch.setattr(RegisterLayout, "__post_init__", counted)
        for shots in (None, 100):
            built.clear()
            estimate_bilinear(spec, shots, seed=1)
            assert built == [("A", "B", "C", "D"), ("A", "B", "C", "D", "E")]

    def test_clock_over_the_qubit_cap_fails_where_solver_block_appends_it(self, monkeypatch):
        # n = 8 with clock 17 is 23 qubits, one over the cap. Appending the
        # clock E in solver_block is the estimate's one cap check: it comes
        # before the response build and any clock-sized allocation
        def no_step(*args, **kwargs):
            raise AssertionError("a solver step ran before the cap check")

        monkeypatch.setattr(qla, "_solver_response", no_step)
        spec = BilinearSpec(make_encoding(np.ones(8)), make_encoding(np.ones(8)), np.eye(8),
                            QlaConfig(17, t0=0.1, c=0.5))
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match="exceeds the cap") as excinfo:
                estimate_bilinear(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "solver_block" in [entry.name for entry in excinfo.traceback]
        assert peak <= 1 << 20

    def test_negating_u_negates_estimate(self, rng):
        t0 = 2 * math.pi / 16
        a, lam = grid_spd(rng, 4, 4, t0)
        cfg = QlaConfig(4, t0, c=float(lam.min()))
        u, v = rng.normal(size=4), rng.normal(size=4)
        plus = estimate_bilinear(BilinearSpec(make_encoding(u), make_encoding(v), a, cfg))
        minus = estimate_bilinear(BilinearSpec(make_encoding(-u), make_encoding(v), a, cfg))
        assert minus.estimate == pytest.approx(-plus.estimate, abs=1e-12)

    def test_symmetry_in_u_and_v(self, rng):
        t0 = 2 * math.pi / 16
        a, lam = grid_spd(rng, 4, 4, t0)
        cfg = QlaConfig(4, t0, c=float(lam.min()))
        u, v = rng.normal(size=4), rng.normal(size=4)
        r_uv = estimate_bilinear(BilinearSpec(make_encoding(u), make_encoding(v), a, cfg))
        r_vu = estimate_bilinear(BilinearSpec(make_encoding(v), make_encoding(u), a, cfg))
        assert r_uv.estimate == pytest.approx(r_vu.estimate, abs=1e-6)

    def test_sampled_sign_recovery(self):
        cfg = exact_cfg(3, 1.0, c=1.0)
        u = np.array([0.9, 0.2])
        v = np.array([-0.7, 0.4])
        a = np.diag([1.0, 2.0])
        plus = estimate_bilinear(
            BilinearSpec(make_encoding(u), make_encoding(v), a, cfg), 100_000, 0
        )
        minus = estimate_bilinear(
            BilinearSpec(make_encoding(-u), make_encoding(v), a, cfg), 100_000, 1
        )
        sigma = math.hypot(plus.std_error, minus.std_error)
        assert abs(plus.estimate + minus.estimate) <= 3 * sigma
        truth = u @ np.linalg.inv(a) @ v
        assert abs(plus.estimate - truth) <= 4 * plus.std_error

    def test_sampled_determinism(self):
        cfg = exact_cfg(3, 1.0, c=1.0)
        spec = BilinearSpec(
            make_encoding([1.0, 0.5]), make_encoding([0.5, 1.0]), np.diag([1.0, 2.0]), cfg
        )
        a = estimate_bilinear(spec, 5000, seed=9)
        b = estimate_bilinear(spec, 5000, seed=9)
        assert a == b

    def test_length_mismatch(self):
        cfg = exact_cfg(3, 1.0, c=1.0)
        with pytest.raises(InputError):
            BilinearSpec(make_encoding([1.0]), make_encoding([1.0, 2.0]), np.eye(2), cfg)

    def test_shots_or_seed_out_of_range_fail_before_the_state_is_built(self, monkeypatch):
        def no_state(spec):
            raise AssertionError("the state was built before shots and seed were checked")

        monkeypatch.setattr(estimator, "build_interference_state", no_state)
        cfg = exact_cfg(3, 1.0, c=1.0)
        spec = BilinearSpec(make_encoding([1.0]), make_encoding([1.0]), np.eye(1), cfg)
        for shots, seed in _BAD_SHOTS_AND_SEEDS:
            with pytest.raises(InputError):
                estimate_bilinear(spec, shots, seed=seed)


class TestPredictMeanQuantum:
    def test_canonical_scalar_instance(self):
        model = build_model(TrainingSet([[0.0]], [2.0]), SE, 1.0)
        res = predict_mean_quantum(model, [0.0], gpr_config(model, 8))
        assert res.estimate == pytest.approx(1.0, abs=1e-9)

    def test_single_visible_target(self, rng):
        # y = (0, ..., 0, eta): estimate is eta * (k_*^T A^{-1} e_{n-1})
        spec = KernelSpec("compact-support", 0.5, 1.0, cutoff_radius=2.0)
        X = np.array([[0.0], [0.8], [1.6], [2.4]])
        eta = 1.7
        y = np.array([0.0, 0.0, 0.0, eta])
        model = build_model(TrainingSet(X, y), spec, 1.0)
        res = predict_mean_quantum(model, [1.2], gpr_config(model, 9))
        k = build_cross(model, [1.2])
        truth = eta * (k @ np.linalg.inv(model.system))[3]
        assert res.estimate == pytest.approx(truth, rel=0.02, abs=5e-4)

    def test_zero_cross_covariance_skips_circuit(self):
        spec = KernelSpec("compact-support", 1.0, 1.0, cutoff_radius=1.0)
        model = build_model(TrainingSet([[0.0]], [2.0]), spec, 1.0)
        res = predict_mean_quantum(model, [10.0], gpr_config(model, 8))
        assert res == EstimationResult(0.0, 0.0, 0, 0.0, 0.0, res.config, res.seed)
        sampled = predict_mean_quantum(model, [10.0], gpr_config(model, 8), shots=300, seed=4)
        assert sampled == EstimationResult(0.0, 0.0, 300, 0.0, 0.0, res.config, 4)
        for shots, seed in _BAD_SHOTS_AND_SEEDS:
            with pytest.raises(InputError):
                predict_mean_quantum(model, [10.0], gpr_config(model, 8), shots=shots, seed=seed)

    def test_n4_within_tolerance(self, rng):
        model = random_se_model(rng, n=4)
        x_star = [0.4]
        res = predict_mean_quantum(model, x_star, gpr_config(model, 8))
        truth = predict_exact(model, x_star).mean
        assert abs(res.estimate - truth) <= 0.05 * abs(truth) + 0.01


class TestPredictVarianceQuantum:
    def test_canonical_scalar_instance(self):
        model = build_model(TrainingSet([[0.0]], [2.0]), SE, 1.0)
        res = predict_variance_quantum(model, [0.0], gpr_config(model, 8))
        assert res.estimate == pytest.approx(0.5, abs=1e-9)

    def test_zero_cross_covariance_gives_prior_variance(self):
        spec = KernelSpec("compact-support", 1.3, 1.0, cutoff_radius=1.0)
        model = build_model(TrainingSet([[0.0]], [2.0]), spec, 1.0)
        res = predict_variance_quantum(model, [10.0], gpr_config(model, 8))
        assert res.estimate == pytest.approx(1.3)
        # beyond the cutoff the mean is the prior mean too
        assert predict_mean_quantum(model, [10.0], gpr_config(model, 8)).estimate == 0.0
        assert predict_exact(model, [10.0]).mean == 0.0

    def test_n4_within_tolerance(self, rng):
        model = random_se_model(rng, n=4)
        x_star = [0.4]
        res = predict_variance_quantum(model, x_star, gpr_config(model, 8))
        truth = predict_exact(model, x_star).variance
        assert abs(res.estimate - truth) <= 0.05 * abs(truth) + 0.01

    def test_small_negative_estimate_is_clamped_to_zero(self, monkeypatch):
        # a bilinear form just above k(x, x): the subtraction reads -5e-4
        model = build_model(TrainingSet([[0.0]], [2.0]), SE, 1.0)
        k_ss = eval_kernel(model.kernel, [0.0], [0.0])
        stub = EstimationResult(k_ss + 5e-4, 0.0, 0, 0.0, 0.0, None, 0)
        monkeypatch.setattr(estimator, "_k_star_form", lambda *args: stub)
        res = predict_variance_quantum(model, [0.0], gpr_config(model, 8))
        assert res.estimate == 0.0

    def test_consistent_with_mean_path_on_k_star(self, rng):
        # replacing y by k_* in the mean estimator reproduces the bilinear
        # value subtracted by the variance estimator
        model = random_se_model(rng, n=4)
        x_star = [0.3]
        cfg = gpr_config(model, 7)
        k_star = build_cross(model, x_star)
        k_ss = eval_kernel(model.kernel, x_star, x_star)
        swapped = build_model(
            TrainingSet(model.training.X, k_star), model.kernel, model.noise_variance
        )
        mean_path = predict_mean_quantum(swapped, x_star, cfg)
        var_path = predict_variance_quantum(model, x_star, cfg)
        assert k_ss - var_path.estimate == pytest.approx(mean_path.estimate, abs=1e-10)


class TestGprInversionConstant:
    @pytest.mark.parametrize("predict", [predict_mean_quantum, predict_variance_quantum])
    @pytest.mark.parametrize("x_star", [[0.4], [10.0]], ids=["circuit", "zero-k_star"])
    def test_c_is_forced_to_noise_variance(self, predict, x_star):
        spec = KernelSpec("compact-support", 1.0, 1.0, cutoff_radius=1.5)
        model = build_model(TrainingSet([[0.0], [0.5], [1.0]], [1.0, -0.5, 2.0]), spec, 0.5)
        cfg = gpr_config(model, 8)
        res = predict(model, x_star, replace(cfg, c=model.noise_variance / 2))
        assert res.config.c == model.noise_variance
        assert res == predict(model, x_star, cfg)


class TestMetamorphic:
    """Exact-mode invariances of the quantum GPR estimators."""

    X_STAR = [0.3]

    def _quantum(self, model):
        cfg = gpr_config(model, 6)
        return (
            predict_mean_quantum(model, self.X_STAR, cfg).estimate,
            predict_variance_quantum(model, self.X_STAR, cfg).estimate,
        )

    def test_permuting_training_rows(self, rng):
        model = random_se_model(rng, n=6)
        perm = rng.permutation(6)
        permuted = build_model(
            TrainingSet(model.training.X[perm], model.training.y[perm]),
            model.kernel, model.noise_variance,
        )
        mean, var = self._quantum(model)
        mean_p, var_p = self._quantum(permuted)
        assert mean_p == pytest.approx(mean, rel=0, abs=1e-12)
        assert var_p == pytest.approx(var, rel=0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [3.7, -0.4])
    def test_scaling_targets(self, rng, alpha):
        model = random_se_model(rng, n=6)
        scaled = build_model(
            TrainingSet(model.training.X, alpha * model.training.y),
            model.kernel, model.noise_variance,
        )
        mean, var = self._quantum(model)
        mean_s, var_s = self._quantum(scaled)
        assert mean_s == pytest.approx(alpha * mean, rel=1e-12, abs=1e-12)
        assert var_s == pytest.approx(var, rel=0, abs=1e-12)
        exact, exact_s = predict_exact(model, self.X_STAR), predict_exact(scaled, self.X_STAR)
        assert exact_s.mean == pytest.approx(alpha * exact.mean, rel=1e-12, abs=1e-12)
        assert exact_s.variance == pytest.approx(exact.variance, rel=0, abs=1e-12)


class TestShotsForPrecision:
    def _pilot(self, std_error, shots):
        return EstimationResult(0.0, std_error, shots, 0.0, 1.0, None, 0)

    def test_identity_case(self):
        assert shots_for_precision(0.1, self._pilot(0.1, 100)) == 100

    def test_inverse_square_law(self):
        assert shots_for_precision(0.05, self._pilot(0.1, 100)) == 400
        assert shots_for_precision(0.025, self._pilot(0.1, 100)) == 1600

    def test_requires_real_pilot(self):
        with pytest.raises(InputError):
            shots_for_precision(0.1, self._pilot(0.1, 50))
        with pytest.raises(InputError):
            shots_for_precision(0.0, self._pilot(0.1, 100))

    def test_achieves_target(self, rng):
        model = random_se_model(rng, n=2)
        cfg = gpr_config(model, 5)
        x_star = [0.1]
        delta = 0.08
        hits = 0
        trials = 20
        for seed in range(trials):
            pilot = predict_mean_quantum(model, x_star, cfg, shots=400, seed=seed)
            n_rec = shots_for_precision(delta, pilot)
            check = predict_mean_quantum(
                model, x_star, cfg, shots=n_rec, seed=1000 + seed
            )
            if check.std_error <= 1.5 * delta:
                hits += 1
        assert hits >= 0.9 * trials


_NAN = float("nan")
_PILOT = EstimationResult(0.0, 0.1, 100, 0.0, 1.0, None, 0)
_TRAINING = TrainingSet(np.array([[0.0], [1.0]]), np.array([1.0, -1.0]))


@pytest.mark.parametrize(
    "make",
    [
        lambda: KernelSpec("squared-exponential", _NAN, 1.0),
        lambda: KernelSpec("squared-exponential", 1.0, _NAN),
        lambda: KernelSpec("compact-support", 1.0, 1.0, cutoff_radius=_NAN),
        lambda: build_model(_TRAINING, SE, _NAN),
        lambda: QlaConfig(2, t0=_NAN, c=0.5),
        lambda: QlaConfig(2, t0=1.0, c=_NAN),
        lambda: shots_for_precision(_NAN, _PILOT),
    ],
    ids=[
        "signal_variance",
        "lengthscale",
        "cutoff_radius",
        "noise_variance",
        "t0",
        "c",
        "delta",
    ],
)
def test_nan_hyperparameter_is_input_error(make):
    with pytest.raises(InputError):
        make()


class TestShotNoiseScaling:
    def test_std_error_shrinks_like_root_shots(self, rng):
        model = random_se_model(rng, n=2)
        cfg = gpr_config(model, 5)
        x_star = [0.2]
        ests = {1000: [], 100_000: []}
        for shots in ests:
            for seed in range(30):
                res = predict_mean_quantum(
                    model, x_star, cfg, shots=shots, seed=seed
                )
                ests[shots].append(res.estimate)
        ratio = np.std(ests[1000], ddof=1) / np.std(ests[100_000], ddof=1)
        assert 5.0 <= ratio <= 20.0  # 10x within a factor of 2


def random_interference_state(rng, n, clock, complex_system=False):
    """An interference state whose <M> is well away from 0 (v is u plus noise),
    for a real symmetric or a complex Hermitian system."""
    a = random_spd(rng, n)
    if complex_system:
        q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        a = (q * np.linalg.eigvalsh(a)) @ q.conj().T
    cfg = config_for(a, clock, c=float(np.linalg.eigvalsh(a)[0]))
    u = rng.normal(size=n)
    v = u + 0.5 * rng.normal(size=n)
    spec = BilinearSpec(make_encoding(u), make_encoding(v), a, cfg)
    return spec, build_interference_state(spec)


class TestSampledReadout:
    @pytest.mark.parametrize("n, clock", [(2, 3), (5, 6), (8, 8)])
    def test_counts_fit_the_exact_distribution(self, rng, n, clock):
        # Pearson chi-square of M's counts against P(M = -/+1) = (P(C=1,D=1) -/+ <M>) / 2
        # and P(M = 0) = 1 - P(C=1,D=1), both read in exact mode. With 2 degrees
        # of freedom the 1% critical value is -2 ln 0.01; a correct sampler fails
        # more than 4 of the 50 seeds with probability 1.5e-4.
        _, state = random_interference_state(rng, n, clock)
        m = expectation(state, *M)
        s = expectation(state, None, {"C": 1, "D": 1})
        expected = 10_000 * np.array([(s - m) / 2.0, 1.0 - s, (s + m) / 2.0])
        failures = 0
        for seed in range(50):
            counts = sv.sample_observable(state, *M, 10_000, seed)
            assert counts.sum() == 10_000
            failures += ((counts - expected) ** 2 / expected).sum() > -2.0 * math.log(0.01)
        assert failures <= 4

    def test_estimate_reads_the_counts(self, rng):
        # mean, sample standard deviation (ddof = 1) and success fraction of the
        # shots the counts stand for
        spec, state = random_interference_state(rng, 4, 5)
        res = estimate_bilinear(spec, 3000, seed=7)
        counts = sv.sample_observable(state, *M, 3000, 7)
        shots = np.repeat([-1.0, 0.0, 1.0], counts)
        sd = shots.std(ddof=1) / math.sqrt(shots.size)
        scale = math.sqrt(spec.u.s_v * spec.v.s_v) / (spec.config.c * spec.u.c_v * spec.v.c_v)
        assert res.raw_mean == pytest.approx(shots.mean(), rel=1e-12)
        assert res.estimate == pytest.approx(shots.mean() * scale, rel=1e-12)
        assert res.std_error == pytest.approx(sd * scale, rel=1e-12)
        assert res.success_fraction == pytest.approx(np.mean(shots != 0.0), rel=1e-12)
        one = estimate_bilinear(spec, 1, seed=7)
        assert one.std_error == 0.0 and one.raw_mean in (-1.0, 0.0, 1.0)


class TestReadout:
    @pytest.mark.parametrize("complex_system", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("n, clock", [(3, 4), (8, 6), (16, 8)])
    def test_exact_mode_reads_the_post_selected_slices(self, rng, n, clock, complex_system):
        # <M> = 2 Re<psi[A=0,C=1,D=1] | psi[A=1,C=1,D=1]> and P(C=1,D=1) = |psi[C=1,D=1]|^2
        spec, state = random_interference_state(rng, n, clock, complex_system)
        assert np.iscomplexobj(spec.system) == complex_system
        res = estimate_bilinear(spec)
        psi = state.amps.reshape(state.layout.dims)  # axes A, B, C, D, E
        cross = 2.0 * np.vdot(psi[0, :, 1, 1, :], psi[1, :, 1, 1, :]).real
        assert abs(res.raw_mean - cross) <= 1e-15
        assert abs(res.success_fraction - np.linalg.norm(psi[:, :, 1, 1, :]) ** 2) <= 1e-15

    @pytest.mark.parametrize("shots", [1, 2, 3, 100, 5000])
    def test_std_error_is_the_three_term_sample_deviation(self, rng, shots):
        # sum over the shots of (x - mean)^2 / (shots - 1) / shots, in exact
        # rational arithmetic, against the one-line form sqrt((w - mean^2) / (shots - 1))
        spec, state = random_interference_state(rng, 4, 5)
        scale = math.sqrt(spec.u.s_v * spec.v.s_v) / (spec.config.c * spec.u.c_v * spec.v.c_v)
        for seed in range(6):
            res = estimate_bilinear(spec, shots, seed=seed)
            minus, zero, plus = map(int, sv.sample_observable(state, *M, shots, seed))
            mean = Fraction(plus - minus, shots)
            squares = minus * (-1 - mean) ** 2 + zero * mean**2 + plus * (1 - mean) ** 2
            var = squares / (shots - 1) / shots if shots > 1 else Fraction(0)
            assert res.std_error == pytest.approx(math.sqrt(var) * scale, rel=1e-12, abs=0)


class TestSparsifyY:
    def _line_model(self, n, order_radius=1.0, signal=0.05, noise=1.0):
        # colinear points 0.8 apart: only adjacent pairs are within the cutoff
        X = 0.8 * np.arange(n, dtype=float).reshape(-1, 1)
        y = np.linspace(1.0, 2.0, n)
        spec = KernelSpec("compact-support", signal, 1.0, cutoff_radius=order_radius)
        return build_model(TrainingSet(X, y), spec, noise)

    def test_diagonal_gram_keeps_cross_support(self):
        model = self._line_model(6, order_radius=0.5)  # no neighbours: diagonal K
        x_star = [0.8 * 2]
        y_sparse = sparsify_y(model, x_star, 3)
        k_star = build_cross(model, x_star)
        np.testing.assert_array_equal(y_sparse != 0, k_star != 0)

    def test_order_one_keeps_cross_support(self):
        model = self._line_model(8)
        x_star = [0.8 * 3]
        y_sparse = sparsify_y(model, x_star, 1)
        k_star = build_cross(model, x_star)
        np.testing.assert_array_equal(y_sparse != 0, k_star != 0)

    def test_banded_support_widens_one_step_per_order(self):
        model = self._line_model(10)
        x_star = [0.8 * 4]
        supp1 = np.flatnonzero(sparsify_y(model, x_star, 1))
        supp2 = np.flatnonzero(sparsify_y(model, x_star, 2))
        np.testing.assert_array_equal(supp1, [3, 4, 5])
        np.testing.assert_array_equal(supp2, [2, 3, 4, 5, 6])

    def test_identity_holds_exactly(self):
        # oracle: build T_x as an explicit matrix polynomial and compare the
        # bilinear forms with full y and sparsified y bit for bit
        model = self._line_model(10)
        x_star = [0.8 * 4]
        k_star = build_cross(model, x_star)
        sigma2 = model.noise_variance
        for order in (1, 2, 3):
            t_x = np.zeros_like(model.gram)
            power = np.eye(model.n)
            for j in range(order):
                t_x += ((-1.0) ** j / sigma2 ** (j + 1)) * power
                power = power @ model.gram
            y_sparse = sparsify_y(model, x_star, order)
            assert k_star @ t_x @ y_sparse == k_star @ t_x @ model.training.y

    def test_row_matches_matrix_oracle(self):
        model = self._line_model(8)
        x_star = [0.8 * 3]
        k_star = build_cross(model, x_star)
        sigma2 = model.noise_variance
        t2 = np.eye(8) / sigma2 - model.gram / sigma2**2
        np.testing.assert_allclose(neumann_row(model, x_star, 2), k_star @ t2, atol=1e-12)

    def test_divergent_expansion_rejected(self, rng):
        model = random_se_model(rng, n=4, noise_variance=0.05)  # rho(K) > sigma^2
        with pytest.raises(ExpansionError):
            sparsify_y(model, [0.0], 2)

    def test_order_validation(self):
        model = self._line_model(4)  # a convergent expansion: only the order is wrong
        for order in (0, 2.5, True, 2.0):
            for fn in (sparsify_y, neumann_row):
                with pytest.raises(InputError, match="order"):
                    fn(model, [0.0], order)
