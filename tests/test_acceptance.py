"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from qgpr.classical import cg_solve, dense_inverse, predict_exact
from qgpr.cli import EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, main
from qgpr.estimator import (
    BilinearSpec,
    estimate_bilinear,
    gpr_config,
    predict_mean_quantum,
    predict_variance_quantum,
    shots_for_precision,
    sparsify_y,
)
from qgpr.kernels import (
    KernelSpec,
    TrainingSet,
    build_cross,
    build_model,
    diagnostics,
    eval_kernel,
)
from qgpr.qla import (
    QlaConfig,
    config_for,
    hermitianize,
    make_encoding,
    prepare_sparse_state,
    qla_solve,
    solution_overlap,
)
from qgpr.statevector import RegisterLayout, project

from conftest import grid_spd, random_se_model, random_spd


@contextmanager
def criterion(num, text):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2d}: FAIL - {text}")
        raise
    print(f"ACCEPTANCE {num:2d}: PASS - {text}")


def test_criterion_01_classical_oracle_correctness():
    with criterion(1, "classical oracle: Cholesky, dense inverse, and CG agree to 1e-8"):
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        cases = 0
        while cases < 50:
            n = int(rng.choice([2, 4, 8, 16]))
            d = int(rng.choice([1, 2]))
            model = random_se_model(rng, n=n, d=d)
            x_star = rng.uniform(-2, 2, size=d)
            k = build_cross(model, x_star)
            k_ss = eval_kernel(model.kernel, x_star, x_star)
            y = model.training.y

            pred = predict_exact(model, x_star)
            inv = dense_inverse(model.system)
            mean_inv = k @ inv @ y
            var_inv = k_ss - k @ inv @ k
            mean_cg = k @ cg_solve(model.system, y, tol=1e-12)
            var_cg = k_ss - k @ cg_solve(model.system, k, tol=1e-12)

            ref_m = abs(pred.mean) + 1e-12
            ref_v = abs(pred.variance) + 1e-12
            assert abs(pred.mean - mean_inv) / ref_m <= 1e-8
            assert abs(pred.mean - mean_cg) / ref_m <= 1e-8
            assert abs(pred.variance - var_inv) / ref_v <= 1e-8
            assert abs(pred.variance - var_cg) / ref_v <= 1e-8
            cases += 1
        assert time.perf_counter() - start < 5.0


def test_criterion_02_qla_exact_phase_exactness():
    with criterion(2, "QLA exact-phase solves are exact (fidelity and success probability)"):
        rng = np.random.default_rng(202)
        for n in (2, 4):
            for clock in (3, 4):
                big_t = 1 << clock
                t0 = 2.0 * math.pi / big_t  # clock grid: lambda = k
                ks = rng.choice(np.arange(1, big_t), size=n, replace=False)
                lam = ks.astype(float)
                a = np.diag(lam)
                b = rng.normal(size=n)
                cfg = QlaConfig(clock, t0, c=float(lam.min()))
                state, prob = qla_solve(b, a, cfg)
                x = np.linalg.solve(a, b)
                assert solution_overlap(state, x) >= 1.0 - 1e-8
                b_hat = b / np.linalg.norm(b)
                expected = float(np.linalg.norm(cfg.c * np.linalg.solve(a, b_hat)) ** 2)
                assert prob == pytest.approx(expected, abs=1e-8)


def test_criterion_03_qla_generic_accuracy():
    with criterion(3, "QLA on 20 random SPD systems: fidelity >= 0.99 median, >= 0.95 worst"):
        rng = np.random.default_rng(303)
        start = time.perf_counter()
        fidelities = []
        for _ in range(20):
            a = random_spd(rng, 4, lo=0.25, hi=1.0)
            b = rng.normal(size=4)
            cfg = config_for(a, 8, c=float(np.linalg.eigvalsh(a)[0]))
            state, _ = qla_solve(b, a, cfg)
            fidelities.append(solution_overlap(state, np.linalg.solve(a, b)))
        fidelities = np.array(fidelities)
        assert np.median(fidelities) >= 0.99
        assert fidelities.min() >= 0.95
        assert time.perf_counter() - start < 60.0


def test_criterion_04_bilinear_estimator_identity():
    with criterion(4, "bilinear estimator reproduces u^T A^-1 v to 1e-6 with correct sign"):
        rng = np.random.default_rng(404)
        t0 = 2.0 * math.pi / 16
        negatives = 0
        for _ in range(20):
            a, lam = grid_spd(rng, 4, 4, t0)
            cfg = QlaConfig(4, t0, c=float(lam.min()))
            u, v = rng.normal(size=4), rng.normal(size=4)
            res = estimate_bilinear(
                BilinearSpec(make_encoding(u), make_encoding(v), a, cfg)
            )
            truth = float(u @ dense_inverse(a) @ v)
            assert res.estimate == pytest.approx(truth, abs=1e-6)
            if truth < 0:
                negatives += 1
                assert res.estimate < 0
            elif truth > 0:
                assert res.estimate > 0
        assert negatives > 0  # the sample really exercised negative inner products


def test_criterion_05_end_to_end_gpr_agreement():
    with criterion(5, "quantum GPR matches classical to 5% + 0.01 at 8 clock qubits, "
                      "with monotone median error over 4 -> 6 -> 8"):
        rng = np.random.default_rng(3)
        se = KernelSpec("squared-exponential", 1.0, 1.0)
        cs = KernelSpec("compact-support", 1.0, 1.0, cutoff_radius=1.5)
        errors = {4: [], 6: [], 8: []}
        for spec in (se, cs):
            for n in (2, 4, 8):
                X = rng.uniform(-2, 2, size=(n, 1))
                y = np.sin(1.5 * X[:, 0]) + 0.2 * rng.normal(size=n)
                model = build_model(TrainingSet(X, y), spec, 0.5)
                x_star = [float(rng.uniform(-1, 1))]
                exact = predict_exact(model, x_star)
                for clock in (4, 6, 8):
                    cfg = gpr_config(model, clock)
                    m = predict_mean_quantum(model, x_star, cfg)
                    v = predict_variance_quantum(model, x_star, cfg)
                    err_m = abs(m.estimate - exact.mean)
                    err_v = abs(v.estimate - exact.variance)
                    errors[clock].extend([err_m, err_v])
                    if clock == 8:
                        assert err_m <= 0.05 * abs(exact.mean) + 0.01
                        assert err_v <= 0.05 * abs(exact.variance) + 0.01
        medians = [np.median(errors[c]) for c in (4, 6, 8)]
        assert medians[0] >= medians[1] >= medians[2]


def test_criterion_06_shot_noise_law():
    with criterion(6, "standard error follows shots^-1/2 and the shot planner hits its target"):
        rng = np.random.default_rng(606)
        model = random_se_model(rng, n=2)
        cfg = gpr_config(model, 6)
        x_star = [0.2]

        estimates = {1000: [], 100_000: []}
        for shots in estimates:
            for seed in range(50):
                res = predict_mean_quantum(
                    model, x_star, cfg, shots=shots, seed=seed
                )
                estimates[shots].append(res.estimate)
        ratio = np.std(estimates[1000], ddof=1) / np.std(estimates[100_000], ddof=1)
        assert 5.0 <= ratio <= 20.0  # 10x shrink within a factor of 2

        delta = 0.05
        hits = 0
        for seed in range(50):
            pilot = predict_mean_quantum(
                model, x_star, cfg, shots=400, seed=seed
            )
            n_rec = shots_for_precision(delta, pilot)
            check = predict_mean_quantum(
                model, x_star, cfg, shots=n_rec, seed=5000 + seed
            )
            if check.std_error <= 1.5 * delta:
                hits += 1
        assert hits >= 45  # >= 90% of 50 trials


def test_criterion_07_sparsification_identity():
    with criterion(7, "truncated-series sparsification is exact and s^x-sparse"):
        spec = KernelSpec("compact-support", 0.05, 1.0, cutoff_radius=1.0)
        for n in (8, 16):
            X = 0.8 * np.arange(n, dtype=float).reshape(-1, 1)  # bandwidth-1 band
            y = np.linspace(1.0, 2.0, n)
            model = build_model(TrainingSet(X, y), spec, 1.0)
            s = diagnostics(model).row_sparsity
            assert s == 3
            x_star = [0.8 * (n // 2)]
            k_star = build_cross(model, x_star)
            sigma2 = model.noise_variance
            for order in (1, 2, 3):
                t_x = np.zeros((n, n))
                power = np.eye(n)
                for j in range(order):
                    t_x += ((-1.0) ** j / sigma2 ** (j + 1)) * power
                    power = power @ model.gram
                y_sparse = sparsify_y(model, x_star, order)
                assert k_star @ t_x @ y_sparse == k_star @ t_x @ model.training.y
                assert np.count_nonzero(y_sparse) <= s**order


def test_criterion_08_state_preparation_law():
    with criterion(8, "state-prep post-selection probability is c_v^2 ||v||^2 / s_v"):
        rng = np.random.default_rng(808)
        layout = RegisterLayout((("index", 4), ("flag", 1)))
        for _ in range(100):
            v = rng.normal(size=16)
            v[rng.random(16) < 0.6] = 0.0
            if not v.any():
                v[int(rng.integers(16))] = rng.normal()
            enc = make_encoding(v)
            state = prepare_sparse_state(layout, "index", "flag", enc)
            prob, _ = project(state, "flag", 1)
            expected = enc.c_v**2 * float(v @ v) / enc.s_v
            assert prob == pytest.approx(expected, abs=1e-10)


def test_criterion_09_hermitianize_spectral_pairing():
    with criterion(9, "hermitianized matrices have +/- singular value spectra"):
        rng = np.random.default_rng(909)
        for trial in range(20):
            p, q = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            a = rng.normal(size=(p, q))
            if trial % 3 == 0:
                a = a + 1j * rng.normal(size=(p, q))
            h = hermitianize(a)
            eigs = np.sort(np.linalg.eigvalsh(h))
            svals = np.linalg.svd(a, compute_uv=False)
            expected = np.sort(np.concatenate([svals, -svals, np.zeros(p + q - 2 * len(svals))]))
            np.testing.assert_allclose(eigs, expected, atol=1e-10)


def test_criterion_10_cli_determinism_and_contract(tmp_path):
    with criterion(10, "CLI: byte-identical artifacts and documented exit statuses"):
        dataset = tmp_path / "train.csv"
        dataset.write_text("0,2\n0.7,1\n")
        config = {
            "dataset": str(dataset),
            "kernel": {"family": "squared-exponential", "signal_variance": 1.0,
                       "lengthscale": 1.0},
            "noise_variance": 1.0,
            "test_points": [[0.0], [0.4]],
            "clock_qubits": 6,
            "shots": 2000,
            "seed": 11,
            "mode": "sampled",
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))

        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["predict", "--config", str(cfg_path), "--out", str(r1)]) == EXIT_OK
        assert main(["predict", "--config", str(cfg_path), "--out", str(r2)]) == EXIT_OK
        assert r1.read_bytes() == r2.read_bytes()

        config["sweep"] = {"axis": "shots", "values": [100, 1000]}
        cfg_path.write_text(json.dumps(config))
        s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(s1)]) == EXIT_OK
        assert main(["sweep", "--config", str(cfg_path), "--out", str(s2)]) == EXIT_OK
        assert s1.read_bytes() == s2.read_bytes()

        bad = tmp_path / "bad.csv"
        bad.write_text("0,1\noops,2\n")
        config_bad = dict(config, dataset=str(bad))
        bad_cfg = tmp_path / "bad.json"
        bad_cfg.write_text(json.dumps(config_bad))
        assert main(["predict", "--config", str(bad_cfg)]) == EXIT_INPUT

        dup = tmp_path / "dup.csv"
        dup.write_text("0,1\n0,1\n")  # duplicate points: singular Gram
        config_dup = dict(config, dataset=str(dup), noise_variance=1e-18)
        dup_cfg = tmp_path / "dup.json"
        dup_cfg.write_text(json.dumps(config_dup))
        assert main(["predict", "--config", str(dup_cfg)]) == EXIT_NUMERIC
