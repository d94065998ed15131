import numpy as np
import pytest

from qgpr.classical import cg_solve, cholesky, dense_inverse, predict_exact
from qgpr.exceptions import ConvergenceError, InputError, NotPositiveDefiniteError, NumericError
from qgpr.kernels import KernelSpec, TrainingSet, build_cross, build_model, eval_kernel

from conftest import random_se_model

SE = KernelSpec("squared-exponential", 1.0, 1.0)


class TestCholesky:
    def test_scalar(self):
        np.testing.assert_array_equal(cholesky([[4.0]]).L, [[2.0]])

    def test_scaled_identity(self):
        fac = cholesky(2.0 * np.eye(3))
        np.testing.assert_allclose(fac.L, np.sqrt(2.0) * np.eye(3))

    def test_reconstructs_se_system(self, rng):
        model = random_se_model(rng, n=8)
        L = cholesky(model.system).L
        err = np.linalg.norm(L @ L.T - model.system) / np.linalg.norm(model.system)
        assert err <= 1e-10
        assert np.all(np.diag(L) > 0)
        assert np.allclose(L, np.tril(L))

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefiniteError):
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_indefinite_with_positive_diagonal(self, rng):
        model = random_se_model(rng, n=8)
        shifted = model.system - (np.linalg.eigvalsh(model.system)[0] + 0.05) * np.eye(8)
        assert np.all(np.diag(shifted) > 0)
        with pytest.raises(NotPositiveDefiniteError):
            cholesky(shifted)

    @pytest.mark.parametrize("i, j", [(5, 2), (3, 3)], ids=["off-diagonal", "diagonal"])
    def test_nan_entry(self, rng, i, j):
        a = np.array(random_se_model(rng, n=8).system)
        a[i, j] = a[j, i] = np.nan
        with pytest.raises(NotPositiveDefiniteError):
            cholesky(a)

    def test_non_square(self):
        with pytest.raises(InputError):
            cholesky(np.ones((2, 3)))


class TestPredictExact:
    def test_canonical_scalar_instance(self):
        # K = [[1]], sigma_n^2 = 1, k_* = [1], y = [2] -> mean 1, variance 0.5
        model = build_model(TrainingSet([[0.0]], [2.0]), SE, 1.0)
        pred = predict_exact(model, [0.0])
        assert pred.mean == pytest.approx(1.0, abs=1e-12)
        assert pred.variance == pytest.approx(0.5, abs=1e-12)

    def test_zero_cross_covariance(self):
        spec = KernelSpec("compact-support", 1.0, 1.0, cutoff_radius=1.0)
        model = build_model(TrainingSet([[0.0], [0.4]], [3.0, -1.0]), spec, 0.5)
        pred = predict_exact(model, [50.0])
        assert pred.mean == 0.0
        assert pred.variance == pytest.approx(1.0, abs=1e-12)

    def test_matches_dense_inverse_oracle(self, rng):
        model = random_se_model(rng, n=8, d=2)
        x_star = rng.normal(size=2)
        pred = predict_exact(model, x_star)
        inv = np.linalg.inv(model.system)
        k = build_cross(model, x_star)
        mean = k @ inv @ model.training.y
        var = eval_kernel(model.kernel, x_star, x_star) - k @ inv @ k
        assert pred.mean == pytest.approx(mean, rel=1e-8)
        assert pred.variance == pytest.approx(var, rel=1e-8)


class TestCgSolve:
    def test_identity_converges_immediately(self, rng):
        b = rng.normal(size=5)
        np.testing.assert_allclose(cg_solve(np.eye(5), b), b, atol=1e-12)

    def test_diagonal(self):
        x = cg_solve(np.diag([1.0, 2.0, 4.0]), np.array([1.0, 2.0, 4.0]))
        np.testing.assert_allclose(x, np.ones(3), atol=1e-10)

    def test_agrees_with_cholesky(self, rng):
        model = random_se_model(rng, n=8)
        b = rng.normal(size=8)
        x_cg = cg_solve(model.system, b, tol=1e-10)
        L = cholesky(model.system).L
        x_ch = np.linalg.solve(L.T, np.linalg.solve(L, b))
        assert np.abs(x_cg - x_ch).max() <= 1e-8

    def test_zero_rhs(self):
        np.testing.assert_array_equal(cg_solve(np.eye(3), np.zeros(3)), np.zeros(3))

    def test_iteration_limit(self, rng):
        model = random_se_model(rng, n=8, noise_variance=1e-6, lengthscale=3.0)
        with pytest.raises(ConvergenceError) as err:
            cg_solve(model.system, rng.normal(size=8), tol=1e-14, max_iter=1)
        assert err.value.residual is not None and err.value.residual > 1e-14

    def test_bad_tolerance(self):
        with pytest.raises(InputError):
            cg_solve(np.eye(2), np.ones(2), tol=0.0)


class TestDenseInverse:
    def test_scaled_identity(self):
        np.testing.assert_allclose(dense_inverse(2.0 * np.eye(3)), 0.5 * np.eye(3))

    def test_diagonal(self):
        np.testing.assert_allclose(dense_inverse(np.diag([1.0, 4.0])), np.diag([1.0, 0.25]))

    def test_residual_bound(self, rng):
        a = rng.normal(size=(6, 6))
        spd = a @ a.T + 6 * np.eye(6)
        inv = dense_inverse(spd)
        assert np.abs(spd @ inv - np.eye(6)).max() <= 1e-10

    def test_singular(self):
        with pytest.raises(NumericError):
            dense_inverse(np.zeros((2, 2)))


class TestOracleAgreement:
    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_three_solver_paths_agree(self, rng, n):
        model = random_se_model(rng, n=n)
        x_star = rng.normal(size=1)
        k = build_cross(model, x_star)
        k_ss = eval_kernel(model.kernel, x_star, x_star)
        y = model.training.y

        pred = predict_exact(model, x_star)

        inv = dense_inverse(model.system)
        mean_inv = k @ inv @ y
        var_inv = k_ss - k @ inv @ k

        mean_cg = k @ cg_solve(model.system, y, tol=1e-12)
        var_cg = k_ss - k @ cg_solve(model.system, k, tol=1e-12)

        ref = abs(pred.mean) + 1e-12
        assert abs(pred.mean - mean_inv) / ref <= 1e-8
        assert abs(pred.mean - mean_cg) / ref <= 1e-8
        refv = abs(pred.variance) + 1e-12
        assert abs(pred.variance - var_inv) / refv <= 1e-8
        assert abs(pred.variance - var_cg) / refv <= 1e-8

    def test_variance_bounds(self, rng):
        for n in (2, 4, 8):
            model = random_se_model(rng, n=n)
            x_star = rng.normal(size=1)
            pred = predict_exact(model, x_star)
            k_ss = eval_kernel(model.kernel, x_star, x_star)
            assert pred.variance >= -1e-10
            assert pred.variance <= k_ss + 1e-10
