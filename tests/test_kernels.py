import math

import numpy as np
import pytest

from qgpr import kernels
from qgpr.exceptions import ConditioningError, InputError
from qgpr.kernels import (
    GPModel,
    KernelSpec,
    TrainingSet,
    build_cross,
    build_model,
    diagnostics,
    eval_kernel,
)

from conftest import random_cs_model, random_se_model

SE = KernelSpec("squared-exponential", 1.0, 1.0)
CS1 = KernelSpec("compact-support", 1.0, 1.0, cutoff_radius=1.0)
CS15 = KernelSpec("compact-support", 0.6, 1.0, cutoff_radius=1.5)


def closed_form(spec, x, x2):
    """k(x, x2) from the textbook formulas, one pair of points at a time."""
    sq = sum((a - b) ** 2 for a, b in zip(x, x2))
    if spec.family == "squared-exponential":
        return spec.signal_variance * math.exp(-sq / (2.0 * spec.lengthscale**2))
    u = math.sqrt(sq) / spec.cutoff_radius
    return 0.0 if u >= 1.0 else spec.signal_variance * (1.0 - u) ** 4 * (4.0 * u + 1.0)


class TestEvalKernel:
    def test_se_at_zero_distance_is_signal_variance(self):
        assert eval_kernel(SE, [0.0], [0.0]) == 1.0
        spec = KernelSpec("squared-exponential", 2.5, 0.7)
        assert eval_kernel(spec, [1.0, 2.0], [1.0, 2.0]) == 2.5

    def test_se_analytic_value(self):
        # ||x - x2||^2 = 2, l = 1 -> exp(-1)
        val = eval_kernel(SE, [0.0], [math.sqrt(2.0)])
        assert val == pytest.approx(0.36787944117144233, abs=1e-15)

    def test_compact_support_beyond_cutoff_is_exact_zero(self):
        assert eval_kernel(CS1, [0.0], [2.0]) == 0.0

    def test_compact_support_at_zero_distance(self):
        assert eval_kernel(CS1, [0.5], [0.5]) == 1.0

    def test_symmetric_in_arguments(self, rng):
        for spec in (SE, CS1):
            for _ in range(20):
                a, b = rng.normal(size=2), rng.normal(size=2)
                assert eval_kernel(spec, a, b) == eval_kernel(spec, b, a)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "spec, far",
        [
            (KernelSpec("squared-exponential", 2.0, 1e-170), [1.0]),
            (KernelSpec("compact-support", 2.0, 1.0, cutoff_radius=1e-300), [1e10]),
            (SE, [1e308]),
            (CS1, [1e308]),
        ],
        ids=["se-tiny-lengthscale", "cs-tiny-cutoff", "se-huge-distance", "cs-huge-distance"],
    )
    def test_overflowing_distance_is_exact_zero(self, spec, far):
        assert eval_kernel(spec, [-far[0]], far) == 0.0
        assert eval_kernel(spec, far, far) == spec.signal_variance

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            eval_kernel(SE, [0.0], [0.0, 1.0])

    def test_non_finite_point_rejected(self):
        with pytest.raises(InputError):
            eval_kernel(SE, [np.nan], [0.0])


class TestKernelSpecValidation:
    def test_unknown_family(self):
        with pytest.raises(InputError):
            KernelSpec("matern")

    def test_compact_support_needs_cutoff(self):
        with pytest.raises(InputError):
            KernelSpec("compact-support", 1.0, 1.0)

    def test_positive_hyperparameters(self):
        with pytest.raises(InputError):
            KernelSpec("squared-exponential", -1.0, 1.0)
        with pytest.raises(InputError):
            KernelSpec("squared-exponential", 1.0, 0.0)

    # a cutoff_radius the squared-exponential family does not use is still type-checked
    @pytest.mark.parametrize("value", ["1", True, math.inf, math.nan, []])
    @pytest.mark.parametrize(
        "family, name",
        [("squared-exponential", "signal_variance"), ("squared-exponential", "lengthscale"),
         ("squared-exponential", "cutoff_radius"), ("compact-support", "cutoff_radius")],
    )
    def test_hyperparameter_not_a_finite_real_is_input_error_naming_it(self, family, name,
                                                                       value):
        kwargs = {"cutoff_radius": 1.0} if family == "compact-support" else {}
        with pytest.raises(InputError, match=rf"^kernel\.{name} must be a finite number"):
            KernelSpec(family, **{**kwargs, name: value})

    def test_hyperparameters_are_stored_as_floats(self):
        spec = KernelSpec("compact-support", 2, np.int64(3), cutoff_radius=np.float32(0.5))
        values = (spec.signal_variance, spec.lengthscale, spec.cutoff_radius)
        assert [type(v) for v in values] == [float] * 3 and values == (2.0, 3.0, 0.5)


class TestTrainingSet:
    def test_length_mismatch(self):
        with pytest.raises(InputError):
            TrainingSet(X=[[0.0], [1.0]], y=[1.0])

    def test_non_finite_target(self):
        with pytest.raises(InputError):
            TrainingSet(X=[[0.0]], y=[np.inf])

    def test_one_dimensional_inputs_become_column(self):
        ts = TrainingSet(X=[0.0, 1.0, 2.0], y=[1.0, 2.0, 3.0])
        assert ts.X.shape == (3, 1)
        assert ts.n == 3 and ts.d == 1


class TestBuildModel:
    def test_single_point(self):
        model = build_model(TrainingSet([[0.0]], [1.0]), SE, 1.0)
        np.testing.assert_array_equal(model.gram, [[1.0]])
        np.testing.assert_array_equal(model.system, [[2.0]])

    def test_two_identical_points(self):
        model = build_model(TrainingSet([[0.3], [0.3]], [0.0, 0.0]), SE, 0.1)
        np.testing.assert_array_equal(model.gram, np.ones((2, 2)))
        np.testing.assert_allclose(model.system, [[1.1, 1.0], [1.0, 1.1]])

    def test_row_sparsity_matches_distance_count(self, rng):
        # oracle: count neighbours within the cutoff by direct pairwise distances
        model = random_cs_model(rng, n=8, cutoff=1.2)
        X = model.training.X
        expected = 0
        for i in range(8):
            dist = np.linalg.norm(X - X[i], axis=1)
            expected = max(expected, int(np.sum(dist < 1.2)))
        assert diagnostics(model).row_sparsity == expected

    @pytest.mark.parametrize("d, admitted", [(1024, True), (1025, False)])
    def test_data_set_size_is_checked_before_the_gram_matrix(self, monkeypatch, d, admitted):
        # n = 64: n^2 d = 2^22 difference entries at d = 1024, 64^2 more at d = 1025
        calls = []

        def k_stub(spec, A, B):
            calls.append(A.shape)
            return np.zeros((len(A), len(B)))

        monkeypatch.setattr(kernels, "_k", k_stub)
        training = TrainingSet(np.zeros((64, d)), np.zeros(64))
        if admitted:
            build_model(training, SE, 1.0)
            assert calls == [(64, d)]
        else:
            with pytest.raises(InputError, match="n = 64 points of d = 1025 features"):
                build_model(training, SE, 1.0)
            assert calls == []

    def test_noise_variance_positive(self):
        with pytest.raises(InputError):
            build_model(TrainingSet([[0.0]], [1.0]), SE, 0.0)


class TestBuildCross:
    def test_at_training_point(self):
        model = build_model(TrainingSet([[0.0], [3.0]], [1.0, 2.0]), SE, 0.5)
        k = build_cross(model, [0.0])
        assert k[0] == 1.0

    def test_far_from_all_points_compact_support(self):
        model = build_model(TrainingSet([[0.0], [0.5]], [1.0, 2.0]), CS1, 0.5)
        np.testing.assert_array_equal(build_cross(model, [10.0]), np.zeros(2))

    def test_matches_elementwise_oracle(self, rng):
        # the Gram matrix, k_* and k(x_*, x_*) against the closed forms, pair by pair
        for spec in (KernelSpec("squared-exponential", 1.7, 1.3), CS15):
            for d in (1, 2, 3):
                X = rng.uniform(-2.0, 2.0, size=(8, d))
                model = build_model(TrainingSet(X, np.zeros(8)), spec, 0.5)
                gram = [[closed_form(spec, a, b) for b in X] for a in X]
                np.testing.assert_allclose(model.gram, gram, rtol=1e-14, atol=0)
                for x_star in rng.uniform(-2.0, 2.0, size=(4, d)):
                    cross = [closed_form(spec, xi, x_star) for xi in X]
                    np.testing.assert_allclose(
                        build_cross(model, x_star), cross, rtol=1e-14, atol=0
                    )
                    assert eval_kernel(spec, x_star, X[0]) == pytest.approx(
                        closed_form(spec, x_star, X[0]), rel=1e-14, abs=0
                    )

    def test_dimension_mismatch(self, rng):
        model = random_se_model(rng, n=3, d=2)
        with pytest.raises(InputError):
            build_cross(model, [0.0])


class TestDiagnostics:
    def test_scaled_identity(self):
        d = diagnostics(2.0 * np.eye(4))
        assert d.kappa == pytest.approx(1.0)
        assert d.row_sparsity == 1
        assert d.min_eig == pytest.approx(2.0)

    def test_diagonal(self):
        assert diagnostics(np.diag([1.0, 4.0])).kappa == pytest.approx(4.0)

    def test_kappa_matches_eigendecomposition_oracle(self, rng):
        model = random_se_model(rng, n=8)
        eigs = np.linalg.eigvalsh(model.system)
        d = diagnostics(model)
        assert d.kappa == pytest.approx(eigs[-1] / eigs[0], rel=1e-10)

    def test_non_invertible_system(self):
        with pytest.raises(ConditioningError):
            diagnostics(np.zeros((2, 2)))


class TestInvariants:
    def test_gram_symmetry_exact(self, rng):
        for maker in (random_se_model, random_cs_model):
            model = maker(rng, n=8, d=2)
            np.testing.assert_array_equal(model.gram, model.gram.T)

    def test_se_gram_numerically_psd(self, rng):
        for _ in range(5):
            model = random_se_model(rng, n=8)
            eigs = np.linalg.eigvalsh(model.gram)
            assert eigs.min() >= -1e-10 * eigs.max()

    def test_regularization_shifts_eigenvalues(self, rng):
        model = random_se_model(rng, n=8, noise_variance=0.3)
        shift = np.linalg.eigvalsh(model.system) - np.linalg.eigvalsh(model.gram)
        np.testing.assert_allclose(shift, 0.3, atol=1e-12)

    def test_compact_support_structural_zeros(self, rng):
        model = random_cs_model(rng, n=8, d=2, cutoff=1.0)
        X = model.training.X
        for i in range(8):
            for j in range(8):
                far = np.linalg.norm(X[i] - X[j]) >= 1.0
                assert (model.gram[i, j] == 0.0) == far

    def test_model_matrices_are_read_only(self, rng):
        model = random_se_model(rng, n=4)
        with pytest.raises(ValueError):
            model.gram[0, 0] = 7.0
        with pytest.raises(ValueError):
            model.system[0, 0] = 7.0
