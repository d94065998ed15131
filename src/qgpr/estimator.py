"""Quantum estimation of GPR quantities through the interference circuit.

The circuit holds five registers: A (one qubit, selects which vector is
prepared), B (the index register), C (the state-preparation flag), D (the
solver ancilla) and E (the clock). With A in a uniform superposition, u is
prepared on the A=0 branch (and D flipped), v on the A=1 branch, and the
linear solver runs on B conditioned on A=1 and C=1. Measuring

    M = X_A (x) I_B (x) |1><1|_C (x) |1><1|_D

gives a random variable in {-1, 0, +1} whose mean is

    <M> = c * c_u * c_v / sqrt(s_u * s_v) * u^T A^{-1} v,

so both the magnitude and the sign of the bilinear form are recovered.
The readout names M by its registers (:data:`M`): X on A, with C and D
pinned to 1. Rescaling <M> yields the GPR linear predictor (u = k_*,
v = y) and, with u = v = k_*, the subtracted term of the predictive
variance.

Exact mode (``shots=None``) reads <M> and P(C=1, D=1) straight off the
amplitudes in one readout (no shot noise) and isolates phase-estimation
error; given shots, the estimate adds shot noise: the counts of M's three
values, one seeded multinomial draw. M^2 is the C = D = 1 projector, so both
modes share one standard error, sqrt((P(C=1, D=1) - <M>^2) / (shots - 1)).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from . import statevector as sv
from .exceptions import (ExpansionError, InputError, NumericError, finite_real, integer,
                         numeric_array)
from .kernels import GPModel, build_cross, eval_kernel
from .qla import (
    QlaConfig,
    SparseEncoding,
    config_for,
    eigenvalue_inversion,  # unused here; perfbench/spans.py wraps this name
    index_width,
    make_encoding,
    pad_system,
    phase_estimate,  # unused here; perfbench/spans.py wraps this name
    solver_block,
    state_prep_unitary,  # unused here; perfbench/spans.py wraps this name
    state_prep_vector,
)
from .statevector import RegisterLayout, StateVector

log = logging.getLogger(__name__)

# M as sv.readout's (x, pins): X on A, C and D pinned to |1>
M = ("A", {"C": 1, "D": 1})


@dataclass(frozen=True)
class EstimationResult:
    """A rescaled estimate with its sampling pedigree.

    ``raw_mean`` is the (estimated) expectation of M; ``estimate`` is the
    rescaled quantity of interest; ``success_fraction`` the fraction of shots
    that passed post-selection (C=1 and D=1). Exact mode (``shots=None``)
    reports shots = 0 and zero standard error.
    """

    estimate: float
    std_error: float
    shots: int
    raw_mean: float
    success_fraction: float
    config: QlaConfig | None
    seed: int | None


@dataclass(frozen=True)
class BilinearSpec:
    """Inputs of one u^T A^{-1} v estimation."""

    u: SparseEncoding
    v: SparseEncoding
    system: np.ndarray
    config: QlaConfig

    def __post_init__(self):
        n = numeric_array("system", self.system, complex_ok=True, square=True).shape[0]
        if self.u.length != n or self.v.length != n:
            raise InputError(
                f"encoded vectors ({self.u.length}, {self.v.length}) do not match "
                f"system size {n}"
            )


def interference_layout(n: int, clock_qubits: int) -> RegisterLayout:
    """The five registers A..E; the CLI checks a run's qubit cap with it."""
    return RegisterLayout(
        (("A", 1), ("B", index_width(n)), ("C", 1), ("D", 1), ("E", clock_qubits))
    )


def build_interference_state(spec: BilinearSpec) -> StateVector:
    """Run the five-register circuit up to (and including) the solver step,
    which appends the clock E and so checks the qubit cap."""
    w = index_width(np.asarray(spec.system).shape[0])
    a_pad = pad_system(spec.system, 1 << w, spec.config.c)

    state = sv.init_basis(RegisterLayout((("A", 1), ("B", w), ("C", 1), ("D", 1))))
    sv.apply_gate(state, sv.HADAMARD, "A")
    sv.reflect(state, state_prep_vector(spec.u, w), ["B", "C"], {"A": 0})
    sv.apply_gate(state, sv.PAULI_X, "D", {"A": 0})
    sv.reflect(state, state_prep_vector(spec.v, w), ["B", "C"], {"A": 1})

    return solver_block(state, spec.config, a_pad, "E", "B", "D", {"A": 1, "C": 1})


def estimate_bilinear(
    spec: BilinearSpec,
    shots: int | None = None,
    seed: int = 0,
) -> EstimationResult:
    """Estimate u^T A^{-1} v from the interference circuit.

    The raw mean of M is rescaled by sqrt(s_u s_v) / (c c_u c_v). Exact mode
    (``shots=None``) reads it off the amplitudes; given ``shots``, the standard
    error is the rescaled standard deviation of the mean over that many seeded
    draws. The seed (and any shots) is checked before the state is built.
    """
    sv.check_shots(shots, seed)
    state = build_interference_state(spec)
    if shots is None:
        raw, success = sv.readout(state, *M)
    else:
        minus, _, plus = (int(k) for k in sv.sample_observable(state, *M, shots, seed))
        raw, success = (plus - minus) / shots, (minus + plus) / shots
    # M^2 is the C = D = 1 projector, so the sample variance is success - raw^2
    std_error = math.sqrt(max(0.0, success - raw * raw) / (shots - 1)) if (shots or 0) > 1 else 0.0

    def rescale(x: float) -> float:  # in turn: sqrt(s_u s_v) / (c c_u c_v) can overflow
        return x * math.sqrt(spec.u.s_v * spec.v.s_v) / spec.config.c / spec.u.c_v / spec.v.c_v

    return EstimationResult(rescale(raw), rescale(std_error), shots or 0, raw, success,
                            spec.config, seed)


def gpr_config(model: GPModel, clock_qubits: int) -> QlaConfig:
    """QlaConfig for a GP model: c = sigma_n^2 and the default safe t0."""
    return config_for(model.system, clock_qubits, model.noise_variance)


def _k_star_form(model: GPModel, x_star, config: QlaConfig, v, shots, seed):
    """k_*^T (K + sigma_n^2 I)^{-1} v, with v = k_* when ``v`` is None.

    The GPR layer always runs with c = sigma_n^2. A test point that sees no
    training point has k_* = 0, so the form is exactly 0 and no circuit runs;
    its shots and seed are still checked, and a sampled one records its shots.
    """
    config = replace(config, c=model.noise_variance)
    k_star = build_cross(model, x_star)
    if not k_star.any():
        sv.check_shots(shots, seed)
        return EstimationResult(0.0, 0.0, shots or 0, 0.0, 0.0, config, seed)
    u = make_encoding(k_star)
    v = u if v is None else make_encoding(v)
    spec = BilinearSpec(u=u, v=v, system=model.system, config=config)
    return estimate_bilinear(spec, shots=shots, seed=seed)


def predict_mean_quantum(
    model: GPModel,
    x_star,
    config: QlaConfig,
    shots: int | None = None,
    seed: int = 0,
) -> EstimationResult:
    """Linear predictor k_*^T (K + sigma_n^2 I)^{-1} y via the circuit."""
    return _k_star_form(model, x_star, config, model.training.y, shots, seed)


def predict_variance_quantum(
    model: GPModel,
    x_star,
    config: QlaConfig,
    shots: int | None = None,
    seed: int = 0,
) -> EstimationResult:
    """Predictive variance k(x_*, x_*) - k_*^T (K + sigma_n^2 I)^{-1} k_*.

    Sampling noise can push the subtraction below zero; such estimates are
    clamped to zero with a warning.
    """
    res = _k_star_form(model, x_star, config, None, shots, seed)
    estimate = eval_kernel(model.kernel, x_star, x_star) - res.estimate
    if estimate < 0.0:
        log.warning(
            "variance estimate %.3e clamped to 0 (sampling noise exceeds the "
            "true variance)",
            estimate,
        )
        estimate = 0.0
    return replace(res, estimate=estimate)


def shots_for_precision(delta: float, pilot: EstimationResult) -> int:
    """Shots needed so the rescaled standard error drops to ``delta``.

    Scales the pilot run's sample variance: N = ceil(var / delta^2). A count
    that is not finite is a :class:`NumericError`.
    """
    delta = finite_real("delta", delta, 0)
    if pilot.shots < 100:
        raise InputError(f"pilot run has {pilot.shots} shots; need at least 100")
    try:
        return max(1, math.ceil((pilot.std_error**2) * pilot.shots / delta**2))
    except (ZeroDivisionError, OverflowError, ValueError):  # delta^2 is 0; an inf or NaN count
        raise NumericError(f"delta = {delta:g} at the pilot's standard error "
                           f"{pilot.std_error:g} needs a shot count that is not finite") from None


def neumann_row(model: GPModel, x_star, order: int) -> np.ndarray:
    """Row vector k_*^T T_x for the truncated series of (K + sigma_n^2 I)^{-1}.

    T_x = sum_{j<x} (-1)^j K^j / sigma^(2(j+1)), the Neumann expansion around
    sigma_n^2 I; valid when the spectral radius of K is below sigma_n^2.
    """
    order = integer("order", order, 1)
    k = model.gram
    sigma2 = model.noise_variance
    rho = float(np.abs(np.linalg.eigvalsh(k)).max())
    if rho >= sigma2:
        raise ExpansionError(
            f"spectral radius of K ({rho:.4g}) is not below sigma_n^2 ({sigma2:.4g}); "
            "the truncated expansion diverges -- use the dense targets directly"
        )
    term = build_cross(model, x_star)
    row = np.zeros_like(term)
    for j in range(order):
        row += ((-1.0) ** j / sigma2 ** (j + 1)) * term
        term = term @ k
    return row


def sparsify_y(model: GPModel, x_star, order: int) -> np.ndarray:
    """Zero out targets invisible to the truncated-series predictor.

    Keeps y_i exactly where (k_*^T T_x)_i is nonzero, so
    k_*^T T_x y' = k_*^T T_x y holds bit-exactly while |support(y')| is
    bounded by the row sparsity to the power of the truncation order.
    """
    row = neumann_row(model, x_star, order)
    return np.where(row != 0.0, model.training.y, 0.0)
