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
Rescaling <M> yields the GPR linear predictor (u = k_*, v = y) and, with
u = v = k_*, the subtracted term of the predictive variance.

Exact mode reads <M> straight off the amplitudes (no shot noise) and is used
to isolate phase-estimation error; sampled mode draws seeded Bernoulli-style
shots on top.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from . import statevector as sv
from .exceptions import ExpansionError, InputError
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
from .statevector import Observable, RegisterLayout, StateVector

log = logging.getLogger(__name__)

MODES = ("exact", "sampled")


@dataclass(frozen=True)
class EstimationResult:
    """A rescaled estimate with its sampling pedigree.

    ``raw_mean`` is the (estimated) expectation of M; ``estimate`` is the
    rescaled quantity of interest; ``success_fraction`` the fraction of shots
    that passed post-selection (C=1 and D=1). Exact mode reports shots = 0
    and zero standard error.
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
        n = np.asarray(self.system).shape[0]
        if self.u.length != n or self.v.length != n:
            raise InputError(
                f"encoded vectors ({self.u.length}, {self.v.length}) do not match "
                f"system size {n}"
            )


def interference_layout(n: int, clock_qubits: int) -> RegisterLayout:
    return RegisterLayout(
        (("A", 1), ("B", index_width(n)), ("C", 1), ("D", 1), ("E", clock_qubits))
    )


def build_interference_state(spec: BilinearSpec) -> StateVector:
    """Run the five-register circuit up to (and including) the solver step."""
    n = np.asarray(spec.system).shape[0]
    w = index_width(n)
    layout = interference_layout(n, spec.config.clock_qubits)
    a_pad = pad_system(spec.system, 1 << w, spec.config.c)

    state = sv.init_basis(layout)
    sv.apply_gate(state, sv.HADAMARD, ("A", 0))
    sv.reflect(state, state_prep_vector(spec.u, w), ["B", "C"], [("A", 0, 0)])
    sv.apply_gate(state, sv.PAULI_X, ("D", 0), [("A", 0, 0)])
    sv.reflect(state, state_prep_vector(spec.v, w), ["B", "C"], [("A", 0, 1)])

    solver_block(state, spec.config, a_pad, "E", "B", "D", controls=(("A", 0, 1), ("C", 0, 1)))
    return state


def observable_M(layout: RegisterLayout) -> Observable:
    """X on A, |1><1| on C and D, identity elsewhere."""
    for name in ("A", "B", "C", "D"):
        layout.width(name)  # raises InputError when missing
    return Observable(layout, {"A": "X", "C": "P1", "D": "P1"})


def estimate_bilinear(
    spec: BilinearSpec,
    shots: int | None = None,
    seed: int = 0,
    mode: str = "exact",
) -> EstimationResult:
    """Estimate u^T A^{-1} v from the interference circuit.

    The raw mean of M is rescaled by sqrt(s_u s_v) / (c c_u c_v). In sampled
    mode the standard error is the rescaled sample standard deviation over
    ``shots`` seeded draws.
    """
    if mode not in MODES:
        raise InputError(f"mode must be one of {MODES}, got {mode!r}")
    state = build_interference_state(spec)
    obs = observable_M(state.layout)
    scale = math.sqrt(spec.u.s_v * spec.v.s_v) / (spec.config.c * spec.u.c_v * spec.v.c_v)
    if mode == "exact":
        raw = sv.expectation(state, obs)
        success = sv.expectation(state, Observable(state.layout, {"C": "P1", "D": "P1"}))
        return EstimationResult(
            estimate=raw * scale,
            std_error=0.0,
            shots=0,
            raw_mean=raw,
            success_fraction=success,
            config=spec.config,
            seed=seed,
        )
    if shots is None or shots < 1:
        raise InputError("sampled mode needs shots >= 1")
    outcomes = sv.sample_observable(state, obs, shots, seed)
    raw = float(outcomes.mean())
    sd = float(outcomes.std(ddof=1)) if shots > 1 else 0.0
    return EstimationResult(
        estimate=raw * scale,
        std_error=sd / math.sqrt(shots) * scale,
        shots=shots,
        raw_mean=raw,
        success_fraction=float(np.mean(outcomes != 0.0)),
        config=spec.config,
        seed=seed,
    )


def gpr_config(model: GPModel, clock_qubits: int) -> QlaConfig:
    """QlaConfig for a GP model: c = sigma_n^2 and the default safe t0."""
    return config_for(model.system, clock_qubits, model.noise_variance)


def _k_star_form(model: GPModel, x_star, config: QlaConfig, v, shots, seed, mode):
    """k_*^T (K + sigma_n^2 I)^{-1} v, with v = k_* when ``v`` is None.

    The GPR layer always runs with c = sigma_n^2. A test point that sees no
    training point has k_* = 0, so the form is exactly 0 and no circuit runs.
    """
    config = replace(config, c=model.noise_variance)
    k_star = build_cross(model, x_star)
    if not k_star.any():
        return EstimationResult(0.0, 0.0, 0, 0.0, 0.0, config, seed)
    u = make_encoding(k_star)
    v = u if v is None else make_encoding(v)
    spec = BilinearSpec(u=u, v=v, system=model.system, config=config)
    return estimate_bilinear(spec, shots=shots, seed=seed, mode=mode)


def predict_mean_quantum(
    model: GPModel,
    x_star,
    config: QlaConfig,
    shots: int | None = None,
    seed: int = 0,
    mode: str = "exact",
) -> EstimationResult:
    """Linear predictor k_*^T (K + sigma_n^2 I)^{-1} y via the circuit."""
    return _k_star_form(model, x_star, config, model.training.y, shots, seed, mode)


def predict_variance_quantum(
    model: GPModel,
    x_star,
    config: QlaConfig,
    shots: int | None = None,
    seed: int = 0,
    mode: str = "exact",
) -> EstimationResult:
    """Predictive variance k(x_*, x_*) - k_*^T (K + sigma_n^2 I)^{-1} k_*.

    Sampling noise can push the subtraction below zero; such estimates are
    clamped to zero with a warning.
    """
    res = _k_star_form(model, x_star, config, None, shots, seed, mode)
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

    Scales the pilot run's sample variance: N = ceil(var / delta^2).
    """
    if not delta > 0:  # also rejects NaN
        raise InputError("delta must be > 0")
    if pilot.shots < 100:
        raise InputError(f"pilot run has {pilot.shots} shots; need at least 100")
    sample_var = (pilot.std_error**2) * pilot.shots
    return max(1, math.ceil(sample_var / delta**2))


def neumann_row(model: GPModel, x_star, order: int) -> np.ndarray:
    """Row vector k_*^T T_x for the truncated series of (K + sigma_n^2 I)^{-1}.

    T_x = sum_{j<x} (-1)^j K^j / sigma^(2(j+1)), the Neumann expansion around
    sigma_n^2 I; valid when the spectral radius of K is below sigma_n^2.
    """
    if order < 1:
        raise InputError("order must be >= 1")
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
