"""Named, seeded systems for the tests, and :func:`agree`, the one place where a case
meets its references: the gate-by-gate solver (``"solver"``), the classical u^T A^{-1} v
(``"estimate"``) and the classical A^{-1} v (``"overlap"``). :data:`CATALOGUE` names one
case of each kind; the sweeps draw theirs from :func:`case`, the i-th draw of a loop with
seed SEED + i. Past the standard library it imports only numpy and qgpr, never pytest, so
CI's memory gates build their systems from it in a plain interpreter (PYTHONPATH=src:tests)."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from qgpr import qla
from qgpr import statevector as sv
from qgpr.estimator import estimate_bilinear
from qgpr.qla import QlaConfig, config_for, eigenvalue_inversion, make_encoding, phase_estimate
from qgpr.statevector import RegisterLayout, StateVector

SEED = 1234  # of the cases the tests draw, and of the ``rng`` fixture
KAPPA = 0.9e4  # a condition number just inside the CLI's default kappa_bound, 1e4
TAU = 2.0 * math.pi


def random_amps(rng, m, real=False):
    """A random unit vector of 2^m amplitudes, complex unless ``real``."""
    amps = rng.normal(size=1 << m) + (0.0 if real else 1j * rng.normal(size=1 << m))
    return amps / np.linalg.norm(amps)


def random_state(rng, layout):
    return StateVector(layout, random_amps(rng, layout.total_qubits))


def random_unitary(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_orthogonal(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q * np.sign(np.diag(r))


def _rotated(g, lam):
    """q diag(lam) q^H for the Q factor q of ``g``."""
    q = np.linalg.qr(g)[0]
    return (q * lam) @ q.conj().T


def random_spd(rng, n, lo=0.25):
    """Random real symmetric matrix with spectrum inside [lo, 1]."""
    return _rotated(rng.normal(size=(n, n)), rng.uniform(lo, 1.0, size=n))


def random_hermitian(rng, n, lo=0.3):
    """Random complex Hermitian matrix with spectrum inside [lo, 1]."""
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return _rotated(g, rng.uniform(lo, 1.0, size=n))


def grid_spd(rng, n, clock_qubits, t0):
    """(SPD matrix, eigenvalues), each eigenvalue on the clock grid 2*pi*k/(t0*T)
    for a k in T/4 .. T-1: every phase-estimation bin is exact."""
    big_t = 1 << clock_qubits
    lam = TAU * rng.choice(np.arange(big_t // 4, big_t), size=n, replace=False) / (t0 * big_t)
    return _rotated(rng.normal(size=(n, n)), lam), lam


def plan_for(system, config):
    """The solver plan of ``system`` (padded with c * I) under ``config``."""
    return qla.plan(qla.spectrum(system, config.c), config)


def padded(a, fill):
    """``a`` in the top-left corner of fill * I of the next power-of-two size,
    as :func:`qla.spectrum` pads it; a complex matrix stays complex."""
    out = np.eye(1 << qla.index_width(len(a)), dtype=a.dtype) * fill
    out[: len(a), : len(a)] = a
    return out


def with_zero_clock(state, clock, width):
    """state (x) |0> on a ``width``-qubit clock appended last."""
    amps = np.kron(state.amps, np.eye(1 << width)[0])
    return StateVector(RegisterLayout((*state.layout.registers, (clock, width))), amps)


def reference_solver(state, cfg, system, clock="clock", target="index", ancilla="ancilla",
                     controls=None):
    """The solver as three separate ops, each with its own basis change, on
    ``state`` (x) |0> with the clock appended last; ``system`` is already padded."""
    full = with_zero_clock(state, clock, cfg.clock_qubits)
    phase_estimate(full, cfg, system, clock=clock, target=target, controls=controls)
    eigenvalue_inversion(full, clock, ancilla, cfg, controls=controls)
    phase_estimate(full, cfg, system, clock=clock, target=target, controls=controls, inverse=True)
    return full


# (registers, controls) of a clock-free solver input, the target's width open: no
# controls, controls before, between and after the target and ancilla, qla_solve's two
LAYOUTS = {
    "none": ((("index", None), ("anc", 1)), {}),
    "before": ((("ctl", 2), ("index", None), ("anc", 1)), {"ctl": 2}),
    "between": ((("anc", 1), ("ctl", 2), ("index", None)), {"ctl": 3}),
    "after": ((("anc", 1), ("index", None), ("ctl", 2)), {"ctl": 1}),
    "qla_solve-sparse": ((("index", None), ("flag", 1), ("anc", 1)), {}),
    "qla_solve-vector": ((("index", None), ("anc", 1)), {}),
}


def block_layout(name, index_width):
    """(clock-free layout, controls) of a :data:`LAYOUTS` entry."""
    registers, controls = LAYOUTS[name]
    return RegisterLayout(tuple((reg, w or index_width) for reg, w in registers)), controls


def solver_input(rng, layout, controls=None):
    """A random state on a clock-free ``layout`` whose ancilla ``anc`` is |0> on
    the rows ``controls`` select, as :func:`qla.solver_block` requires."""
    state = random_state(rng, layout)
    sv._register_view(layout, state.amps, {**(controls or {}), "anc": 1})[...] = 0.0
    return state


@dataclass(frozen=True)
class Case:
    """A system, u and v, a config, and the tolerance of each reference :func:`agree` checks."""

    name: str
    system: np.ndarray
    u: np.ndarray
    v: np.ndarray
    config: QlaConfig
    references: dict

    def inputs(self) -> tuple[qla.SparseEncoding, qla.SparseEncoding, qla.SolverPlan]:
        """The (u, v, plan) of an estimate of u^T A^{-1} v."""
        return make_encoding(self.u), make_encoding(self.v), plan_for(self.system, self.config)


def case(name, n, kind="real", clock=8, c=None, t0=None, seed=SEED, lo=0.25, complex_v=False,
         **references) -> Case:
    """A ``kind`` system of size ``n``, then u, then v (complex if ``complex_v``), drawn
    from ``default_rng(seed)``. A "real" or "complex" system's spectrum is drawn in [lo, 1],
    a "grid" one lies on the clock grid of ``t0`` and a "kappa" one spans 1/KAPPA to 1. The
    config has ``clock`` qubits, c (lambda_min by default) and t0 (qla.default_t0's)."""
    rng = np.random.default_rng(seed)
    if kind == "grid":
        system, lam = grid_spd(rng, n, clock, t0)
    else:
        system = (_rotated(rng.normal(size=(n, n)), np.geomspace(1.0 / KAPPA, 1.0, n))
                  if kind == "kappa" else
                  (random_spd if kind == "real" else random_hermitian)(rng, n, lo))
        lam = np.linalg.eigvalsh(system)
    c = float(lam.min()) if c is None else c
    config = config_for(system, clock, c) if t0 is None else QlaConfig(clock, t0, c)
    u = rng.normal(size=n)
    v = rng.normal(size=n) + (1j * rng.normal(size=n) if complex_v else 0.0)
    return Case(name, system, u, v, config, references)


CATALOGUE = {  # name -> the arguments of its case, drawn by catalogued(name)
    "real": dict(n=4, overlap=0.99, solver=1e-12),
    "complex": dict(n=3, kind="complex", lo=0.5, complex_v=True, overlap=0.999, solver=1e-12),
    "grid": dict(n=4, kind="grid", clock=6, t0=TAU / 64, estimate=1e-6, solver=1e-12),
    # lambda_k = k / 3 on the clock grid, so c = lambda_min >= 0.5 clamps bin 1
    "clamped": dict(n=4, clock=2, t0=TAU * 3 / 4, lo=0.5, solver=1e-12),
    "kappa": dict(n=4, kind="kappa", clock=6, solver=1e-12),
    "n3": dict(n=3, c=0.45, lo=0.5, overlap=0.99, solver=1e-12),
    "n5": dict(n=5, clock=5, c=0.25, t0=TAU * 31 / 32, lo=0.3, solver=1e-12),
    # n = 8 with clock 16 is A1 + B3 + C1 + D1 + E16 = 22 qubits, the default
    # cap, where the reference would run 2^16 controlled gates per phase estimation
    "cap-real": dict(n=8, clock=16, seed=1, estimate=1e-3),
    "cap-complex": dict(n=8, kind="complex", clock=16, seed=1, estimate=1e-3),
}


def catalogued(name) -> Case:
    return case(name, **CATALOGUE[name])


def _solver_gap(case, via):
    """The largest difference between the simulator's solver and the reference, via ``via``."""
    cfg, reference = case.config, padded(case.system, case.config.c)
    systems = [case.system] + [case.system.astype(complex)] * (not np.iscomplexobj(case.system))
    if via in ("sparse", "vector"):
        rhs = make_encoding(case.v) if via == "sparse" else case.v
        solver_block = qla.solver_block  # qla_solve with its solver swapped for the reference
        qla.solver_block = lambda state, plan: reference_solver(state, cfg, reference)
        try:
            want, want_prob = qla.qla_solve(rhs, case.system, cfg)
        finally:
            qla.solver_block = solver_block
        return max(max(abs(prob - want_prob), np.abs(got.amps - want.amps).max())
                   for got, prob in (qla.qla_solve(rhs, a, cfg) for a in systems))
    layout, controls = block_layout(via, qla.index_width(len(case.system)))
    state = solver_input(np.random.default_rng((SEED, 1)), layout, controls)
    before = state.amps.copy()
    want = reference_solver(state, cfg, reference, "clock", "index", "anc", controls)
    outs = [qla.solver_block(state, plan_for(a, cfg), "clock", "index", "anc", controls)
            for a in systems]
    assert all(out.layout == want.layout for out in outs) and np.array_equal(state.amps, before)
    return max(np.abs(out.amps - want.amps).max() for out in outs)


def agree(case, via="none"):
    """Check ``case`` against each of its references, any warning an error, and
    return what it read; an AssertionError names the first that fails. ``via``
    routes the solver check: a :data:`LAYOUTS` entry (``solver_block`` on a random
    input there, drawn from the seed sequence (SEED, 1)), or "sparse" or "vector"
    (``qla_solve`` of v, sparse-encoded or as a vector). A real system is solved as
    itself and as its complex cast."""
    a, refs, read = case.system, case.references, {}
    assert set(refs) <= {"solver", "estimate", "overlap"}, f"{case.name}: unknown {refs}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if "solver" in refs:  # the largest amplitude (and probability) difference
            gap = read["solver"] = _solver_gap(case, via)
            assert gap <= refs["solver"], f"{case.name} via {via}: the solver is off by {gap:.3g}"
        if "estimate" in refs:  # the exact-mode estimate against Re u^T A^{-1} v
            got = read["estimate"] = estimate_bilinear(*case.inputs()).estimate
            want = read["oracle"] = float((case.u @ np.linalg.solve(a, case.v)).real)
            assert abs(got - want) <= refs["estimate"], f"{case.name}: {got} off the oracle {want}"
        if "overlap" in refs:  # the least fidelity of qla_solve's state with A^{-1} v
            state, _ = qla.qla_solve(case.v, a, case.config)
            got = read["overlap"] = qla.solution_overlap(state, np.linalg.solve(a, case.v))
            assert got >= refs["overlap"], f"{case.name}: overlap {got}"
    return read
