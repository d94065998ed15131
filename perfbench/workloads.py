"""Seeded inputs for the benchmark workloads, and an independent GPR oracle.

Every workload is one ``qgpr`` command-line job on a generated 1-D data set:
x ~ U[0, 3], y = sin(2x) + 0.1 N(0, 1), test points x* ~ U[0, 3], noise
variance 0.5, signal variance and lengthscale 1. The training set, the test
points and the config's ``seed`` all come from the benchmark's seed, and the
program sees only the CSV and JSON files written here.

The oracle below shares no code with ``qgpr``: it builds the kernel matrix
with vectorised numpy and solves with LAPACK, so a fault in the program's
kernels or in its Cholesky path cannot hide in the reference values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

NOISE_VARIANCE = 0.5
X_RANGE = (0.0, 3.0)
SQUARED_EXPONENTIAL = {"family": "squared-exponential", "signal_variance": 1.0, "lengthscale": 1.0}
COMPACT_SUPPORT = {
    "family": "compact-support", "signal_variance": 1.0, "lengthscale": 1.0, "cutoff_radius": 0.5,
}


@dataclass(frozen=True)
class Workload:
    """One CLI job shape. ``sweep_clock`` turns the job into ``qgpr sweep``."""

    name: str
    why: str
    n_train: int
    n_test: int
    kernel: dict
    clock_qubits: int
    mode: str = "exact"
    shots: int = 10_000
    sweep_clock: tuple[int, ...] = ()

    @property
    def command(self) -> str:
        return "sweep" if self.sweep_clock else "predict"

    @property
    def estimates_per_job(self) -> int:
        """One mean and one variance estimate per test point and clock width."""
        return 2 * self.n_test * max(1, len(self.sweep_clock))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "predict-narrow",
            "many tiny 13-qubit exact estimates: per-call dispatch, small eigh and the "
            "classical oracle dominate; bypasses every state-size or clock-width cost",
            n_train=8, n_test=600, kernel=SQUARED_EXPONENTIAL, clock_qubits=6,
        ),
        Workload(
            "sweep-clock",
            "clock-width sweep 6/8/10 (the paper's accuracy experiment): the dense QFT "
            "and the unitarity check grow as T^3",
            n_train=16, n_test=17, kernel=SQUARED_EXPONENTIAL, clock_qubits=6,
            sweep_clock=(6, 8, 10),
        ),
        Workload(
            "predict-sparse-sampled",
            "18-qubit sampled estimates on a 128-point compact-support kernel: amplitude "
            "traffic, 128x128 eigenbasis rotations and the shot readout",
            n_train=128, n_test=50, kernel=COMPACT_SUPPORT, clock_qubits=8,
            mode="sampled", shots=20_000,
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """The generated data set and the paths of the files the CLI reads."""

    x: np.ndarray
    y: np.ndarray
    x_test: np.ndarray
    config_path: Path
    report_path: Path


def write_inputs(workload: Workload, seed: int, workdir: Path) -> Inputs:
    """Draw the data set from ``seed`` and write ``train.csv`` and ``config.json``."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(*X_RANGE, workload.n_train)
    y = np.sin(2.0 * x) + 0.1 * rng.standard_normal(workload.n_train)
    x_test = rng.uniform(*X_RANGE, workload.n_test)
    dataset = workdir / "train.csv"
    # repr round-trips floats exactly, so the oracle sees the CLI's data bit for bit
    dataset.write_text("".join(f"{xi!r},{yi!r}\n" for xi, yi in zip(x.tolist(), y.tolist())))
    config = {
        "dataset": str(dataset),
        "kernel": workload.kernel,
        "noise_variance": NOISE_VARIANCE,
        "test_points": [[p] for p in x_test.tolist()],
        "clock_qubits": workload.clock_qubits,
        "shots": workload.shots,
        "seed": seed,
        "mode": workload.mode,
    }
    if workload.sweep_clock:
        config["sweep"] = {"axis": "clock_qubits", "values": list(workload.sweep_clock)}
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(config, indent=1))
    return Inputs(x, y, x_test, config_path, workdir / "report.out")


def kernel_matrix(kernel: dict, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """k(a_i, b_j) for 1-D inputs, vectorised."""
    dist = np.abs(a[:, None] - b[None, :])
    sig = kernel["signal_variance"]
    if kernel["family"] == "squared-exponential":
        return sig * np.exp(-(dist**2) / (2.0 * kernel["lengthscale"] ** 2))
    u = dist / kernel["cutoff_radius"]
    return np.where(u < 1.0, sig * (1.0 - u) ** 4 * (4.0 * u + 1.0), 0.0)


def oracle(workload: Workload, inputs: Inputs) -> dict[float, tuple[float, float]]:
    """Posterior (mean, variance) at every test point, keyed by the test point."""
    system = kernel_matrix(workload.kernel, inputs.x, inputs.x) + NOISE_VARIANCE * np.eye(
        workload.n_train
    )
    cross = kernel_matrix(workload.kernel, inputs.x_test, inputs.x)
    mean = cross @ np.linalg.solve(system, inputs.y)
    reduction = np.einsum("ij,ji->i", cross, np.linalg.solve(system, cross.T))
    variance = workload.kernel["signal_variance"] - reduction
    return {
        float(p): (float(m), float(v))
        for p, m, v in zip(inputs.x_test, mean, variance)
    }
