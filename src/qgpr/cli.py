"""Batch front end: dataset ingestion, run configuration, and the
predict / diagnose / sweep commands with machine-readable output.

Configuration comes from a JSON file (see README for the schema); a handful
of command-line flags override file values. Written reports contain no
timestamps or timings, so a fixed config and seed reproduce them byte for
byte; wall-clock timings go to standard output only.

Exit statuses: 0 success, 2 input errors, 3 numerical/conditioning errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .classical import predict_exact
from .estimator import (
    gpr_config,
    predict_mean_quantum,
    predict_variance_quantum,
    shots_for_precision,
)
from .exceptions import InputError, NumericError, ParseError
from .kernels import (
    FAMILIES,
    GPModel,
    KernelSpec,
    TrainingSet,
    build_model,
    diagnostics,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3

_REL_GUARD = 1e-12  # denominator guard for relative errors
_PILOT_SHOTS = 400


@dataclass
class RunConfig:
    """Resolved run configuration (file values with flag overrides applied)."""

    dataset: str
    kernel: KernelSpec
    noise_variance: float
    test_points: list[list[float]]
    clock_qubits: int = 8
    shots: int = 10_000
    seed: int = 0
    mode: str = "exact"
    out: str | None = None
    has_header: bool = False
    kappa_bound: float = 1e4
    delta: float | None = None
    sweep_axis: str | None = None
    sweep_values: list[int] = field(default_factory=list)

    def __post_init__(self):
        if self.mode not in ("exact", "sampled"):
            raise InputError(f"mode must be 'exact' or 'sampled', got {self.mode!r}")
        if self.noise_variance <= 0:
            raise InputError("noise_variance must be > 0")
        if self.clock_qubits < 1:
            raise InputError("clock_qubits must be >= 1")
        if self.shots < 1:
            raise InputError("shots must be >= 1")
        if self.seed < 0:
            raise InputError("seed must be >= 0")
        if self.kappa_bound <= 1:
            raise InputError("kappa_bound must be > 1")
        if not self.test_points:
            raise InputError("at least one test point is required")


def _integer(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{name} must be an integer, got {value!r}")
    return value


def _number(name: str, value) -> float:
    numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not numeric or not abs(value) <= sys.float_info.max:  # NaN compares false
        raise InputError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _boolean(name: str, value) -> bool:
    if not isinstance(value, bool):
        raise InputError(f"{name} must be true or false, got {value!r}")
    return value


def _string(name: str, value) -> str:
    if not isinstance(value, str):
        raise InputError(f"{name} must be a string, got {value!r}")
    return value


# top-level run fields besides test_points: name -> (type check, null allowed)
_FIELDS = {
    "dataset": (_string, False),
    "noise_variance": (_number, False),
    "clock_qubits": (_integer, False),
    "shots": (_integer, False),
    "seed": (_integer, False),
    "mode": (_string, False),
    "out": (_string, True),
    "has_header": (_boolean, False),
    "kappa_bound": (_number, False),
    "delta": (_number, True),
}


def _points(value) -> list[list[float]]:
    """Test points as coordinate lists; a bare number is a 1-D point."""
    if not isinstance(value, list):
        raise InputError(f"test_points must be a list of points, got {value!r}")
    return [
        [_number("test_points coordinate", c) for c in (p if isinstance(p, list) else [p])]
        for p in value
    ]


def load_config(path: str, overrides: dict | None = None) -> RunConfig:
    """Read the JSON config file, apply non-None flag overrides, check field types."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise InputError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise InputError("config file must contain a JSON object")

    kspec = raw.pop("kernel", None)
    if not isinstance(kspec, dict) or "family" not in kspec:
        raise InputError("config needs a 'kernel' object with a 'family' field")
    if kspec.get("family") not in FAMILIES:
        raise InputError(f"kernel family must be one of {FAMILIES}")
    unknown = set(kspec) - {f.name for f in fields(KernelSpec)}
    if unknown:
        raise InputError(f"unknown kernel fields: {sorted(unknown)}")
    kernel = KernelSpec(
        family=kspec["family"],
        signal_variance=_number("kernel.signal_variance", kspec.get("signal_variance", 1.0)),
        lengthscale=_number("kernel.lengthscale", kspec.get("lengthscale", 1.0)),
        cutoff_radius=(
            _number("kernel.cutoff_radius", kspec["cutoff_radius"])
            if kspec.get("cutoff_radius") is not None
            else None
        ),
    )
    sweep = raw.pop("sweep", None) or {}
    if not isinstance(sweep, dict):
        raise InputError("sweep must be an object with 'axis' and 'values'")
    sweep_values = sweep.get("values", [])
    if not isinstance(sweep_values, list):
        raise InputError(f"sweep.values must be a list, got {sweep_values!r}")
    unknown = set(raw) - set(_FIELDS) - {"test_points"}
    if unknown:
        raise InputError(f"unknown config fields: {sorted(unknown)}")
    if "dataset" not in raw or "noise_variance" not in raw or "test_points" not in raw:
        raise InputError("config needs 'dataset', 'noise_variance', and 'test_points'")
    cfg = dict(raw)
    for key, val in (overrides or {}).items():
        if val is not None:
            cfg[key] = val
    points = _points(cfg.pop("test_points"))
    for key, val in cfg.items():
        check, nullable = _FIELDS[key]
        if val is not None or not nullable:
            cfg[key] = check(key, val)
    return RunConfig(
        kernel=kernel,
        test_points=points,
        sweep_axis=sweep.get("axis"),
        sweep_values=[_integer("sweep.values", v) for v in sweep_values],
        **cfg,
    )


# ---------------------------------------------------------------------------
# dataset I/O


def ingest_csv(path: str, has_header: bool = False) -> TrainingSet:
    """Read rows of ``feature_1, ..., feature_d, target`` into a TrainingSet."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read dataset {path}: {exc}") from exc
    rows: list[list[float]] = []
    width = None
    reader = csv.reader(io.StringIO(text))
    for lineno, row in enumerate(reader, start=1):
        if has_header and lineno == 1:
            continue
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) < 2:
            raise ParseError("need at least one feature and a target", row=lineno)
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(f"expected {width} columns, found {len(row)}", row=lineno)
        try:
            rows.append([float(cell) for cell in row])
        except ValueError:
            raise ParseError(f"non-numeric field in {row!r}", row=lineno) from None
    if not rows:
        raise ParseError(f"dataset {path} contains no data rows")
    data = np.asarray(rows)
    return TrainingSet(X=data[:, :-1], y=data[:, -1])


def export_csv(training: TrainingSet, path: str) -> None:
    """Write a TrainingSet back out, losslessly (shortest round-trip decimals)."""
    lines = (",".join(_fmt(c) for c in [*xi, yi]) for xi, yi in zip(training.X, training.y))
    Path(path).write_text("\n".join(lines) + "\n")


def _fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# commands


def _build(cfg: RunConfig) -> GPModel:
    training = ingest_csv(cfg.dataset, cfg.has_header)
    return build_model(training, cfg.kernel, cfg.noise_variance)


def _errors(quantum: float, classical: float) -> dict:
    abs_err = abs(quantum - classical)
    return {"absolute": abs_err, "relative": abs_err / max(abs(classical), _REL_GUARD)}


def _config_record(cfg: RunConfig) -> dict:
    rec = asdict(cfg)
    rec["kernel"] = asdict(cfg.kernel)
    del rec["out"]  # the artifact location is not part of the run's identity
    return rec


def _estimates(model: GPModel, points, qcfg, shots: int, seed: int, mode: str):
    """Yield (point, mean, variance, seconds) per test point: the quantum mean
    and variance of point i, both seeded ``seed + i``, and their wall time."""
    shots = shots if mode == "sampled" else None
    for i, point in enumerate(points):
        t0 = time.perf_counter()
        mean = predict_mean_quantum(model, point, qcfg, shots=shots, seed=seed + i, mode=mode)
        var = predict_variance_quantum(model, point, qcfg, shots=shots, seed=seed + i, mode=mode)
        yield point, mean, var, time.perf_counter() - t0


_QUANTUM_FIELDS = ("estimate", "std_error", "raw_mean", "success_fraction", "shots")
_DIAGNOSTIC_FIELDS = ("kappa", "row_sparsity", "min_eig")


def cmd_predict(cfg: RunConfig) -> dict:
    """Classical and quantum prediction for every test point."""
    model = _build(cfg)
    diag = diagnostics(model)
    qcfg = gpr_config(model, cfg.clock_qubits)
    estimates = _estimates(model, cfg.test_points, qcfg, cfg.shots, cfg.seed, cfg.mode)
    results = []
    timings = []
    for point, mean_res, var_res, tq in estimates:
        t0 = time.perf_counter()  # perfbench counts all time before the first estimate as set-up
        exact = predict_exact(model, point)
        timings.append((time.perf_counter() - t0, tq))
        pair = {"mean": mean_res, "variance": var_res}
        results.append(
            {
                "test_point": list(point),
                "classical": {"mean": exact.mean, "variance": exact.variance},
                "quantum": {
                    k: {f: getattr(r, f) for f in _QUANTUM_FIELDS} for k, r in pair.items()
                },
                "errors": {k: _errors(r.estimate, getattr(exact, k)) for k, r in pair.items()},
            }
        )
    report = {
        "config": _config_record(cfg),
        "qla": {"clock_qubits": qcfg.clock_qubits, "t0": qcfg.t0, "c": qcfg.c},
        "diagnostics": {f: getattr(diag, f) for f in _DIAGNOSTIC_FIELDS},
        "results": results,
    }
    _write_report(report, cfg.out)
    print(f"{'point':<20} {'cl.mean':>12} {'q.mean':>12} {'cl.var':>12} {'q.var':>12} "
          f"{'t_cl[s]':>9} {'t_q[s]':>9}")
    for rec, (tc, tq) in zip(results, timings):
        print(
            f"{str(rec['test_point']):<20} {rec['classical']['mean']:>12.6f} "
            f"{rec['quantum']['mean']['estimate']:>12.6f} "
            f"{rec['classical']['variance']:>12.6f} "
            f"{rec['quantum']['variance']['estimate']:>12.6f} {tc:>9.4f} {tq:>9.4f}"
        )
    return report


def jitter_recommendation(diag, kappa_bound: float) -> float:
    """Smallest extra noise variance bringing the condition number under the bound."""
    if diag.kappa <= kappa_bound:
        return 0.0
    max_eig = diag.kappa * diag.min_eig
    return (max_eig - kappa_bound * diag.min_eig) / (kappa_bound - 1.0)


def cmd_diagnose(cfg: RunConfig) -> dict:
    """Conditioning and sparsity diagnostics plus shot-budget advice."""
    model = _build(cfg)
    diag = diagnostics(model)
    report = {
        "config": _config_record(cfg),
        **{f: getattr(diag, f) for f in _DIAGNOSTIC_FIELDS},
        "kappa_bound": cfg.kappa_bound,
        "jitter_recommendation": jitter_recommendation(diag, cfg.kappa_bound),
        "recommended_shots": None,
    }
    if cfg.delta is not None:
        qcfg = gpr_config(model, cfg.clock_qubits)
        pilot = predict_mean_quantum(
            model, cfg.test_points[0], qcfg,
            shots=max(cfg.shots, _PILOT_SHOTS) if cfg.mode == "sampled" else _PILOT_SHOTS,
            seed=cfg.seed, mode="sampled",
        )
        report["recommended_shots"] = shots_for_precision(cfg.delta, pilot)
        report["pilot_shots"] = pilot.shots
    _write_report(report, cfg.out)
    print(json.dumps({k: v for k, v in report.items() if k != "config"}, indent=2, sort_keys=True))
    return report


def cmd_sweep(cfg: RunConfig) -> list[dict]:
    """Error scaling along a clock_qubits or shots axis, one CSV row per value."""
    if cfg.sweep_axis not in ("clock_qubits", "shots"):
        raise InputError("sweep needs 'sweep': {'axis': 'clock_qubits'|'shots', 'values': [...]}")
    if not cfg.sweep_values:
        raise InputError("sweep values must be a non-empty list")
    model = _build(cfg)
    exacts = [predict_exact(model, point) for point in cfg.test_points]  # axis-independent
    rows = []
    for j, value in enumerate(sorted(cfg.sweep_values)):
        clock = value if cfg.sweep_axis == "clock_qubits" else cfg.clock_qubits
        shots = value if cfg.sweep_axis == "shots" else cfg.shots
        mode = "sampled" if cfg.sweep_axis == "shots" else cfg.mode
        qcfg = gpr_config(model, clock)
        estimates = _estimates(model, cfg.test_points, qcfg, shots, cfg.seed + j, mode)
        mean_errs, var_errs, succ = [], [], []
        for (_, mres, vres, _), exact in zip(estimates, exacts):
            mean_errs.append(abs(mres.estimate - exact.mean))
            var_errs.append(abs(vres.estimate - exact.variance))
            succ.append(mres.success_fraction)
        rows.append(
            {
                "axis_value": value,
                "mean_error": float(np.mean(mean_errs)),
                "variance_error": float(np.mean(var_errs)),
                "success_fraction": float(np.mean(succ)),
            }
        )
    header = f"# axis={cfg.sweep_axis}\naxis_value,mean_error,variance_error,success_fraction\n"
    body = "".join(
        f"{r['axis_value']},{_fmt(r['mean_error'])},{_fmt(r['variance_error'])},"
        f"{_fmt(r['success_fraction'])}\n"
        for r in rows
    )
    table = header + body
    if cfg.out:
        Path(cfg.out).write_text(table)
    print(table, end="")
    return rows


def _write_report(report: dict, out: str | None) -> None:
    if out:
        Path(out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgpr",
        description="Quantum-assisted GPR: predict, diagnose, and sweep commands.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("predict", "classical and quantum prediction for each test point"),
        ("diagnose", "conditioning/sparsity diagnostics and shot-budget advice"),
        ("sweep", "error scaling along a clock_qubits or shots axis (CSV)"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--shots", type=int, default=None)
        p.add_argument("--clock-qubits", type=int, default=None, dest="clock_qubits")
        p.add_argument("--mode", choices=["exact", "sampled"], default=None)
        p.add_argument("--out", default=None, help="path for the JSON/CSV artifact")
        if name == "diagnose":
            p.add_argument("--delta", type=float, default=None,
                           help="target precision for the shot recommendation")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    try:
        cfg = load_config(args.config, overrides)
        if args.command == "predict":
            cmd_predict(cfg)
        elif args.command == "diagnose":
            cmd_diagnose(cfg)
        else:
            cmd_sweep(cfg)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
