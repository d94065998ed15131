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
import math
import sys
import time
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .classical import predict_exact
from .estimator import (
    gpr_plan,
    interference_layout,
    predict_mean_quantum,
    predict_variance_quantum,
    shots_for_precision,
)
from .exceptions import InputError, NumericError, ParseError, finite_real, integer
from .kernels import GPModel, KernelSpec, TrainingSet, build_model, diagnostics
from .statevector import check_shots

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3

_REL_GUARD = 1e-12  # denominator guard for relative errors
_PILOT_SHOTS = 400


@dataclass
class RunConfig:
    """Resolved run configuration (file values with flag overrides applied). Checks each
    field's type and range and makes numbers floats; KernelSpec checks the kernel's."""

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
        _string("dataset", self.dataset)
        self.noise_variance = finite_real("noise_variance", self.noise_variance, 0)
        self.test_points = _points(self.test_points)
        if not self.test_points:
            raise InputError("at least one test point is required")
        self.clock_qubits = integer("clock_qubits", self.clock_qubits, 1)
        self.shots = integer("shots", self.shots, 1)
        self.seed = integer("seed", self.seed, 0)
        if _string("mode", self.mode) not in ("exact", "sampled"):
            raise InputError(f"mode must be 'exact' or 'sampled', got {self.mode!r}")
        if not isinstance(self.has_header, bool):
            raise InputError(f"has_header must be true or false, got {self.has_header!r}")
        self.kappa_bound = finite_real("kappa_bound", self.kappa_bound, 1)
        if self.delta is not None:
            self.delta = finite_real("delta", self.delta, 0)
        if not isinstance(self.sweep_values, list):
            raise InputError(f"sweep.values must be a list, got {self.sweep_values!r}")
        self.sweep_values = [integer("sweep.values", value) for value in self.sweep_values]
        if self.sweep_axis not in (None, "clock_qubits", "shots"):
            raise InputError(f"sweep.axis must be clock_qubits or shots, got {self.sweep_axis!r}")
        if (self.sweep_axis is None) != (self.sweep_values == []):  # neither is no sweep
            raise InputError("a sweep needs an axis and a non-empty list of values")
        if self.out is not None:  # checked before any estimate; "" names the working directory
            out = Path(_string("out", self.out))
            if out.is_dir() or not out.parent.is_dir():
                raise InputError(f"cannot write {self.out}: not a file in an existing directory")


def _string(name: str, value) -> str:
    if not isinstance(value, str):
        raise InputError(f"{name} must be a string, got {value!r}")
    return value


def _points(value) -> list[list[float]]:
    """Test points as coordinate lists; a bare number is a 1-D point."""
    if not isinstance(value, list):
        raise InputError(f"test_points must be a list of points, got {value!r}")
    return [
        [finite_real("test_points coordinate", c) for c in (p if isinstance(p, list) else [p])]
        for p in value
    ]


def _object(name: str, value, own, prefix: str = "") -> dict:
    """The JSON object ``value`` as keyword arguments: its keys are the fields ``own``
    less ``prefix``. Each field without a default, or under a prefix every field, is given."""
    if not isinstance(value, dict):
        raise InputError(f"{name} must be an object, got {value!r}")
    keys = {f.name.removeprefix(prefix): f for f in own}
    unknown = set(value) - set(keys)
    if unknown:
        raise InputError(f"unknown {name} fields: {sorted(unknown)}")
    missing = [key for key, f in keys.items() if key not in value
               and (prefix or f.default is MISSING and f.default_factory is MISSING)]
    if missing:
        raise InputError(f"{name} needs the fields {missing}")
    return {prefix + key: val for key, val in value.items()}


def load_config(path: str, overrides: dict | None = None) -> RunConfig:
    """Read the JSON config file and apply the non-None flag overrides. Its keys are
    RunConfig's fields, but ``kernel`` holds KernelSpec's and ``sweep`` each ``sweep_<key>``
    as ``<key>`` (an absent or null ``sweep`` is none). KernelSpec and RunConfig check them."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise InputError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise InputError("config file must contain a JSON object")
    sweeps = [f for f in fields(RunConfig) if f.name.startswith("sweep_")]
    sweep = raw.pop("sweep", None)
    sweep = {} if sweep is None else _object("sweep", sweep, sweeps, "sweep_")
    cfg = _object("config", raw, [f for f in fields(RunConfig) if f not in sweeps])
    cfg.update((key, val) for key, val in (overrides or {}).items() if val is not None)
    kernel = _object("kernel", cfg.pop("kernel"), fields(KernelSpec))
    return RunConfig(kernel=KernelSpec(**kernel), **cfg, **sweep)


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
            values = [float(cell) for cell in row]
        except ValueError:
            raise ParseError(f"non-numeric field in {row!r}", row=lineno) from None
        if not all(map(math.isfinite, values)):
            raise ParseError(f"non-finite field in {row!r}", row=lineno)
        rows.append(values)
    if not rows:
        raise ParseError(f"dataset {path} contains no data rows")
    data = np.asarray(rows)
    return TrainingSet(X=data[:, :-1], y=data[:, -1])


def _fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# commands


def _shots(cfg: RunConfig) -> int | None:
    """Shots per estimate: ``None`` (exact mode) unless the run is sampled."""
    return cfg.shots if cfg.mode == "sampled" else None


def _build(cfg: RunConfig, runs) -> GPModel:
    """The GP model, once the data set is read and every ``(sweep value or None, clock_qubits,
    shots)`` the command's estimates use is within the caps; with any estimate, each test
    point must also have the data set's dimension."""
    training = ingest_csv(cfg.dataset, cfg.has_header)
    for value, clock, shots in runs:
        try:
            interference_layout(training.n, clock)  # a clock below 1 or past the qubit cap
            check_shots(shots, cfg.seed)
        except InputError as exc:
            raise exc if value is None else InputError(f"sweep value {value}: {exc}") from None
    for point in cfg.test_points if runs else ():
        if len(point) != training.d:
            raise InputError(f"test point has dimension {len(point)}, expected {training.d}")
    return build_model(training, cfg.kernel, cfg.noise_variance)


def _errors(quantum: float, classical: float) -> dict:
    abs_err = abs(quantum - classical)
    return {"absolute": abs_err, "relative": abs_err / max(abs(classical), _REL_GUARD)}


def _config_record(cfg: RunConfig) -> dict:
    rec = asdict(cfg)
    del rec["out"]  # the artifact location is not part of the run's identity
    return rec


def _estimates(model: GPModel, points, plan, shots: int | None, seed: int):
    """Yield (point, mean, variance, seconds) per test point: the quantum mean
    and variance of point i, both seeded ``seed + i``, and their wall time."""
    for i, point in enumerate(points):
        t0 = time.perf_counter()
        mean = predict_mean_quantum(model, point, plan, shots=shots, seed=seed + i)
        var = predict_variance_quantum(model, point, plan, shots=shots, seed=seed + i)
        yield point, mean, var, time.perf_counter() - t0


_QUANTUM_FIELDS = ("estimate", "std_error", "raw_mean", "success_fraction", "shots", "clamped")
_DIAGNOSTIC_FIELDS = ("kappa", "row_sparsity", "min_eig")


def cmd_predict(cfg: RunConfig) -> dict:
    """Classical and quantum prediction for every test point."""
    shots = _shots(cfg)
    model = _build(cfg, [(None, cfg.clock_qubits, shots)])
    diag = diagnostics(model)
    plan = gpr_plan(model, cfg.clock_qubits)
    t0 = time.perf_counter()
    exacts = predict_exact(model, cfg.test_points)
    t_classical = time.perf_counter() - t0
    estimates = _estimates(model, cfg.test_points, plan, shots, cfg.seed)
    results, timings = [], []
    for (point, mean_res, var_res, tq), exact in zip(estimates, exacts):
        timings.append(tq)
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
        "qla": {"clock_qubits": plan.clock_qubits, "t0": plan.config.t0, "c": plan.config.c,
                "clamped_bins": plan.config.clamped_bins},
        "diagnostics": {f: getattr(diag, f) for f in _DIAGNOSTIC_FIELDS},
        "results": results,
    }
    _write(cfg.out, report)
    print(f"classical prediction of {len(exacts)} points: {t_classical:.4f} s")
    print(f"{'point':<20} {'cl.mean':>12} {'q.mean':>12} {'cl.var':>12} {'q.var':>12} "
          f"{'t_q[s]':>9}")
    for rec, tq in zip(results, timings):
        cl, q = rec["classical"], rec["quantum"]
        print(f"{str(rec['test_point']):<20} {cl['mean']:>12.6f} {q['mean']['estimate']:>12.6f} "
              f"{cl['variance']:>12.6f} {q['variance']['estimate']:>12.6f} {tq:>9.4f}")
    return report


def jitter_recommendation(diag, kappa_bound: float) -> float:
    """Smallest extra noise variance bringing the condition number under the bound."""
    if diag.kappa <= kappa_bound:
        return 0.0
    max_eig = diag.kappa * diag.min_eig
    return (max_eig - kappa_bound * diag.min_eig) / (kappa_bound - 1.0)


def cmd_diagnose(cfg: RunConfig) -> dict:
    """Conditioning and sparsity diagnostics plus shot-budget advice."""
    pilot_shots = max(_shots(cfg) or 0, _PILOT_SHOTS)
    model = _build(cfg, [] if cfg.delta is None else [(None, cfg.clock_qubits, pilot_shots)])
    diag = diagnostics(model)
    report = {
        "config": _config_record(cfg),
        **{f: getattr(diag, f) for f in _DIAGNOSTIC_FIELDS},
        "kappa_bound": cfg.kappa_bound,
        "jitter_recommendation": jitter_recommendation(diag, cfg.kappa_bound),
        "recommended_shots": None,
    }
    if cfg.delta is not None:
        plan = gpr_plan(model, cfg.clock_qubits)
        pilot = predict_mean_quantum(model, cfg.test_points[0], plan, shots=pilot_shots,
                                     seed=cfg.seed)
        report["recommended_shots"] = shots_for_precision(cfg.delta, pilot)
        report["pilot_shots"] = pilot.shots
        report["clamped_bins"] = plan.config.clamped_bins
    _write(cfg.out, report)
    print(json.dumps({k: v for k, v in report.items() if k != "config"}, indent=2, sort_keys=True))
    return report


def cmd_sweep(cfg: RunConfig) -> list[dict]:
    """Error scaling along a clock_qubits or shots axis, one CSV row per value."""
    if cfg.sweep_axis is None:
        raise InputError("sweep needs 'sweep': {'axis': 'clock_qubits'|'shots', 'values': [...]}")
    runs = [
        (value, value, _shots(cfg)) if cfg.sweep_axis == "clock_qubits"
        else (value, cfg.clock_qubits, value)  # a shots axis samples
        for value in sorted(cfg.sweep_values)
    ]
    model = _build(cfg, runs)
    exacts = predict_exact(model, cfg.test_points)  # axis-independent
    rows, plan = [], None
    for j, (value, clock, shots) in enumerate(runs):
        if plan is None or plan.clock_qubits != clock:  # a shots axis keeps one plan
            plan = gpr_plan(model, clock)
        estimates = _estimates(model, cfg.test_points, plan, shots, cfg.seed + j)
        mean_errs, var_errs, succ, clamped = [], [], [], 0
        for (_, mres, vres, _), exact in zip(estimates, exacts):
            mean_errs.append(abs(mres.estimate - exact.mean))
            var_errs.append(abs(vres.estimate - exact.variance))
            succ.append(mres.success_fraction)
            clamped += vres.clamped
        rows.append(
            {
                "axis_value": value,
                "mean_error": float(np.mean(mean_errs)),
                "variance_error": float(np.mean(var_errs)),
                "success_fraction": float(np.mean(succ)),
                "clamped_bins": plan.config.clamped_bins,
                "clamped_variances": clamped,
            }
        )
    _check_finite(rows, "sweep")
    header = (f"# axis={cfg.sweep_axis}\naxis_value,mean_error,variance_error,success_fraction,"
              "clamped_bins,clamped_variances\n")
    body = "".join(
        f"{r['axis_value']},{_fmt(r['mean_error'])},{_fmt(r['variance_error'])},"
        f"{_fmt(r['success_fraction'])},{r['clamped_bins']},{r['clamped_variances']}\n"
        for r in rows
    )
    table = header + body
    _write(cfg.out, table)
    print(table, end="")
    return rows


def _check_finite(value, name: str) -> None:
    """Raise a NumericError naming the first non-finite number in a report."""
    if isinstance(value, dict):
        for key, item in value.items():
            _check_finite(item, f"{name}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _check_finite(item, f"{name}[{i}]")
    elif isinstance(value, float) and not math.isfinite(value):
        raise NumericError(f"{name} is {value}, not a finite number")


def _write(out: str | None, artifact: dict | str) -> None:
    """Write a report (as JSON) or a table; a failed write (a full disk) is an input error.
    A report with a non-finite number is a numerical error, written or not."""
    if not isinstance(artifact, str):
        _check_finite(artifact, "report")
    if out is not None:
        text = artifact if isinstance(artifact, str) else json.dumps(
            artifact, indent=2, sort_keys=True, allow_nan=False) + "\n"
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise InputError(f"cannot write {out}: {exc.strerror or exc}") from exc


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a malformed flag is a one-line input error, as in the config
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    try:
        args = build_parser().parse_args(argv)
        overrides = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
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
