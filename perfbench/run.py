"""Benchmark of the qgpr command line on seeded, generated inputs.

    python3 perfbench/run.py --workload sweep-clock --seed 1 --seconds 45 --trace 0

Runs one workload (see ``workloads.py``) from the root of a source checkout.
The load is a closed loop: this one process calls ``qgpr.cli.main`` in
process, one job at a time, for about ``--seconds``, with BLAS held to one
thread. Every estimate is checked against an independent numpy
oracle, and every report the CLI writes is checked against the estimates.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced jobs, and prints per-layer call counts and self times
(per job) from spans recorded around the public functions of each module
(``spans.py``); the spans go to ``.perfbench_out/trace-<workload>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# One BLAS thread. With two (nproc on the 2-vCPU host the figures in
# trajectory.md come from), each small BLAS call may wait on the other vCPU,
# and the runs spread about twice as much (see "Steadiness" in README.md);
# sweep-clock's 1024 x 1024 products run about 30% faster with two.
BLAS_THREADS = 1

# Set-up is sampled in this many fresh interpreters that each time `import qgpr`;
# single imports range from 0.13 s to 0.5 s on a shared 2-vCPU host, and the
# median of 5 still moved by 30% between runs.
IMPORT_SAMPLES = 15
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import qgpr; print(time.perf_counter() - t)"
)
# Exact mode: |estimate - oracle| <= 32 / 2^clock_qubits. Phase-estimation
# bias shrinks about as 1/T; its largest value was 0.10 at clock width 6 (100
# data sets), 0.054 at 8 (60) and 0.008 at 10 (5), under half of this limit.
EXACT_TOLERANCE_BINS = 32.0
# Sampled mode: |estimate - oracle| <= 5 standard errors (shot noise dominates).
SAMPLED_Z = 5.0

END_TO_END = {
    "job_s": "s",
    "setup_s": "s",
    "estimates_per_s": "1/s",
    "estimate_p75_ms": "ms",
    "estimate_p90_ms": "ms",
    "peak_rss_mib": "MiB",
}


class _ByteSink(io.TextIOBase):
    """Text stream that keeps only the number of UTF-8 bytes written to it."""

    def __init__(self):
        self.bytes = 0

    def writable(self):
        return True

    def write(self, s):
        self.bytes += len(s.encode())
        return len(s)


class _CountingHandler(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


class Harness:
    """Runs CLI jobs and times each quantum estimate as ``qgpr.cli`` calls it."""

    def __init__(self, workload, inputs, reference):
        import qgpr.cli

        self.cli = qgpr.cli
        self.workload = workload
        self.inputs = inputs
        self.reference = reference
        self.argv = [workload.command, "--config", str(inputs.config_path),
                     "--out", str(inputs.report_path)]
        self.records: list[tuple] = []
        self.first_call: float | None = None
        self.clamps = {"qgpr.qla": _CountingHandler(), "qgpr.estimator": _CountingHandler()}
        for logger_name, handler in self.clamps.items():
            logging.getLogger(logger_name).addHandler(handler)
        for attr in ("predict_mean_quantum", "predict_variance_quantum"):
            setattr(self.cli, attr, self._timed(attr, getattr(self.cli, attr)))

    def _timed(self, kind, fn):
        def timed(model, point, config, **kwargs):
            start = perf_counter()
            if self.first_call is None:
                self.first_call = start
            result = None
            try:
                result = fn(model, point, config, **kwargs)
                return result
            finally:
                latency = perf_counter() - start
                self.records.append((kind, float(point[0]), config.clock_qubits, result, latency))

        return timed

    def run_job(self) -> dict:
        self.records = []
        self.first_call = None
        for handler in self.clamps.values():
            handler.count = 0
        self.inputs.report_path.unlink(missing_ok=True)
        out, err = _ByteSink(), io.StringIO()
        error = None
        start = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(self.argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a crashed job fails its estimates; the run goes on
                code, error = "an exception", traceback.format_exc()
        end = perf_counter()
        first = self.first_call if self.first_call is not None else end
        job = {
            "wall_s": end - start,
            "setup_s": first - start,
            "estimate_s": end - first,
            "latencies": [r[4] for r in self.records],
            "success": [r[3].success_fraction for r in self.records if r[3] is not None],
            "inversion_clamps": self.clamps["qgpr.qla"].count,
            "variance_clamps": self.clamps["qgpr.estimator"].count,
            "error": error or err.getvalue().strip() or None,
        }
        job["report_bytes"] = out.bytes + (
            self.inputs.report_path.stat().st_size if self.inputs.report_path.exists() else 0
        )
        job.update(self._check(code))
        return job

    def _check(self, code) -> dict:
        """Gate every estimate against the oracle and the report against the estimates."""
        expected = self.workload.estimates_per_job
        attempted = max(expected, len(self.records))
        errors = {"predict_mean_quantum": [0.0], "predict_variance_quantum": [0.0]}
        if code != 0:
            return {"attempted": attempted, "failed": attempted, "errors": errors,
                    "problem": f"cli.main ended with {code}"}
        failed = attempted - len(self.records)
        sampled = self.workload.mode == "sampled"
        for kind, point, clock, result, _latency in self.records:
            if result is None:
                failed += 1
                continue
            mean, variance = self.reference[point]
            truth = mean if kind == "predict_mean_quantum" else variance
            error = abs(result.estimate - truth)
            errors[kind].append(error)
            limit = SAMPLED_Z * result.std_error if sampled else EXACT_TOLERANCE_BINS / 2**clock
            if not error <= limit:
                failed += 1
        try:
            problem = self._check_report()
        except (KeyError, ValueError, IndexError, TypeError) as exc:
            problem = f"unreadable or incomplete report: {exc!r}"
        if problem:
            failed = attempted
        return {"attempted": attempted, "failed": failed, "errors": errors, "problem": problem}

    def _check_report(self) -> str | None:
        path = self.inputs.report_path
        if not path.exists():
            return "the CLI wrote no report"
        estimates = {}
        for kind, point, clock, result, _ in self.records:
            if result is not None:
                estimates[(kind, point, clock)] = result.estimate
        if self.workload.command == "predict":
            results = json.loads(path.read_text())["results"]
            if len(results) != self.workload.n_test:
                return f"report has {len(results)} results, expected {self.workload.n_test}"
            clock = self.workload.clock_qubits
            for rec in results:
                point = rec["test_point"][0]
                mean, variance = self.reference[point]
                if not (math_close(rec["classical"]["mean"], mean)
                        and math_close(rec["classical"]["variance"], variance)):
                    return f"classical prediction at {point!r} disagrees with the oracle"
                for kind, key in (("predict_mean_quantum", "mean"),
                                  ("predict_variance_quantum", "variance")):
                    if rec["quantum"][key]["estimate"] != estimates.get((kind, point, clock)):
                        return f"reported quantum {key} at {point!r} is not the estimate made"
            return None
        rows = [line.split(",") for line in path.read_text().splitlines()
                if line and not line.startswith(("#", "axis_value"))]
        if [int(r[0]) for r in rows] != sorted(self.workload.sweep_clock):
            return f"sweep report rows {[r[0] for r in rows]} do not match the clock values"
        for row in rows:
            clock = int(row[0])
            for column, kind, slot in ((1, "predict_mean_quantum", 0),
                                       (2, "predict_variance_quantum", 1)):
                errs = [abs(estimates[(kind, float(p), clock)] - self.reference[float(p)][slot])
                        for p in self.inputs.x_test]
                if not math_close(float(row[column]), sum(errs) / len(errs)):
                    return f"sweep error column {column} at clock {clock} disagrees"
        return None


def math_close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * (1.0 + abs(b))


def import_seconds() -> list[float]:
    """Time ``import qgpr`` in fresh interpreters (the user's start-up cost)."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def environment() -> dict:
    import numpy as np

    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "unknown",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or "unknown",
        "caches": {},
        "amp_bytes": "computed as 16 B x 2^m per full-state copy or pass, not measured",
        "bandwidth": "not claimed: states are at most 4 MiB and stay in L3",
    }
    with contextlib.suppress(KeyError, TypeError):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas['name']} {blas['version']}"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu"] = line.split(":", 1)[1].strip()
                break
    with contextlib.suppress(OSError):
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                env["caches"][f"L{(index / 'level').read_text().strip()}"] = (
                    (index / "size").read_text().strip()
                )
    return env


def quartiles(values) -> tuple[float, float]:
    """(Q1, Q3) of the values; both are the value itself when there is one."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def end_to_end(jobs: list[dict], imports: list[float]) -> dict:
    """Timings as upper quartiles (rates as lower quartiles) over the run.

    A shared host may run this code at two speeds, about 1.6x apart, and
    switch between them every few seconds to minutes, so how much of a run
    falls in the faster one varies from run to run. A median or mean mixes
    the two; the upper quartile reads the slower, more common speed (see
    "Steadiness" in README.md). A slower program moves it as much as it
    moves the median.
    """
    # a job that crashed before its first estimate leaves no latencies; the
    # run is then reported as failed, with zeros in place of the timings
    latencies = [lat for job in jobs for lat in job["latencies"]]
    if len(latencies) < 2:
        latencies = [0.0, 0.0]
    rates = [len(job["latencies"]) / job["estimate_s"] if job["estimate_s"] > 0 else 0.0
             for job in jobs]
    twentieths = statistics.quantiles(latencies, n=20, method="inclusive")
    return {
        "job_s": quartiles(job["wall_s"] for job in jobs)[1],
        "setup_s": quartiles(imports)[1] + quartiles(job["setup_s"] for job in jobs)[1],
        "estimates_per_s": quartiles(rates)[0],
        "estimate_p75_ms": 1e3 * twentieths[14],
        "estimate_p90_ms": 1e3 * twentieths[17],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def oracle_errors(jobs: list[dict]) -> dict:
    """Largest |quantum - oracle| over the run, for the mean and the variance."""
    return {
        f"estimator.oracle_error_{key}": (max(max(j["errors"][kind]) for j in jobs), "1")
        for key, kind in (("mean", "predict_mean_quantum"), ("variance", "predict_variance_quantum"))
    }


def per_layer(tracer, jobs: list[dict]) -> dict:
    from spans import SPAN_NAMES

    traced = [job for job in jobs if job["traced"]]
    untraced = [job for job in jobs if not job["traced"]]
    n = len(traced)
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (tracer.calls[name] / n, "count")
        metrics[f"{name}.self_s"] = (tracer.self_s[name] / n, "s")
    success = [s for job in traced for s in job["success"]]
    metrics.update({
        "statevector.amp_bytes": (tracer.amp_bytes / n, "B"),
        "cli.report_bytes": (statistics.median(job["report_bytes"] for job in traced), "B"),
        "estimator.success_fraction": (sum(success) / max(1, len(success)), "ratio"),
        "qla.inversion_clamp_warnings": (sum(j["inversion_clamps"] for j in traced) / n, "count"),
        "estimator.variance_clamp_warnings": (
            sum(j["variance_clamps"] for j in traced) / n, "count"),
        "trace.overhead_s": (statistics.median(job["wall_s"] for job in traced)
                             - statistics.median(job["wall_s"] for job in untraced), "s"),
    })
    return metrics


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    import qgpr  # after the BLAS settings; also leaves .pyc files for the import probes

    if not Path(qgpr.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: qgpr was imported from {qgpr.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from spans import Tracer
    from workloads import oracle, write_inputs

    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = write_inputs(workload, args.seed, workdir)
        harness = Harness(workload, inputs, oracle(workload, inputs))
        imports = [] if args.trace else import_seconds()
        jobs, tracer = [], Tracer()
        deadline = perf_counter() + args.seconds
        # a traced run alternates untraced and traced jobs, so the tracing
        # overhead is measured in the same run, warm and cold jobs alike;
        # another job starts only if the run then ends nearer to --seconds
        # than without it, so a run lasts --seconds give or take half a job
        while len(jobs) < 1 + args.trace or (
            perf_counter() + statistics.median(job["wall_s"] for job in jobs) / 2 < deadline
        ):
            traced = bool(args.trace) and len(jobs) % 2 == 1
            if traced:
                tracer.job = len(jobs)
                tracer.install()
            job = harness.run_job()
            tracer.uninstall()
            jobs.append(job | {"traced": traced})
        if args.trace:
            tracer.write(OUT / f"trace-{workload.name}.jsonl",
                         {"workload": workload.name, "seed": args.seed, "environment": env})
            metrics, unbounded = per_layer(tracer, jobs) | oracle_errors(jobs), {}
        else:
            metrics = {k: (v, END_TO_END[k]) for k, v in end_to_end(jobs, imports).items()}
            # accuracy varies several-fold between drawn data sets, and the
            # median latency falls between the host's two speeds: printed, not bounded
            unbounded = oracle_errors(jobs) | {"estimate_p50_ms": (
                1e3 * statistics.median([lat for job in jobs for lat in job["latencies"]] or [0.0]),
                "ms")}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(job["attempted"] for job in jobs)
    failed = sum(job["failed"] for job in jobs)
    problems = sorted({job["problem"] for job in jobs if job["problem"]})
    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {args.seed}, {len(jobs)} jobs, {attempted} estimates, {failed} failed "
          f"(failed_fraction {failed / attempted:.6g})")
    for problem in problems:
        print(f"check failed: {problem}")
    for error in sorted({job["error"] for job in jobs if job["error"]}):
        print(f"job output on stderr: {error}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>16.6g} {unit}")
    for name, (value, unit) in unbounded.items():
        print(f"  {name:<48} {value:>16.6g} {unit} (not bounded, shown for reference)")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    if not (SRC / "qgpr" / "cli.py").is_file():
        print(f"perfbench: no qgpr sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        sys.exit(2)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    sys.exit(main())
