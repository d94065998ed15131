"""Spans around the public functions of each qgpr module, recorded from outside.

Several qgpr modules import functions by name (``from .kernels import
eval_kernel``), so a function is wrapped on every module attribute its
callers look up, not only where it is defined. Spans stay in memory as
``[name, start, end, parent, job]`` rows and are written out once, when the
run ends. A span's self time is its duration minus that of its child spans.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# (module the caller looks the name up in, attribute, span name, full-state
# passes). A pass is one copy of, or one sweep over, the amplitude array; it
# is counted as 16 B x 2^m whatever the control qubits skip, so
# statevector.amp_bytes is computed, not measured.
WRAPPED = (
    ("qgpr.cli", "main", "cli.main", 0),
    ("qgpr.cli", "load_config", "cli.load_config", 0),
    ("qgpr.cli", "ingest_csv", "cli.ingest_csv", 0),
    ("qgpr.cli", "cmd_predict", "cli.cmd_predict", 0),
    ("qgpr.cli", "cmd_sweep", "cli.cmd_sweep", 0),
    ("qgpr.cli", "build_model", "kernels.build_model", 0),
    ("qgpr.cli", "diagnostics", "kernels.diagnostics", 0),
    ("qgpr.cli", "predict_exact", "classical.predict_exact", 0),
    ("qgpr.cli", "predict_mean_quantum", "estimator.predict_mean_quantum", 0),
    ("qgpr.cli", "predict_variance_quantum", "estimator.predict_variance_quantum", 0),
    ("qgpr.kernels", "eval_kernel", "kernels.eval_kernel", 0),
    ("qgpr.classical", "eval_kernel", "kernels.eval_kernel", 0),
    ("qgpr.classical", "build_cross", "kernels.build_cross", 0),
    ("qgpr.classical", "cholesky", "classical.cholesky", 0),
    ("qgpr.estimator", "eval_kernel", "kernels.eval_kernel", 0),
    ("qgpr.estimator", "build_cross", "kernels.build_cross", 0),
    ("qgpr.estimator", "estimate_bilinear", "estimator.estimate_bilinear", 0),
    ("qgpr.estimator", "build_interference_state", "estimator.build_interference_state", 0),
    ("qgpr.estimator", "make_encoding", "qla.make_encoding", 0),
    ("qgpr.estimator", "state_prep_unitary", "qla.state_prep_unitary", 0),
    ("qgpr.estimator", "phase_estimate", "qla.phase_estimate", 0),
    ("qgpr.estimator", "eigenvalue_inversion", "qla.eigenvalue_inversion", 1),
    ("qgpr.qla", "validate_config", "qla.validate_config", 0),
    ("qgpr.qla", "inversion_angles", "qla.inversion_angles", 0),
    ("qgpr.statevector", "apply_gate", "statevector.apply_gate", 1),
    ("qgpr.statevector", "qft", "statevector.qft", 0),
    ("qgpr.statevector", "qft_matrix", "statevector.qft_matrix", 0),
    ("qgpr.statevector", "controlled_evolution", "statevector.controlled_evolution", 1),
    ("qgpr.statevector", "expectation", "statevector.expectation", 2),
    ("qgpr.statevector", "sample_observable", "statevector.sample_observable", 2),
    ("qgpr._accel", "apply_matrix", "accel.apply_matrix", 1),
    ("qgpr._accel", "phase_mul", "accel.phase_mul", 1),
    ("qgpr._accel", "pair_rot", "accel.pair_rot", 1),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in WRAPPED))


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.job = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.amp_bytes = 0
        self._open: list[int] = []
        self._child_s: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, passes: int):
        spans, opened, child_s = self.spans, self._open, self._child_s

        def traced(*args, **kwargs):
            if passes:
                amps = getattr(args[0], "amps", args[0])
                self.amp_bytes += passes * amps.nbytes
            index = len(spans)
            row = [name, 0.0, 0.0, opened[-1] if opened else -1, self.job]
            spans.append(row)
            opened.append(index)
            child_s.append(0.0)
            row[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                row[2] = end
                duration = end - row[1]
                opened.pop()
                self.self_s[name] += duration - child_s.pop()
                self.calls[name] += 1
                if child_s:
                    child_s[-1] += duration

        return traced

    def install(self) -> None:
        for module_name, attr, name, passes in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, passes))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path: Path, header: dict) -> None:
        """One JSON header line, then one ``[name, start, end, parent, job]`` row per span."""
        with open(path, "w") as out:
            out.write(json.dumps(header) + "\n")
            for row in self.spans:
                out.write(json.dumps(row) + "\n")
