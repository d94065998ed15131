import importlib.util
import json
import math
import re
import sys
import time
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qgpr import cli, kernels, qla
from qgpr import statevector as sv
from qgpr.cli import (
    EXIT_INPUT,
    EXIT_NUMERIC,
    EXIT_OK,
    cmd_diagnose,
    cmd_predict,
    cmd_sweep,
    ingest_csv,
    jitter_recommendation,
    load_config,
    main,
)
from qgpr.estimator import gpr_config, predict_mean_quantum, shots_for_precision
from qgpr.exceptions import InputError, ParseError
from qgpr.statevector import MAX_SHOTS
from qgpr.kernels import (
    KernelSpec,
    SystemDiagnostics,
    build_cross,
    build_model,
    eval_kernel,
)
from qgpr.qla import make_encoding


_DROP = object()  # a config edit that deletes its key


def write_config(tmp_path, dataset, **overrides):
    cfg = {
        "dataset": str(dataset),
        "kernel": {"family": "squared-exponential", "signal_variance": 1.0, "lengthscale": 1.0},
        "noise_variance": 1.0,
        "test_points": [[0.0]],
        "clock_qubits": 8,
        "shots": 2000,
        "seed": 7,
        "mode": "exact",
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture
def canonical(tmp_path):
    """The n=1 instance with classical mean 1.0 and variance 0.5."""
    dataset = tmp_path / "train.csv"
    dataset.write_text("0,2\n")
    return write_config(tmp_path, dataset)


class TestIngestCsv:
    def test_basic(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0,2\n1,1\n")
        ts = ingest_csv(p)
        assert ts.n == 2 and ts.d == 1
        np.testing.assert_array_equal(ts.y, [2.0, 1.0])

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("")
        with pytest.raises(ParseError):
            ingest_csv(p)

    def test_ragged_rows_report_row_number(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0,1,2\n0,1\n")
        with pytest.raises(ParseError) as err:
            ingest_csv(p)
        assert err.value.row == 2

    def test_non_numeric_field(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0,2\nx,1\n")
        with pytest.raises(ParseError) as err:
            ingest_csv(p)
        assert err.value.row == 2

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e309"])
    def test_non_finite_field_reports_row_number(self, tmp_path, cell):
        p = tmp_path / "d.csv"
        p.write_text(f"0,2\n1,{cell}\n")
        with pytest.raises(ParseError, match="non-finite") as err:
            ingest_csv(p)
        assert err.value.row == 2

    def test_header_flag(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y\n0,2\n")
        ts = ingest_csv(p, has_header=True)
        assert ts.n == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            ingest_csv(tmp_path / "absent.csv")


class TestLoadConfig:
    def test_flag_overrides(self, canonical):
        cfg = load_config(canonical, {"seed": 99, "mode": None})
        assert cfg.seed == 99
        assert cfg.mode == "exact"  # None override keeps the file value

    def test_unknown_fields_rejected(self, tmp_path, canonical):
        raw = json.loads(canonical.read_text())
        raw["surprise"] = 1
        canonical.write_text(json.dumps(raw))
        with pytest.raises(InputError):
            load_config(canonical)

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{nope")
        with pytest.raises(InputError):
            load_config(p)

    def test_missing_required(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"kernel": {"family": "squared-exponential"}}))
        with pytest.raises(InputError):
            load_config(p)

    @pytest.mark.parametrize(
        "path, value, name",
        [
            pytest.param(("surprise",), 1, "surprise", id="unknown-key"),
            pytest.param(("kernel", "length_scale"), 2.0, "length_scale", id="unknown-kernel-key"),
            pytest.param(("sweep",), {"axis": "clock_qubits", "values": [4], "step": 1}, "step",
                         id="unknown-sweep-key"),
            *(pytest.param((key,), _DROP, key, id=f"no-{key}")
              for key in ("dataset", "kernel", "noise_variance", "test_points")),
            pytest.param(("kernel", "family"), _DROP, "family", id="no-kernel-family"),
            pytest.param(("kernel",), "squared-exponential", "kernel", id="kernel-not-an-object"),
            pytest.param(("sweep",), "clock_qubits", "sweep", id="sweep-not-an-object"),
            *(pytest.param(("kernel", key), "1.0", f"kernel.{key}", id=f"string-{key}")
              for key in ("signal_variance", "lengthscale", "cutoff_radius")),
        ],
    )
    def test_malformed_config_is_input_error_naming_the_field(self, canonical, path, value,
                                                               name):
        raw = json.loads(canonical.read_text())
        *parents, key = path
        node = raw
        for parent in parents:
            node = node[parent]
        if value is _DROP:
            del node[key]
        else:
            node[key] = value
        canonical.write_text(json.dumps(raw))
        with pytest.raises(InputError, match=re.escape(name)):
            load_config(canonical)

    def test_example_and_benchmark_configs(self, tmp_path, monkeypatch):
        """The docs/examples configs and the two benchmark workloads' configs (seed 1)
        load to these values, numbers as floats."""
        spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
        spec.loader.exec_module(workloads)
        se = {"family": "squared-exponential", "signal_variance": 1.0, "lengthscale": 1.0,
              "cutoff_radius": None}
        example = {"dataset": "docs/examples/train.csv", "kernel": se, "noise_variance": 0.5,
                   "test_points": [[0.25], [1.0], [2.4]], "clock_qubits": 8, "shots": 10_000,
                   "seed": 7, "mode": "exact", "out": None, "has_header": False,
                   "kappa_bound": 10_000.0, "delta": None, "sweep_axis": None,
                   "sweep_values": []}
        bench = dict(example, dataset=str(tmp_path / "train.csv"), seed=1)
        expected = {
            "predict.json": example,
            "sweep.json": dict(example, sweep_axis="clock_qubits", sweep_values=[4, 5, 6, 7, 8]),
            "sweep-clock": dict(bench, clock_qubits=6, sweep_axis="clock_qubits",
                                sweep_values=[6, 8, 10]),
            "predict-sparse-sampled": dict(
                bench, kernel=dict(se, family="compact-support", cutoff_radius=0.5),
                shots=20_000, mode="sampled"),
        }
        for name, want in expected.items():
            if name in workloads.WORKLOADS:
                inputs = workloads.write_inputs(workloads.WORKLOADS[name], 1, tmp_path)
                path = inputs.config_path
                want = dict(want, test_points=[[x] for x in inputs.x_test.tolist()])
            else:
                path = EXAMPLES / name
            record = asdict(load_config(str(path)))
            assert json.dumps(record) == json.dumps(want), name  # 1 and 1.0 differ here


class TestCmdPredict:
    def test_canonical_values(self, canonical, tmp_path, capsys):
        cfg = load_config(canonical, {"out": str(tmp_path / "report.json")})
        report = cmd_predict(cfg)
        rec = report["results"][0]
        assert rec["classical"]["mean"] == pytest.approx(1.0, abs=1e-12)
        assert rec["classical"]["variance"] == pytest.approx(0.5, abs=1e-12)
        assert rec["errors"]["mean"]["absolute"] <= 0.05 * 1.0 + 0.01
        assert rec["errors"]["variance"]["absolute"] <= 0.05 * 0.5 + 0.01
        assert capsys.readouterr().out  # summary table printed

    def test_one_cholesky_factorization_per_model(self, tmp_path, monkeypatch):
        dataset = tmp_path / "d.csv"
        dataset.write_text("0,2\n0.7,1\n1.5,-1\n")
        cfgp = write_config(tmp_path, dataset, test_points=[[0.1], [0.5], [1.2]], clock_qubits=4)
        calls = []
        original = np.linalg.cholesky

        def counted(a):
            calls.append(a.shape)
            return original(a)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        report = cmd_predict(load_config(cfgp))
        assert len(report["results"]) == 3
        assert calls == [(3, 3)]

    def test_exact_mode_has_zero_std_error(self, canonical):
        report = cmd_predict(load_config(canonical))
        rec = report["results"][0]
        assert rec["quantum"]["mean"]["std_error"] == 0.0
        assert rec["quantum"]["variance"]["std_error"] == 0.0

    def test_byte_identical_reports(self, canonical, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        cfg_overrides = {"mode": "sampled", "shots": 500}
        cmd_predict(load_config(canonical, {**cfg_overrides, "out": str(out1)}))
        cmd_predict(load_config(canonical, {**cfg_overrides, "out": str(out2)}))
        assert out1.read_bytes() == out2.read_bytes()

    def test_gpr_weights_solved_once_per_model(self, tmp_path, monkeypatch):
        dataset = tmp_path / "d.csv"
        dataset.write_text("0,2\n0.7,1\n1.5,-1\n")
        cfgp = write_config(tmp_path, dataset, test_points=[[0.1], [0.5], [1.2]], clock_qubits=4)
        calls = []
        original = np.linalg.solve

        def counted(a, b):
            calls.append(np.shape(b))
            return original(a, b)

        monkeypatch.setattr(np.linalg, "solve", counted)
        report = cmd_predict(load_config(cfgp))
        assert len(report["results"]) == 3
        # two for K^-1 y once per model, then one for w per test point
        assert len(calls) == 2 + 3

    def test_solver_response_built_once_per_config(self, tmp_path, monkeypatch):
        dataset = tmp_path / "d.csv"
        dataset.write_text("0,2\n0.7,1\n1.3,0.5\n")
        cfgp = write_config(tmp_path, dataset, test_points=[[0.1], [0.5], [1.0]], clock_qubits=5)
        responses = []
        original = qla._solver_response

        def recorded(*args):
            responses.append(original(*args))
            return responses[-1]

        monkeypatch.setattr(qla, "_solver_response", recorded)
        original.cache_clear()
        report = cmd_predict(load_config(cfgp))
        assert len(report["results"]) == 3
        assert len(responses) == 6  # a mean and a variance estimate per test point
        assert all(response is responses[0] for response in responses)
        info = original.cache_info()
        assert (info.misses, info.hits) == (1, 5)
        for table in responses[0]:
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 0.0

    def test_system_is_diagonalized_once(self, tmp_path, monkeypatch):
        # 3 training points pad to a 4x4 system; 3 test points make 6 estimates
        dataset = tmp_path / "d.csv"
        dataset.write_text("0,2\n0.7,1\n1.3,0.5\n")
        cfgp = write_config(tmp_path, dataset, test_points=[[0.1], [0.5], [1.0]], clock_qubits=5)
        calls = []
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)

            def counted(a, *args, _original=original, _name=name, **kwargs):
                if np.shape(a) == (4, 4):
                    calls.append(_name)
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        sv._eigh_of.cache_clear()
        report = cmd_predict(load_config(cfgp))
        assert len(report["results"]) == 3
        assert calls == ["eigh"]

    def test_report_embeds_resolved_config(self, canonical):
        report = cmd_predict(load_config(canonical, {"seed": 5}))
        assert report["config"]["seed"] == 5
        assert report["config"]["kernel"]["family"] == "squared-exponential"


class TestCmdDiagnose:
    def test_well_conditioned_no_jitter(self, tmp_path):
        # two far-apart compact-support points: system is (1 + sigma^2) I
        dataset = tmp_path / "d.csv"
        dataset.write_text("0,1\n100,1\n")
        cfgp = write_config(
            tmp_path, dataset,
            kernel={"family": "compact-support", "signal_variance": 1.0,
                    "lengthscale": 1.0, "cutoff_radius": 1.0},
        )
        report = cmd_diagnose(load_config(cfgp))
        assert report["kappa"] == pytest.approx(1.0)
        assert report["jitter_recommendation"] == 0.0
        assert report["recommended_shots"] is None

    def test_jitter_formula(self):
        # closed form: kappa(delta) = (max + delta) / (min + delta) <= bound
        diag = SystemDiagnostics(kappa=101.0, row_sparsity=2, min_eig=0.02)
        bound = 10.0
        delta = jitter_recommendation(diag, bound)
        max_eig = 101.0 * 0.02
        assert (max_eig + delta) / (0.02 + delta) == pytest.approx(bound)

    def test_shot_recommendation_matches_pilot_oracle(self, tmp_path):
        dataset = tmp_path / "d.csv"
        dataset.write_text("0,2\n0.5,1\n")
        cfgp = write_config(tmp_path, dataset, delta=0.05, clock_qubits=5)
        cfg = load_config(cfgp)
        report = cmd_diagnose(cfg)
        model = build_model(ingest_csv(dataset), cfg.kernel, cfg.noise_variance)
        pilot = predict_mean_quantum(
            model, cfg.test_points[0], gpr_config(model, 5),
            shots=400, seed=cfg.seed,
        )
        assert report["recommended_shots"] == shots_for_precision(0.05, pilot)


class TestCmdSweep:
    def _sweep_config(self, tmp_path, **kw):
        dataset = tmp_path / "d.csv"
        dataset.write_text("0,2\n0.7,1\n")
        return write_config(tmp_path, dataset, **kw)

    def test_single_point_single_row(self, tmp_path):
        cfgp = self._sweep_config(tmp_path, sweep={"axis": "clock_qubits", "values": [5]})
        rows = cmd_sweep(load_config(cfgp))
        assert len(rows) == 1 and rows[0]["axis_value"] == 5

    def test_clock_sweep_error_trend(self, tmp_path):
        cfgp = self._sweep_config(tmp_path, sweep={"axis": "clock_qubits", "values": [4, 8]})
        rows = cmd_sweep(load_config(cfgp))
        assert rows[0]["axis_value"] == 4 and rows[1]["axis_value"] == 8
        assert rows[1]["mean_error"] <= rows[0]["mean_error"] + 1e-12

    def test_deterministic_csv(self, tmp_path):
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        cfgp = self._sweep_config(
            tmp_path, mode="sampled", sweep={"axis": "shots", "values": [100, 1000]}
        )
        cmd_sweep(load_config(cfgp, {"out": str(out1)}))
        cmd_sweep(load_config(cfgp, {"out": str(out2)}))
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()[1]
        assert header == "axis_value,mean_error,variance_error,success_fraction"

    def test_clamp_warning_once_per_clock_width(self, tmp_path, caplog):
        # lambda_max ~ 2.78 and c = 1 clamp the low bins at clock 4 and 5
        cfgp = self._sweep_config(tmp_path, sweep={"axis": "clock_qubits", "values": [4, 5]})
        with caplog.at_level("WARNING", logger="qgpr.qla"):
            cmd_sweep(load_config(cfgp))
        assert len(caplog.records) == 2
        assert all("clamped" in rec.getMessage() for rec in caplog.records)

    def test_clock_value_above_the_qubit_cap_is_one_line_input_error(self, tmp_path, capsys):
        # rejected before anything of size 2**40 is allocated
        cfgp = self._sweep_config(tmp_path, sweep={"axis": "clock_qubits", "values": [40]})
        assert main(["sweep", "--config", str(cfgp)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "axis, values",
        [("clock_qubits", [4, 6, 30]), ("clock_qubits", [4, 0]), ("shots", [100, MAX_SHOTS + 1])],
        ids=["clock-past-the-cap", "clock-zero", "shots-past-the-cap"],
    )
    def test_every_sweep_value_is_checked_before_any_estimate(
        self, tmp_path, monkeypatch, capsys, axis, values
    ):
        def no_estimate(*args, **kwargs):
            raise AssertionError("an estimate ran before every sweep value was checked")

        monkeypatch.setattr(cli, "predict_mean_quantum", no_estimate)
        example = Path(__file__).resolve().parents[1] / "docs" / "examples" / "sweep.json"
        raw = json.loads(example.read_text())
        raw.update(dataset=str(example.parent / "train.csv"), sweep={"axis": axis, "values": values})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        assert main(["sweep", "--config", str(path)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"input error: sweep value {values[-1]}: ") and err.count("\n") == 1

    def test_classical_prediction_once_per_test_point(self, tmp_path, monkeypatch):
        # the classical oracle depends on neither the clock width nor the shots
        cfgp = self._sweep_config(
            tmp_path, test_points=[[0.1], [0.5]], sweep={"axis": "clock_qubits", "values": [3, 4, 5]}
        )
        points = []
        original = cli.predict_exact

        def counted(model, point):
            points.append(point)
            return original(model, point)

        monkeypatch.setattr(cli, "predict_exact", counted)
        rows = cmd_sweep(load_config(cfgp))
        assert len(rows) == 3
        assert points == [[0.1], [0.5]]

    def test_one_shots_value_reproduces_predict(self, tmp_path):
        # sweep value j = 0 seeds point i with seed + i, as predict does
        example = Path(__file__).resolve().parents[1] / "docs" / "examples" / "predict.json"
        raw = json.loads(example.read_text())
        raw.update(dataset=str(example.parent / "train.csv"), mode="sampled", shots=500)
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**raw, "sweep": {"axis": "shots", "values": [500]}}))
        results = cmd_predict(load_config(path))["results"]
        (row,) = cmd_sweep(load_config(path))
        assert row["mean_error"] == np.mean([r["errors"]["mean"]["absolute"] for r in results])
        assert row["variance_error"] == np.mean(
            [r["errors"]["variance"]["absolute"] for r in results]
        )
        assert row["success_fraction"] == np.mean(
            [r["quantum"]["mean"]["success_fraction"] for r in results]
        )

    def test_missing_sweep_section(self, tmp_path):
        cfgp = self._sweep_config(tmp_path)
        with pytest.raises(InputError):
            cmd_sweep(load_config(cfgp))


class TestMainExitCodes:
    def test_success(self, canonical, tmp_path):
        assert main(["predict", "--config", str(canonical)]) == EXIT_OK

    def test_malformed_csv_is_input_error(self, tmp_path):
        dataset = tmp_path / "bad.csv"
        dataset.write_text("0,1\nnot,numeric,here\n")
        cfgp = write_config(tmp_path, dataset)
        assert main(["predict", "--config", str(cfgp)]) == EXIT_INPUT

    def test_non_psd_system_is_numeric_error(self, tmp_path):
        # duplicated points with vanishing noise make the system exactly singular
        dataset = tmp_path / "dup.csv"
        dataset.write_text("0,1\n0,1\n")
        cfgp = write_config(tmp_path, dataset, noise_variance=1e-18)
        assert main(["predict", "--config", str(cfgp)]) == EXIT_NUMERIC
        assert main(["diagnose", "--config", str(cfgp)]) == EXIT_NUMERIC

    def test_non_finite_estimate_is_numeric_error_naming_the_field(self, tmp_path, capsys):
        # two targets of 1.75e308: with little noise the mean between them
        # bumps about 3% above them, past the largest float
        dataset = tmp_path / "train.csv"
        dataset.write_text("0,1.75e308\n0.5,1.75e308\n")
        cfgp = write_config(tmp_path, dataset, noise_variance=1e-3, test_points=[[0.25]])
        out = tmp_path / "r.json"
        assert main(["predict", "--config", str(cfgp), "--out", str(out)]) == EXIT_NUMERIC
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith("numerical error: report.results[")
        assert err[-1].endswith("is inf, not a finite number")
        assert not out.exists()

    def test_overflowing_system_scale_is_numeric_error(self, tmp_path, capsys):
        # k(x, x) = 1e308: the largest absolute row sum of the system overflows
        example = Path(__file__).resolve().parents[1] / "docs" / "examples"
        raw = json.loads((example / "predict.json").read_text())
        raw["dataset"] = str(example / "train.csv")
        raw["kernel"]["signal_variance"] = 1e308
        cfgp = tmp_path / "config.json"
        cfgp.write_text(json.dumps(raw))
        assert main(["predict", "--config", str(cfgp)]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("numerical error: the system's scale overflows")
        assert err.count("\n") == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "kernel",
        [
            {"family": "squared-exponential", "lengthscale": 1e-170},
            {"family": "compact-support", "cutoff_radius": 1e-300},
        ],
        ids=["se-lengthscale-1e-170", "cs-cutoff-1e-300"],
    )
    def test_vanishing_length_scale_decouples_the_points(self, tmp_path, kernel, capsys):
        # (x - x')/l overflows for some pair: k must read 0 there, not raise or warn
        dataset = tmp_path / "d.csv"
        dataset.write_text("0,2\n1,1\n1e10,0.5\n")
        out = tmp_path / "r.json"
        cfgp = write_config(tmp_path, dataset, kernel=kernel, test_points=[[0.0], [0.5]])
        assert main(["predict", "--config", str(cfgp), "--out", str(out)]) == EXIT_OK
        assert "Traceback" not in capsys.readouterr().err
        assert json.loads(out.read_text())["diagnostics"]["row_sparsity"] == 1
        cfg = load_config(cfgp)
        gram = build_model(ingest_csv(dataset), cfg.kernel, cfg.noise_variance).gram
        np.testing.assert_array_equal(gram, np.eye(3))

    @pytest.mark.parametrize(
        "overrides",
        [
            {"shots": "100"},
            {"shots": True},
            {"clock_qubits": 2.5},
            {"seed": None},
            {"test_points": "abc"},
            {"test_points": [[[0.0]]]},
            {"kappa_bound": "x"},
            {"noise_variance": "abc"},
            {"noise_variance": float("nan")},
            {"noise_variance": 10**400},
            {"has_header": "no"},
            {"kernel": {"family": "squared-exponential", "lengthscale": "abc"}},
            {"kernel": {"family": "squared-exponential", "length_scale": 2.0}},
            {"sweep": {"axis": "clock_qubits", "values": [4.5]}},
            {"sweep": {"axis": "clock_qubits", "values": "abc"}},
            {"mode": "sampled", "shots": 10**12},
            {"seed": -1},
            {"clock_qubits": 40},  # over the qubit cap
        ],
    )
    def test_malformed_field_is_one_line_input_error(self, canonical, overrides, capsys):
        # two rows, so a truthy non-bool has_header would leave a usable data set
        (canonical.parent / "train.csv").write_text("0,2\n1,1\n")
        raw = json.loads(canonical.read_text())
        raw.update(overrides)
        canonical.write_text(json.dumps(raw))
        assert main(["predict", "--config", str(canonical)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["predict", "--mode", "sampled", "--seed", "-1"],
            ["predict", "--seed", "-1"],
            ["diagnose", "--delta", "0.01", "--seed", "-3"],
        ],
        ids=["predict-sampled", "predict-exact", "diagnose"],
    )
    def test_negative_seed_flag_is_one_line_input_error(self, canonical, argv, capsys):
        assert main([*argv, "--config", str(canonical)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and err.count("\n") == 1

    # wider than the qubit cap: rejected before 2**width is computed
    @pytest.mark.parametrize("width", ["40", "2000"])
    def test_oversized_clock_flag_is_one_line_input_error(self, canonical, width, capsys):
        assert main(["predict", "--config", str(canonical), "--clock-qubits", width]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("delta", ["0", "-1", "-1e308"])
    @pytest.mark.parametrize("command", ["predict", "sweep", "diagnose"])
    def test_non_positive_delta_is_refused_before_the_data_set_is_read(
        self, tmp_path, monkeypatch, capsys, command, delta
    ):
        def no_data(*args, **kwargs):
            raise AssertionError("the data set was read before delta was checked")

        monkeypatch.setattr(cli, "ingest_csv", no_data)
        raw = json.loads((EXAMPLES / "sweep.json").read_text())
        argv = [command, "--config", str(tmp_path / "config.json")]
        if command == "diagnose":
            argv.append(f"--delta={delta}")
        else:
            raw["delta"] = float(delta)
        (tmp_path / "config.json").write_text(json.dumps(raw))
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err == "input error: delta must be > 0\n"

    def test_missing_config_file(self, tmp_path):
        assert main(["predict", "--config", str(tmp_path / "none.json")]) == EXIT_INPUT

    def test_flag_overrides_reach_report(self, canonical, tmp_path):
        out = tmp_path / "r.json"
        assert main(["predict", "--config", str(canonical), "--seed", "3",
                     "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["config"]["seed"] == 3

    @pytest.mark.parametrize("command", ["predict", "sweep", "diagnose"])
    @pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
    def test_unwritable_out_is_one_line_input_error_before_any_estimate(
        self, canonical, tmp_path, monkeypatch, capsys, command, where
    ):
        def no_estimate(*args, **kwargs):
            raise AssertionError("an estimate ran before the --out check")

        monkeypatch.setattr(cli, "predict_mean_quantum", no_estimate)
        raw = json.loads(canonical.read_text())
        raw["sweep"] = {"axis": "clock_qubits", "values": [4]}
        canonical.write_text(json.dumps(raw))
        out = tmp_path / "missing" / "r.json" if where == "missing-directory" else tmp_path
        argv = [command, "--config", str(canonical), "--out", str(out)]
        assert main(argv + (["--delta", "0.05"] if command == "diagnose" else [])) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"input error: cannot write {out}") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["predict", "sweep", "diagnose"])
    def test_failed_write_is_one_line_input_error(
        self, canonical, tmp_path, monkeypatch, capsys, command
    ):
        def full_disk(self, text):
            raise OSError(28, "No space left on device")

        raw = json.loads(canonical.read_text())
        raw["sweep"] = {"axis": "clock_qubits", "values": [4]}
        canonical.write_text(json.dumps(raw))
        monkeypatch.setattr(cli.Path, "write_text", full_disk)
        out = tmp_path / "r.out"
        assert main([command, "--config", str(canonical), "--out", str(out)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err == f"input error: cannot write {out}: No space left on device\n"

    @pytest.mark.parametrize("command", ["predict", "sweep", "diagnose"])
    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_empty_out_is_one_line_input_error_before_any_estimate(
        self, canonical, monkeypatch, capsys, command, where
    ):
        def no_estimate(*args, **kwargs):
            raise AssertionError("an estimate ran before the out check")

        monkeypatch.setattr(cli, "predict_mean_quantum", no_estimate)
        raw = json.loads(canonical.read_text())
        raw["sweep"] = {"axis": "clock_qubits", "values": [4]}
        raw.update({"out": ""} if where == "config" else {})
        canonical.write_text(json.dumps(raw))
        argv = [command, "--config", str(canonical), *(["--out", ""] if where == "flag" else [])]
        assert main(argv + (["--delta", "0.05"] if command == "diagnose" else [])) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("input error: cannot write ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "sweep",
        [0, [], False, "", {}, {"axis": "shots"}, {"values": [4]}, {"axis": None, "values": [4]},
         {"axis": "bogus", "values": [4]}, {"axis": [], "values": [4]}, {"axis": 3, "values": [4]},
         {"axis": "clock_qubits", "values": []}],
    )
    @pytest.mark.parametrize("command", ["predict", "diagnose"])
    def test_malformed_sweep_is_one_line_input_error_in_every_command(
        self, canonical, capsys, command, sweep
    ):
        raw = json.loads(canonical.read_text())
        raw["sweep"] = sweep
        canonical.write_text(json.dumps(raw))
        assert main([command, "--config", str(canonical)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and "sweep" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["predict"],
            ["predict", "--config", "{config}", "--bogus"],
            ["predict", "--config", "{config}", "--seed", "abc"],
            ["predict", "--config", "{config}", "--clock-qubits", "1.5"],
            ["predict", "--config", "{config}", "--mode", "fast"],
            ["diagnose", "--config", "{config}", "--delta", "-1e308"],
        ],
        ids=["no-command", "no-config", "unknown-flag", "seed-abc", "clock-1.5", "mode-fast",
             "delta-exponent-form"],
    )
    def test_malformed_flag_is_one_line_input_error(self, canonical, capsys, argv):
        assert main([arg.format(config=canonical) for arg in argv]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and err.count("\n") == 1


EXAMPLES = Path(__file__).resolve().parents[1] / "docs" / "examples"
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
# each config field and each CSV cell is replaced in turn by each of these
HOSTILE = (0, -1, 1e308, -1e308, 1e-320, 2**70, "a string", [], None, True)


def _hostile_base():
    """The example sweep config with every field given, and delta set so that
    diagnose runs its pilot."""
    base = json.loads((EXAMPLES / "sweep.json").read_text())
    base.update(dataset=str(EXAMPLES / "train.csv"), delta=0.05, has_header=False,
                kappa_bound=1e4, out="report")
    base["sweep"]["values"] = [4, 5]
    return base


def _hostile_configs():
    """(case name, config) per hostile value in each field of ``_hostile_base()``."""
    base = _hostile_base()
    paths = [(k,) for k in base] + [("kernel", k) for k in
                                    ("family", "signal_variance", "lengthscale", "cutoff_radius")]
    paths += [("sweep", "axis"), ("sweep", "values")]
    for path in paths:
        for value in HOSTILE:
            raw = json.loads(json.dumps(base))
            *parents, key = path
            node = raw
            for parent in parents:
                node = node[parent]
            node[key] = value
            yield f"{'.'.join(path)}={value!r}", raw


def _hostile_datasets():
    """(case name, CSV text) per hostile cell value in each cell of the example data set."""
    rows = [line.split(",") for line in (EXAMPLES / "train.csv").read_text().splitlines()]
    for i, row in enumerate(rows):
        for j in range(len(row)):
            for value in (*(v for v in HOSTILE if isinstance(v, (int, float))), "a string",
                          "nan", "inf"):
                cells = [list(r) for r in rows]
                cells[i][j] = str(value)
                yield f"cell[{i}][{j}]={value!r}", "\n".join(map(",".join, cells)) + "\n"


def _no_constant(name):
    raise ValueError(f"{name} in a report")


def _example_config(tmp_path, rows=None, **overrides):
    """docs/examples/predict.json with the data set's ``rows`` (text lines) swapped
    in when given and ``overrides`` applied; returns the config path."""
    raw = json.loads((EXAMPLES / "predict.json").read_text())
    raw.update(dataset=str(EXAMPLES / "train.csv" if rows is None else tmp_path / "train.csv"),
               **overrides)
    if rows is not None:
        (tmp_path / "train.csv").write_text("\n".join(rows) + "\n")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def _with_target(row: int, target: str) -> list[str]:
    """The example data set's rows with the target of one row replaced."""
    rows = (EXAMPLES / "train.csv").read_text().splitlines()
    rows[row] = rows[row].split(",")[0] + "," + target
    return rows


class TestTargetNearTheFloatMaximum:
    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_estimates_are_rescaled_without_overflow(self, tmp_path, mode):
        # a target of 1e308 makes c_v = 1e-308, so the combined factor
        # sqrt(s_u s_v) / (c c_u c_v) overflows although every estimate is finite
        cfgp = _example_config(tmp_path, _with_target(2, "1e308"), mode=mode)
        out = tmp_path / "r.json"
        assert main(["predict", "--config", str(cfgp), "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text(), parse_constant=_no_constant)
        cfg = load_config(cfgp)
        model = build_model(ingest_csv(cfg.dataset), cfg.kernel, cfg.noise_variance)
        y = make_encoding(model.training.y)
        for rec in report["results"]:
            point = rec["test_point"]
            u = make_encoding(build_cross(model, point))
            for key, v in (("mean", y), ("variance", u)):
                q = rec["quantum"][key]
                form = float(Fraction(q["raw_mean"]) * Fraction(math.sqrt(u.s_v * v.s_v))
                             / (Fraction(cfg.noise_variance) * Fraction(u.c_v) * Fraction(v.c_v)))
                if key == "mean":
                    assert q["estimate"] == pytest.approx(form, rel=1e-12)
                elif q["estimate"] > 0.0:  # not clamped
                    k_ss = eval_kernel(model.kernel, point, point)
                    assert k_ss - q["estimate"] == pytest.approx(form, rel=1e-12)


class TestShotRecommendationNotFinite:
    """diagnose --delta exits 3 with one line when the shot count it would
    recommend is not a finite number."""

    @pytest.mark.parametrize(
        "rows, overrides, delta",
        [
            (None, {}, "1e-170"),  # delta^2 underflows to 0
            (None, {"noise_variance": 1e-320}, "0.05"),  # c = 1e-320: the count overflows
            (_with_target(2, "-1e308"), {}, "0.05"),  # the pilot's variance is about 6e613
        ],
        ids=["delta-squared-underflows", "noise-variance-1e-320", "target-minus-1e308"],
    )
    def test_is_one_line_numeric_error(self, tmp_path, capsys, rows, overrides, delta):
        cfgp = _example_config(tmp_path, rows, **overrides)
        assert main(["diagnose", "--config", str(cfgp), "--delta", delta]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith(f"numerical error: delta = {float(delta):g} at the pilot's")
        assert err.count("\n") == 1


class TestLimitsBeforeTheModel:
    """A run past the qubit or the shot cap is refused once the data set is
    read, before the model is built."""

    @staticmethod
    def nine_rows(tmp_path, **overrides):
        # 9 rows at clock 16: A1 B4 C1 D1 E16 is 23 qubits, one past the cap
        dataset = tmp_path / "d.csv"
        dataset.write_text("".join(f"{i / 4},{math.sin(i)}\n" for i in range(9)))
        return write_config(tmp_path, dataset, **{"clock_qubits": 16, **overrides})

    @pytest.mark.parametrize(
        "argv, overrides",
        [
            (["predict"], {}),
            (["sweep"], {"sweep": {"axis": "shots", "values": [100]}}),
            (["diagnose", "--delta", "0.05"], {}),
            (["predict"], {"clock_qubits": 8, "mode": "sampled", "shots": MAX_SHOTS + 1}),
        ],
        ids=["predict", "sweep", "diagnose-delta", "sampled-predict-past-the-shot-cap"],
    )
    def test_refused_before_the_model_is_built(self, tmp_path, monkeypatch, capsys, argv,
                                               overrides):
        def no_model(*args, **kwargs):
            raise AssertionError("the model was built before the limits were checked")

        monkeypatch.setattr(cli, "build_model", no_model)
        cfgp = self.nine_rows(tmp_path, **overrides)
        assert main([*argv, "--config", str(cfgp)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and err.count("\n") == 1

    def test_plain_diagnose_makes_no_estimate_and_checks_nothing(self, tmp_path):
        assert main(["diagnose", "--config", str(self.nine_rows(tmp_path))]) == EXIT_OK


class TestHostileValueGrid:
    """Every hostile value in every config field, flag and data set cell ends in
    exit status 0, 2 or 3 within 2 s, with a one-line reason on a non-zero exit
    and only finite numbers in what is written."""

    @staticmethod
    def run_case(command, config, capsys, flags=()):
        """Why this case fails the contract, or None."""
        start = time.perf_counter()
        try:
            status = main([command, "--config", str(config), *flags])
        except Exception as exc:  # any exception escaping main is the failure recorded
            return f"{type(exc).__name__}: {exc}"
        took = time.perf_counter() - start
        err = capsys.readouterr().err.strip().splitlines()
        if status not in (EXIT_OK, EXIT_INPUT, EXIT_NUMERIC):
            return f"exit status {status}"
        if status and not err[-1].startswith(("input error:", "numerical error:")):
            return f"exit {status} ends stderr with {err[-1:]}"
        if took > 2.0:
            return f"took {took:.2f} s"
        out = dict(zip(flags, flags[1:])).get("--out", json.loads(config.read_text()).get("out"))
        report = config.parent / out if isinstance(out, str) else None
        if report is not None and report.is_file():
            text = report.read_text()
            report.unlink()
            try:
                if command == "sweep":
                    numbers = [float(c) for line in text.splitlines()[2:] for c in line.split(",")]
                    if not all(map(math.isfinite, numbers)):
                        return "a non-finite number in the sweep table"
                else:
                    json.loads(text, parse_constant=_no_constant)
            except ValueError as exc:
                return f"report does not parse: {exc}"
        return None

    @pytest.mark.parametrize("command", ["predict", "sweep", "diagnose"])
    def test_config_fields(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)  # an "out" replaced by a string writes here
        config = tmp_path / "config.json"
        failures = []
        for name, raw in _hostile_configs():
            config.write_text(json.dumps(raw))
            why = self.run_case(command, config, capsys)
            if why:
                failures.append(f"{name}: {why}")
        assert not failures, "\n".join(failures)

    @pytest.mark.parametrize("command", ["predict", "sweep", "diagnose"])
    def test_flags(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)  # an --out replaced by a string writes here
        config = tmp_path / "config.json"
        config.write_text(json.dumps(_hostile_base()))
        failures = []
        for flag in ("--seed", "--shots", "--clock-qubits", "--mode", "--out", "--delta"):
            for value in HOSTILE:
                why = self.run_case(command, config, capsys, (flag, str(value)))
                if why:
                    failures.append(f"{flag} {value!r}: {why}")
        assert not failures, "\n".join(failures)

    @pytest.mark.parametrize("command", ["predict", "sweep", "diagnose"])
    def test_data_set_cells(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(dict(_hostile_base(), dataset=str(tmp_path / "train.csv"))))
        failures = []
        for name, text in _hostile_datasets():
            (tmp_path / "train.csv").write_text(text)
            why = self.run_case(command, config, capsys)
            if why:
                failures.append(f"{name}: {why}")
        assert not failures, "\n".join(failures)


class TestTestPointOutsideEveryCutoff:
    """A test point beyond every training point's cutoff has k_* = 0: its forms
    are exactly 0, and a sampled estimate records the shots it was asked for."""

    @staticmethod
    def config(tmp_path, mode):
        kernel = {"family": "compact-support", "signal_variance": 1.0, "lengthscale": 1.0,
                  "cutoff_radius": 1.0}
        return _example_config(tmp_path, kernel=kernel, test_points=[[50.0]], clock_qubits=6,
                               mode=mode, out=str(tmp_path / "report.json"))

    @pytest.mark.parametrize("mode, pilot_shots", [("exact", 400), ("sampled", 10_000)])
    def test_diagnose_pilot_records_its_shots(self, tmp_path, mode, pilot_shots):
        cfgp = self.config(tmp_path, mode)
        assert main(["diagnose", "--config", str(cfgp), "--delta", "0.05"]) == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["pilot_shots"] == pilot_shots and report["recommended_shots"] == 1

    def test_sampled_report_records_the_configured_shots(self, tmp_path):
        assert main(["predict", "--config", str(self.config(tmp_path, "sampled"))]) == EXIT_OK
        quantum = json.loads((tmp_path / "report.json").read_text())["results"][0]["quantum"]
        for res in quantum.values():
            assert res["shots"] == 10_000 and res["std_error"] == res["raw_mean"] == 0.0
        assert quantum["mean"]["estimate"] == 0.0 and quantum["variance"]["estimate"] == 1.0


def test_data_set_past_the_gram_limit_is_one_line_input_error(tmp_path, monkeypatch, capsys):
    # 4,097 rows at clock 1 is A1 B13 C1 D1 E1 = 17 qubits, inside the qubit cap,
    # but 4,097^2 kernel differences pass kernels.MAX_GRAM_ENTRIES
    def no_gram(*args):
        raise AssertionError("the Gram matrix was built past the data-size limit")

    monkeypatch.setattr(kernels, "_k", no_gram)
    rows = [f"{i / 100},{math.sin(i)}" for i in range(4097)]
    cfgp = _example_config(tmp_path, rows, clock_qubits=1)
    assert main(["predict", "--config", str(cfgp)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error: n = 4097 points") and err.count("\n") == 1
