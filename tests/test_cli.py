import json
import math
from pathlib import Path

import numpy as np
import pytest

from qgpr import cli, qla
from qgpr import statevector as sv
from qgpr.cli import (
    EXIT_INPUT,
    EXIT_NUMERIC,
    EXIT_OK,
    cmd_diagnose,
    cmd_predict,
    cmd_sweep,
    export_csv,
    ingest_csv,
    jitter_recommendation,
    load_config,
    main,
)
from qgpr.estimator import gpr_config, predict_mean_quantum, shots_for_precision
from qgpr.exceptions import InputError, ParseError
from qgpr.kernels import SystemDiagnostics, TrainingSet, build_model, KernelSpec


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

    def test_header_flag(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y\n0,2\n")
        ts = ingest_csv(p, has_header=True)
        assert ts.n == 1

    def test_roundtrip_through_export(self, tmp_path, rng):
        ts = TrainingSet(rng.normal(size=(8, 2)), rng.normal(size=8))
        p = tmp_path / "out.csv"
        export_csv(ts, p)
        back = ingest_csv(p)
        np.testing.assert_array_equal(back.X, ts.X)
        np.testing.assert_array_equal(back.y, ts.y)

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

    def test_clock_phase_table_built_once_per_config(self, tmp_path, monkeypatch):
        dataset = tmp_path / "d.csv"
        dataset.write_text("0,2\n0.7,1\n1.3,0.5\n")
        cfgp = write_config(tmp_path, dataset, test_points=[[0.1], [0.5], [1.0]], clock_qubits=5)
        tables = []
        original = qla._clock_phase_table

        def recorded(*args):
            tables.append(original(*args))
            return tables[-1]

        monkeypatch.setattr(qla, "_clock_phase_table", recorded)
        qla._phase_table_of.cache_clear()
        report = cmd_predict(load_config(cfgp))
        assert len(report["results"]) == 3
        assert len(tables) == 6  # a mean and a variance estimate per test point
        assert all(table is tables[0] for table in tables)
        info = qla._phase_table_of.cache_info()
        assert (info.misses, info.hits) == (1, 5)
        with pytest.raises(ValueError, match="read-only"):
            tables[0][0, 0] = 0.0

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
            shots=400, seed=cfg.seed, mode="sampled",
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

    def test_missing_config_file(self, tmp_path):
        assert main(["predict", "--config", str(tmp_path / "none.json")]) == EXIT_INPUT

    def test_flag_overrides_reach_report(self, canonical, tmp_path):
        out = tmp_path / "r.json"
        assert main(["predict", "--config", str(canonical), "--seed", "3",
                     "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["config"]["seed"] == 3
