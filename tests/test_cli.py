import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from isingfit import cli, diagnostics, exact, sampler
from isingfit.core import CouplingMatrix, IsingModel, load_model, load_samples, save_model

from conftest import dobrushin_model

MODEL_N2 = str(Path(__file__).parent / "data" / "model_n2.json")
MODEL_SK8 = str(Path(__file__).parent / "data" / "model_sk8.json")  # SK n=8 beta=0.5 seed 3
MODEL_SK8_B = str(Path(__file__).parent / "data" / "model_sk8_b.json")  # SK n=8 beta=0.7 seed 11


def write_config(path, doc):
    path.write_text(json.dumps(doc, indent=1))
    return str(path)


def base_config(n=6, l_values=(100, 400), seeds=(0, 1), metrics=("frobenius", "tv_exact")):
    return {
        "ensemble": {"kind": "SK", "n": n, "beta": 0.2, "seed": 7},
        "constraint": {"kind": "OpNormBall", "lam": 2.0},
        "optimizer": {"max_iters": 400},
        "sampler": {"method": "exact"},
        "sweep": {"l_values": list(l_values), "seeds": list(seeds), "metrics": list(metrics)},
    }


def strip_wall_time(csv_text):
    lines = csv_text.strip().splitlines()
    header = lines[0].split(",")
    k = header.index("wall_time")
    return [",".join(f.split(",")[:k] + f.split(",")[k + 1:]) for f in lines]


class TestGenerate:
    def test_deterministic_bytes(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", base_config())
        out1, out2 = tmp_path / "m1.json", tmp_path / "m2.json"
        assert cli.main(["generate", "--config", cfg, "--out", str(out1)]) == 0
        assert cli.main(["generate", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_block_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"constraint": {"kind": "OpNormBall", "lam": 1}})
        assert cli.main(["generate", "--config", cfg, "--out", str(tmp_path / "m.json")]) == 2
        assert "ensemble" in capsys.readouterr().err

    def test_bad_field_named(self, tmp_path, capsys):
        doc = base_config()
        del doc["ensemble"]["n"]
        cfg = write_config(tmp_path / "c.json", doc)
        assert cli.main(["generate", "--config", cfg, "--out", str(tmp_path / "m.json")]) == 2
        assert "ensemble.n" in capsys.readouterr().err


class TestPipeline:
    def test_generate_sample_fit_evaluate(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", base_config())
        model_path = tmp_path / "truth.json"
        samples_path = tmp_path / "s.csv"
        est_path = tmp_path / "est.json"
        report_path = tmp_path / "report.json"
        metrics_path = tmp_path / "metrics.csv"

        assert cli.main(["generate", "--config", cfg, "--out", str(model_path)]) == 0
        assert cli.main([
            "sample", "--model", str(model_path), "--l", "2000",
            "--method", "exact", "--seed", "1", "--out", str(samples_path),
        ]) == 0
        assert load_samples(samples_path).l == 2000
        assert cli.main([
            "fit", "--samples", str(samples_path), "--h", "zero",
            "--constraint", '{"kind": "OpNormBall", "lam": 2.0}',
            "--out", str(est_path), "--report", str(report_path),
        ]) == 0
        report = json.loads(report_path.read_text())
        assert report["converged"]
        assert cli.main([
            "evaluate", "--model-a", str(model_path), "--model-b", str(est_path),
            "--metrics", "frobenius,tv_exact,kl_exact,op_norm_err",
            "--out", str(metrics_path),
        ]) == 0
        lines = metrics_path.read_text().strip().splitlines()
        assert lines[0] == "metric,value"
        values = dict(line.split(",") for line in lines[1:])
        est = load_model(est_path)
        truth = load_model(model_path)
        frob = np.linalg.norm(est.coupling.entries - truth.coupling.entries)
        assert float(values["frobenius"]) == pytest.approx(frob, rel=1e-10)
        assert 0.0 <= float(values["tv_exact"]) <= 1.0

    def test_fit_report_keys(self, tmp_path):
        samples_path = tmp_path / "s.csv"
        samples_path.write_text("1,-1,1\n-1,1,1\n1,1,-1\n-1,-1,-1\n1,1,1\n")
        report_path = tmp_path / "report.json"
        assert cli.main([
            "fit", "--samples", str(samples_path),
            "--constraint", '{"kind": "OpNormBall", "lam": 0.5}',
            "--out", str(tmp_path / "est.json"), "--report", str(report_path),
        ]) == 0
        report = json.loads(report_path.read_text())
        assert list(report) == [
            "iterations", "converged", "objective_first", "objective_last",
            "grad_map_last", "wall_time", "stop_reason", "projections",
            "projection_residual_max",
        ]
        assert report["stop_reason"] == "grad_map"
        assert report["projections"] >= report["iterations"]
        assert 0.0 <= report["projection_residual_max"] <= 1e-13  # the default tolerance

    def test_fit_with_field_file_and_config_optimizer(self, tmp_path):
        doc = base_config(n=5)
        cfg = write_config(tmp_path / "c.json", doc)
        model_path = tmp_path / "m.json"
        cli.main(["generate", "--config", cfg, "--out", str(model_path)])
        samples_path = tmp_path / "s.csv"
        cli.main([
            "sample", "--model", str(model_path), "--l", "500",
            "--method", "exact", "--seed", "2", "--out", str(samples_path),
        ])
        h_path = tmp_path / "h.json"
        h_path.write_text("[0.1, -0.2, 0.0, 0.3, 0.0]")
        est_path = tmp_path / "est.json"
        assert cli.main([
            "fit", "--samples", str(samples_path), "--h", str(h_path),
            "--config", cfg, "--out", str(est_path),
        ]) == 0
        est = load_model(est_path)
        np.testing.assert_allclose(est.field, [0.1, -0.2, 0.0, 0.3, 0.0])

    def test_fit_non_finite_objective_stops(self, tmp_path, capsys):
        # a field of 1e308 overflows the objective at the start point: the fit
        # ends with stop reason non_finite and exit 0, and stderr stays empty
        cfg = write_config(tmp_path / "c.json",
                           {"ensemble": {"kind": "SK", "n": 5, "beta": 0.5, "seed": 0}})
        model_path, samples_path = tmp_path / "m.json", tmp_path / "s.csv"
        assert cli.main(["generate", "--config", cfg, "--out", str(model_path)]) == 0
        assert cli.main(["sample", "--model", str(model_path), "--method", "exact",
                         "--l", "200", "--seed", "1", "--out", str(samples_path)]) == 0
        h_path = tmp_path / "h.json"
        h_path.write_text("[1e308, 1e308, 1e308, 1e308, 1e308]")
        report_path = tmp_path / "report.json"
        assert cli.main(["fit", "--samples", str(samples_path), "--h", str(h_path),
                         "--constraint", '{"kind":"OpNormBall","lam":1}',
                         "--out", str(tmp_path / "e.json"), "--report", str(report_path)]) == 0
        assert capsys.readouterr().err == ""
        report = json.loads(report_path.read_text())  # strict JSON: no Infinity
        assert (report["stop_reason"], report["converged"], report["iterations"]) == (
            "non_finite", False, 0)
        assert report["objective_first"] is report["objective_last"] is None
        np.testing.assert_array_equal(load_model(tmp_path / "e.json").coupling.entries, 0.0)

    def test_fit_rejects_wrong_length_field(self, tmp_path, capsys):
        doc = base_config(n=5)
        cfg = write_config(tmp_path / "c.json", doc)
        model_path = tmp_path / "m.json"
        cli.main(["generate", "--config", cfg, "--out", str(model_path)])
        samples_path = tmp_path / "s.csv"
        cli.main([
            "sample", "--model", str(model_path), "--l", "100",
            "--method", "exact", "--seed", "2", "--out", str(samples_path),
        ])
        h_path = tmp_path / "h.json"
        h_path.write_text("[0.1, 0.2]")
        assert cli.main([
            "fit", "--samples", str(samples_path), "--h", str(h_path),
            "--config", cfg, "--out", str(tmp_path / "e.json"),
        ]) == 2
        assert "h:" in capsys.readouterr().err

    def test_evaluate_to_stdout(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", base_config(n=5))
        model_path = tmp_path / "m.json"
        cli.main(["generate", "--config", cfg, "--out", str(model_path)])
        assert cli.main([
            "evaluate", "--model-a", str(model_path), "--model-b", str(model_path),
            "--metrics", "frobenius",
        ]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "metric,value"
        assert out.splitlines()[1] == "frobenius,0"

    def test_evaluate_writes_each_metric_once(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", base_config(n=5))
        model_path = tmp_path / "m.json"
        cli.main(["generate", "--config", cfg, "--out", str(model_path)])
        assert cli.main([
            "evaluate", "--model-a", str(model_path), "--model-b", str(model_path),
            "--metrics", "frobenius,frobenius,op_norm_err",
        ]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "metric,value", "frobenius,0", "op_norm_err,0",
        ]

    def test_bad_inline_constraint_exit_2(self, tmp_path, capsys):
        samples_path = tmp_path / "s.csv"
        samples_path.write_text("1,-1\n-1,1\n")
        assert cli.main([
            "fit", "--samples", str(samples_path), "--constraint", "{not json",
            "--out", str(tmp_path / "e.json"),
        ]) == 2
        assert "constraint" in capsys.readouterr().err

    def test_glauber_sampling_path(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", base_config(n=5))
        model_path = tmp_path / "m.json"
        cli.main(["generate", "--config", cfg, "--out", str(model_path)])
        out = tmp_path / "s.csv"
        assert cli.main([
            "sample", "--model", str(model_path), "--l", "50", "--method", "glauber",
            "--seed", "3", "--burn-in", "20", "--thinning", "2", "--out", str(out),
        ]) == 0
        assert load_samples(out).l == 50

    def test_glauber_sample_report(self, tmp_path, monkeypatch):
        model_path = tmp_path / "m.json"
        save_model(dobrushin_model(6, 0.3, seed=5), model_path)
        report_path = tmp_path / "report.json"
        argv = ["sample", "--model", str(model_path), "--l", "4000", "--seed", "2"]
        assert cli.main(argv + ["--out", str(tmp_path / "a.csv"),
                                "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert list(report) == [
            "method", "l", "chains", "processes", "burn_in_sweeps", "thinning_sweeps",
            "site_updates", "sample_time", "rhat_energy", "rhat_magnetization",
        ]
        assert report["method"] == "glauber"
        assert (report["l"], report["chains"], report["processes"], report["burn_in_sweeps"],
                report["thinning_sweeps"]) == (4000, 4, 1, 200, 5)  # too few updates to split
        assert report["site_updates"] == 6 * (4 * 200 + 4000 * 5)
        assert report["sample_time"] > 0.0
        assert report["rhat_energy"] <= 1.05
        assert report["rhat_magnetization"] <= 1.05
        # the report leaves the samples as they are
        assert cli.main(argv + ["--out", str(tmp_path / "b.csv")]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        # and so does splitting the chains across three processes
        monkeypatch.setattr(sampler, "_MIN_PARALLEL_UPDATES", 0)
        monkeypatch.setattr(sampler, "_usable_cpus", lambda: 3)
        assert cli.main(argv + ["--out", str(tmp_path / "c.csv"),
                                "--report", str(report_path)]) == 0
        assert json.loads(report_path.read_text())["processes"] == 3
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "c.csv").read_bytes()

    def test_exact_sample_report_has_no_rhat(self, tmp_path):
        model_path = tmp_path / "m.json"
        save_model(dobrushin_model(6, 0.3, seed=5), model_path)
        report_path = tmp_path / "report.json"
        assert cli.main([
            "sample", "--model", str(model_path), "--l", "100", "--method", "exact",
            "--out", str(tmp_path / "s.csv"), "--report", str(report_path),
        ]) == 0
        report = json.loads(report_path.read_text())
        assert report["method"] == "exact"
        assert not any(key.startswith("rhat") for key in report)
        assert report["chains"] is report["processes"] is report["site_updates"] is None


class TestCapabilityGate:
    def test_evaluate_above_cap_exit_3(self, tmp_path, capsys):
        doc = base_config(n=25)
        cfg = write_config(tmp_path / "c.json", doc)
        model_path = tmp_path / "m.json"
        assert cli.main(["generate", "--config", cfg, "--out", str(model_path)]) == 0
        code = cli.main([
            "evaluate", "--model-a", str(model_path), "--model-b", str(model_path),
            "--metrics", "tv_exact",
        ])
        assert code == 3
        assert "enumeration cap" in capsys.readouterr().err

    def test_sweep_above_cap_exit_3(self, tmp_path, capsys):
        doc = base_config(n=25)
        cfg = write_config(tmp_path / "c.json", doc)
        code = cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "r.csv")])
        assert code == 3
        assert "enumeration cap" in capsys.readouterr().err

    def test_overflowing_table_exit_3(self, tmp_path, capsys):
        # the aligned states' log weights, 0.5 * 1e307 * (8^2 - 8), overflow float64
        J = np.full((8, 8), 1e307)
        np.fill_diagonal(J, 0.0)
        model_path = tmp_path / "m.json"
        save_model(IsingModel.zero_field(CouplingMatrix(J)), model_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main([
                "evaluate", "--model-a", str(model_path), "--model-b", str(model_path),
                "--metrics", "tv_exact",
            ])
        assert code == 3
        assert "exact table at n = 8: log weights overflow float64" in capsys.readouterr().err
        assert not caught

    def test_overflowing_estimate_exit_3(self, tmp_path, capsys):
        # the truth's table is built, then the estimate's fails in its first pass
        J = np.full((8, 8), 1e307)
        np.fill_diagonal(J, 0.0)
        truth_path, est_path = tmp_path / "truth.json", tmp_path / "est.json"
        save_model(IsingModel.zero_field(CouplingMatrix.zeros(8)), truth_path)
        save_model(IsingModel.zero_field(CouplingMatrix(J)), est_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(["evaluate", "--model-a", str(truth_path), "--model-b", str(est_path),
                             "--metrics", "tv_exact,kl_exact"])
        assert code == 3
        assert "exact table at n = 8: log weights overflow float64" in capsys.readouterr().err

    def test_overflowing_frobenius_is_finite(self, tmp_path):
        # 56 entries of 1e307: their squares overflow, the norm sqrt(56) 1e307 does not
        J = np.full((8, 8), 1e307)
        np.fill_diagonal(J, 0.0)
        truth_path, est_path = tmp_path / "truth.json", tmp_path / "est.json"
        save_model(IsingModel.zero_field(CouplingMatrix.zeros(8)), truth_path)
        save_model(IsingModel.zero_field(CouplingMatrix(J)), est_path)
        out = tmp_path / "eval.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["evaluate", "--model-a", str(truth_path), "--model-b", str(est_path),
                             "--metrics", "frobenius", "--out", str(out)])
        assert code == 0
        assert not caught
        assert out.read_text() == f"metric,value\nfrobenius,{np.sqrt(56.0) * 1e307:.12g}\n"


class TestSweep:
    def test_rows_and_header(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", base_config())
        out = tmp_path / "results.csv"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == ",".join(cli.SWEEP_COLUMNS)
        assert len(lines) == 1 + 2 * 2

    def test_cell_rerun_reproduces_row(self, tmp_path):
        cfg_doc = base_config()
        out = tmp_path / "results.csv"
        cli.main(["sweep", "--config", write_config(tmp_path / "c.json", cfg_doc), "--out", str(out)])
        full = strip_wall_time(out.read_text())

        cell_doc = base_config(l_values=(400,), seeds=(1,))
        out2 = tmp_path / "cell.csv"
        cli.main(["sweep", "--config", write_config(tmp_path / "c2.json", cell_doc), "--out", str(out2)])
        cell = strip_wall_time(out2.read_text())
        assert cell[1] in full

    @pytest.mark.parametrize("metrics, tables", [
        (("tv_exact", "kl_exact"), 2), (("frobenius",), 1), (("frobenius", "tv_exact"), 2),
    ])
    def test_exact_cell_builds_truth_table_once(self, tmp_path, distribution_calls, monkeypatch,
                                                metrics, tables):
        # the cell reads `tables` tables: the truth's, built once, and the estimate's
        # for an exact metric, read in row blocks and never built
        streamed = []

        class Counted(exact.StreamedTable):
            def __init__(self, m):
                streamed.append(m.n)
                super().__init__(m)

        monkeypatch.setattr(exact, "StreamedTable", Counted)
        doc = base_config(l_values=(200,), seeds=(3,), metrics=metrics)
        cfg = write_config(tmp_path / "c.json", doc)
        assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 0
        assert distribution_calls == [6]
        assert streamed == [6] * (tables - 1)

    def test_serial_matches_parallel(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", base_config())
        serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
        assert cli.main(["sweep", "--config", cfg, "--out", str(serial)]) == 0
        assert cli.main(["sweep", "--config", cfg, "--out", str(parallel), "--jobs", "2"]) == 0
        assert strip_wall_time(serial.read_text()) == strip_wall_time(parallel.read_text())

    def test_glauber_serial_matches_parallel(self, tmp_path, monkeypatch):
        # at --jobs 1 each cell splits its chains across two processes; the
        # --jobs 2 workers, being multiprocessing children, run them in turn
        monkeypatch.setattr(sampler, "_MIN_PARALLEL_UPDATES", 0)
        monkeypatch.setattr(sampler, "_usable_cpus", lambda: 2)
        doc = base_config()
        doc["sampler"] = {"method": "glauber", "burn_in_sweeps": 20, "thinning_sweeps": 2}
        cfg = write_config(tmp_path / "c.json", doc)
        serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
        assert sampler.chain_processes(6, 100, sampler.GlauberConfig()) == 2
        assert cli.main(["sweep", "--config", cfg, "--out", str(serial)]) == 0
        assert cli.main(["sweep", "--config", cfg, "--out", str(parallel), "--jobs", "2"]) == 0
        assert strip_wall_time(serial.read_text()) == strip_wall_time(parallel.read_text())

    @pytest.mark.parametrize("n, default", [(6, "exact"), (21, "glauber")])
    def test_null_method_is_the_default(self, tmp_path, n, default):
        # "method": null samples as an absent method does: exact for n <= 20, else Glauber
        rows = {}
        for method in (None, default):
            doc = base_config(n=n, l_values=(60,), seeds=(2,), metrics=("frobenius",))
            doc["sampler"] = {"method": method}
            if default == "glauber":
                doc["sampler"].update(burn_in_sweeps=3, thinning_sweeps=1)
            out = tmp_path / f"{method}.csv"
            assert cli.main(["sweep", "--config", write_config(tmp_path / "c.json", doc),
                             "--out", str(out)]) == 0
            rows[method] = strip_wall_time(out.read_text())
        assert rows[None] == rows[default]

    def test_repeated_grid_values_run_one_cell(self, tmp_path, distribution_calls):
        doc = base_config(l_values=(50, 50), seeds=(3, 3), metrics=("frobenius",))
        out = tmp_path / "r.csv"
        assert cli.main(["sweep", "--config", write_config(tmp_path / "c.json", doc),
                         "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2
        assert distribution_calls == [6]

    def test_appends_to_sweep_file_only(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", base_config(l_values=(100,), seeds=(0,)))
        out = tmp_path / "results.csv"
        for _ in range(2):
            assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(cli.SWEEP_COLUMNS) and len(lines) == 3

        model = tmp_path / "m.json"
        assert cli.main(["generate", "--config", cfg, "--out", str(model)]) == 0
        ev = tmp_path / "ev.csv"
        assert cli.main(["evaluate", "--model-a", str(model), "--model-b", str(model),
                         "--out", str(ev)]) == 0
        before = ev.read_bytes()
        assert cli.main(["sweep", "--config", cfg, "--out", str(ev)]) == 2
        assert "out:" in capsys.readouterr().err
        assert ev.read_bytes() == before

    def test_median_error_decreases_with_l(self, tmp_path):
        doc = base_config(l_values=(100, 1600), seeds=(0, 1, 2))
        out = tmp_path / "results.csv"
        cli.main(["sweep", "--config", write_config(tmp_path / "c.json", doc), "--out", str(out)])
        lines = out.read_text().strip().splitlines()
        idx = {c: i for i, c in enumerate(cli.SWEEP_COLUMNS)}
        errs = {}
        for line in lines[1:]:
            f = line.split(",")
            errs.setdefault(int(f[idx["l"]]), []).append(float(f[idx["frob_err"]]))
        assert np.median(errs[1600]) < np.median(errs[100])


class TestDiagnose:
    @pytest.fixture
    def model_path(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", base_config(n=6))
        path = tmp_path / "m.json"
        cli.main(["generate", "--config", cfg, "--out", str(path)])
        return str(path)

    def test_subset_probe(self, tmp_path, monkeypatch):
        checks = []
        check = diagnostics.check_subset_decomposition
        monkeypatch.setattr(diagnostics, "check_subset_decomposition",
                            lambda J, dec: checks.append(dec) or check(J, dec))
        doc = {"ensemble": {"kind": "BoundedWidthRandom", "n": 40, "width": 2.0, "seed": 1}}
        cfg = write_config(tmp_path / "c.json", doc)
        model = tmp_path / "m.json"
        cli.main(["generate", "--config", cfg, "--out", str(model)])
        out = tmp_path / "probe.csv"
        assert cli.main([
            "diagnose", "--probe", "subset", "--model", str(model),
            "--m", "2.0", "--eta", "0.5", "--out", str(out),
        ]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("probe,")
        assert lines[1].startswith("subset,40,")
        assert lines[1].endswith("true")
        assert len(checks) == 1  # the construction's own certification, not a second

    def test_regularity_probe(self, model_path, tmp_path):
        out = tmp_path / "probe.csv"
        assert cli.main([
            "diagnose", "--probe", "regularity", "--model", model_path,
            "--gamma", "0.05", "--num", "5", "--out", str(out),
        ]) == 0
        assert len(out.read_text().strip().splitlines()) == 2

    def test_metric_and_tvfrob_probes(self, model_path, tmp_path):
        other = tmp_path / "other.json"
        cfg = write_config(
            tmp_path / "c2.json",
            {"ensemble": {"kind": "CurieWeiss", "n": 6, "beta": 1.0, "seed": 0}},
        )
        cli.main(["generate", "--config", cfg, "--out", str(other)])
        for probe in ("metric", "tvfrob"):
            out = tmp_path / f"{probe}.csv"
            assert cli.main([
                "diagnose", "--probe", probe, "--model", model_path,
                "--model-b", str(other), "--out", str(out),
            ]) == 0
            assert len(out.read_text().strip().splitlines()) == 2

    def test_gradconc_probe(self, model_path, tmp_path):
        out = tmp_path / "probe.csv"
        assert cli.main([
            "diagnose", "--probe", "gradconc", "--model", model_path,
            "--l", "100", "--batches", "20", "--out", str(out),
        ]) == 0
        header = out.read_text().splitlines()[0]
        assert "exceed4" in header

    def test_gradconc_bytes_pinned(self, tmp_path):
        # every batch's exact draw feeds the row, so a change to the sampled
        # bytes (the table, its CDF or the search) moves these digits
        out = tmp_path / "probe.csv"
        assert cli.main(["diagnose", "--probe", "gradconc", "--model", MODEL_SK8, "--l", "200",
                         "--batches", "20", "--seed", "0", "--out", str(out)]) == 0
        assert out.read_bytes() == (b"probe,n,l,batches,mean,std,exceed1,exceed2,exceed4\n"
                                    b"gradconc,8,200,20,-32.5225626426,67.3860531298,1,1,0.75\n")

    @pytest.mark.parametrize("probe, expected", [
        ("metric", b"probe,n,e_jstar,frob_sq,ratio,degenerate\n"
                   b"metric,8,4.87985524737,5.31552287507,0.918038612957,false\n"),
        ("tvfrob", b"probe,n,tv,frob,bound_ok,kl,pinsker_ok\n"
                   b"tvfrob,8,0.573380376053,2.30554177474,true,1.17081466127,true\n"),
    ])
    def test_model_pair_bytes_pinned(self, tmp_path, probe, expected):
        out = tmp_path / "probe.csv"
        assert cli.main(["diagnose", "--probe", probe, "--model", MODEL_SK8,
                         "--model-b", MODEL_SK8_B, "--out", str(out)]) == 0
        assert out.read_bytes() == expected

    @pytest.mark.parametrize("probe, flags, header, cells", [
        ("subset", ["--m", "2.0", "--eta", "0.5"],
         "probe,n,r,membership_count,eta,certified", "subset,6,1,1,0.5,true"),
        ("regularity", ["--gamma", "0.05", "--num", "5"],
         "probe,n,gamma,directions,excluded,max_ratio", "regularity,6,0.05,5,0,"),
        ("metric", ["--model-b", "{model}"],
         "probe,n,e_jstar,frob_sq,ratio,degenerate", "metric,6,0,0,nan,true"),
        ("tvfrob", ["--model-b", "{model}"],
         "probe,n,tv,frob,bound_ok,kl,pinsker_ok", "tvfrob,6,0,0,true,0,true"),
        ("gradconc", ["--l", "100", "--batches", "20"],
         "probe,n,l,batches,mean,std,exceed1,exceed2,exceed4", "gradconc,6,100,20,"),
    ])
    def test_probe_header_and_cells(self, model_path, capsys, probe, flags, header, cells):
        # metric and tvfrob compare the model with itself (a degenerate metric row);
        # reals whose digits depend on the draws are left out of ``cells``
        argv = ["diagnose", "--probe", probe, "--model", model_path]
        assert cli.main(argv + [f.format(model=model_path) for f in flags]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == header
        assert lines[1].startswith(cells)
        assert len(lines) == 2 and len(lines[1].split(",")) == len(header.split(","))

    def test_missing_probe_arg_exit_2(self, model_path, capsys):
        assert cli.main(["diagnose", "--probe", "subset", "--model", model_path]) == 2
        assert "--m" in capsys.readouterr().err


class TestSeeds:
    @pytest.mark.parametrize("argv", [
        ["sample", "--l", "50", "--method", "exact"],
        ["diagnose", "--probe", "gradconc", "--l", "50", "--batches", "5"],
        ["diagnose", "--probe", "regularity", "--gamma", "0.05", "--num", "3"],
    ])
    def test_negative_seed_is_taken_mod_2_63(self, tmp_path, argv):
        cfg = write_config(tmp_path / "c.json", base_config(n=5))
        model = tmp_path / "m.json"
        cli.main(["generate", "--config", cfg, "--out", str(model)])
        outputs = []
        for seed in ("-1", str(2**63 - 1)):
            out = tmp_path / f"out{seed}.csv"
            assert cli.main(argv + ["--model", str(model), "--seed", seed, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestBadInput:
    @pytest.mark.parametrize("doc, key", [
        ({"n": 2, "h": [0, 0], "J": {"dense": [[0, 1], [1]]}}, "J.dense"),
        ({"n": 2, "h": "ab", "J": {"dense": [[0, 1], [1, 0]]}}, '"h"'),
        ({"n": 3, "h": [0, 0, 0], "J": {"triplets": [[0.5, 2, 1.0]]}}, "J.triplets[0]"),
        ({"n": 3, "h": [0, 0, 0], "J": {"triplets": [[0, 2, "x"]]}}, "J.triplets[0]"),
        (5, "top level"),
        ({"n": True, "h": [0], "J": {"dense": [[0]]}}, '"n"'),
        ({"n": 2, "h": [0, 0], "J": {"dense": [[0, "1"], ["1", 0]]}}, "J.dense"),
        ({"n": 2, "h": [0, 0], "J": {"dense": [[0, True], [True, 0]]}}, "J.dense"),
        ({"n": 2, "h": ["1", 0], "J": {"dense": [[0, 1], [1, 0]]}}, '"h"'),
        ({"n": 2, "h": [True, 0], "J": {"dense": [[0, 1], [1, 0]]}}, '"h"'),
        ({"n": 3, "h": [0, 0, 0], "J": {"triplets": [[0, 2, True]]}}, "J.triplets[0]"),
        ({"n": 3, "h": [0, 0, 0], "J": {"triplets": [[0, 2, "1"]]}}, "J.triplets[0]"),
        ({"n": 3, "h": [0, 0, 0], "J": {"triplets": [[False, True, 1.0]]}}, "J.triplets[0]"),
    ])
    def test_malformed_model_file_exit_2(self, tmp_path, capsys, doc, key):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert cli.main(["evaluate", "--model-a", str(bad), "--model-b", str(bad)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["sample", "--model", "{missing}", "--l", "5"],
        ["fit", "--samples", "{missing}", "--constraint", '{{"kind": "OpNormBall", "lam": 1}}'],
        ["evaluate", "--model-a", MODEL_SK8, "--model-b", "{missing}"],
        ["diagnose", "--probe", "tvfrob", "--model", "{missing}", "--model-b", MODEL_SK8],
        ["generate", "--config", "{directory}"],
    ])
    def test_unreadable_input_file_exit_2(self, tmp_path, capsys, argv):
        # a missing file, or a directory where a file should be
        paths = {"missing": str(tmp_path / "absent"), "directory": str(tmp_path)}
        argv = [a.format(**paths) for a in argv] + ["--out", str(tmp_path / "out")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "cannot read" in err and str(tmp_path) in err

    @pytest.mark.parametrize("field, value", [
        ("l_values", ["x"]), ("l_values", 5), ("seeds", ["x"]), ("seeds", 5),
        ("metrics", 5), ("metrics", "frobenius"), ("l_values", [100.9]), ("seeds", [True]),
        ("metric", ["tv_exact"]), ("l_values", []), ("l_values", [0]), ("l_values", [50, -1]),
        ("seeds", []), ("metrics", []), ("metrics", ["tv"]),
    ])
    def test_bad_sweep_grid_exit_2(self, tmp_path, capsys, field, value):
        doc = base_config()
        doc["sweep"][field] = value
        cfg = write_config(tmp_path / "c.json", doc)
        assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 2
        assert f"sweep.{field}" in capsys.readouterr().err

    def test_foreign_constraint_parameter_exit_2(self, tmp_path, capsys):
        doc = base_config()
        doc["constraint"] = {"kind": "OpNormBall", "lam": 1, "m": 3}
        cfg = write_config(tmp_path / "c.json", doc)
        assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 2
        assert "constraint.m: unknown field" in capsys.readouterr().err

    @pytest.mark.parametrize("constraint", [
        {"kind": "Banana"}, {"kind": []}, {"kind": 5}, {"lam": 1},
    ])
    def test_bad_constraint_kind_exit_2(self, tmp_path, capsys, constraint):
        doc = base_config()
        doc["constraint"] = constraint
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "r.csv"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 2
        assert "constraint.kind" in capsys.readouterr().err
        assert not out.exists()

    def test_non_object_sampler_block_exit_2(self, tmp_path, capsys):
        doc = base_config()
        doc["sampler"] = 5
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "r.csv"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 2
        assert "sampler: must be an object" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("block, name", [
        ('{"kind": "OpNormBall", "lam": NaN}', "lam"),
        ('{"kind": "WidthBall", "m": NaN}', "m >"),
        ('{"kind": "AntiferroSpike", "alpha": 0.5, "c": NaN}', "c >"),
        ('{"kind": "OpNormBall", "lam": true}', "lam"),
        ('{"kind": "WidthBall", "m": true}', "m >"),
        ('{"kind": "AntiferroSpike", "alpha": 0.5, "c": true}', "c >"),
    ])
    def test_nan_radius_exit_2(self, tmp_path, capsys, block, name):
        samples = tmp_path / "s.csv"
        samples.write_text("1,-1,1\n-1,1,1\n1,1,-1\n-1,-1,-1\n")
        argv = ["fit", "--samples", str(samples), "--constraint", block,
                "--out", str(tmp_path / "e.json")]
        assert cli.main(argv) == 2
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize("optimizer, message", [
        ({"max_iters": 2.5}, "max_iters"),
        ({"grad_map_tol": float("nan")}, "grad_map_tol"),
        ({"grad_map_tol": "small"}, "grad_map_tol"),
        ({"initial_step": 2.0}, "optimizer.initial_step: unknown field"),
        ({"grad_map_tol": float("inf")}, "grad_map_tol"),
        ({"grad_map_tol": True}, "grad_map_tol"),
        ({"init": None}, "optimizer.init: unknown field"),
    ])
    def test_bad_optimizer_block_exit_2(self, tmp_path, capsys, optimizer, message):
        samples = tmp_path / "s.csv"
        samples.write_text("1,-1\n-1,1\n1,1\n")
        cfg = write_config(tmp_path / "c.json", {"optimizer": optimizer})
        argv = ["fit", "--samples", str(samples), "--config", cfg,
                "--constraint", '{"kind": "OpNormBall", "lam": 1}',
                "--out", str(tmp_path / "e.json")]
        assert cli.main(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("fields, message", [
        ({"n": 5.7}, "n must be an integer"),
        ({"n": True}, "n must be an integer"),
        ({"n": "6"}, "n must be an integer"),
        ({"beta": float("nan")}, "beta must be finite"),
        ({"beta": float("inf")}, "beta must be finite"),
        ({"kind": "BoundedWidthRandom", "width": float("nan")}, "width"),
        ({"betta": 0.3}, "ensemble.betta: unknown field"),
        ({"beta": True}, "beta must be finite"),
        ({"kind": "BoundedWidthRandom", "width": True}, "width"),
        ({"d": 3, "width": 9.0}, "ensemble: d: SK takes no degree"),
        ({"width": 9.0}, "ensemble: width: SK takes no width"),
        ({"kind": "BoundedWidthRandom", "width": 1.0, "d": 2}, "d: BoundedWidthRandom takes no"),
        ({"kind": "DilutedSK", "d": 3, "width": 1.0}, "width: DilutedSK takes no width"),
    ])
    def test_bad_ensemble_block_exit_2(self, tmp_path, capsys, fields, message):
        doc = base_config()
        doc["ensemble"].update(fields)
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "r.csv"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("block, message", [
        ({"method": "glauber", "burn_in_sweeps": 2.9}, "burn_in_sweeps must be an integer"),
        ({"method": "glauber", "chains": True}, "chains must be an integer"),
        ({"method": "glauber", "seed": 3}, "sampler.seed: unknown field"),
        ({"method": "glauber", "alpha_hint": "x"}, "sampler:"),
        ({"method": "exact", "chains": 2.5}, "sampler.chains: applies to method glauber only"),
        ({"method": "glauber", "alpha_hint": True}, "alpha_hint"),
        ({"burn_in_sweeps": 7, "alpha_hint": 0.5},  # n <= 20 samples exactly by default
         "sampler.burn_in_sweeps: applies to method glauber only"),
        ({"method": None, "chains": 2}, "sampler.chains: applies to method glauber only"),
        ({"method": "glauber", "alpha_hint": 0.5, "burn_in_sweeps": 7},
         "sampler.alpha_hint: sets burn_in_sweeps, so not both can be set"),
    ])
    def test_bad_sampler_block_exit_2(self, tmp_path, capsys, block, message):
        doc = base_config()
        doc["sampler"] = block
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "r.csv"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, path, reason", [
        (["generate", "--config", "{cfg}", "--out", "{absent}"], "{absent}", "No such file"),
        (["sample", "--model", MODEL_SK8, "--l", "5", "--out", "{absent}"], "{absent}",
         "No such file"),
        (["sample", "--model", MODEL_SK8, "--l", "5", "--out", "{written}", "--report", "{dir}"],
         "{dir}", "Is a directory"),
        (["fit", "--samples", "{samples}", "--constraint", '{{"kind": "OpNormBall", "lam": 1}}',
          "--out", "{written}", "--report", "{absent}"], "{absent}", "No such file"),
        (["evaluate", "--model-a", MODEL_SK8, "--model-b", MODEL_SK8, "--out", "{absent}"],
         "{absent}", "No such file"),
        (["sweep", "--config", "{cfg}", "--out", "{dir}"], "{dir}", "Is a directory"),
        (["diagnose", "--probe", "tvfrob", "--model", MODEL_SK8, "--model-b", MODEL_SK8,
          "--out", "{absent}"], "{absent}", "No such file"),
    ])
    def test_unwritable_output_exit_2(self, tmp_path, capsys, monkeypatch, argv, path, reason):
        # each output path is checked before the command generates, samples, fits or compares
        paths = {"cfg": write_config(tmp_path / "c.json", base_config(n=4)),
                 "samples": str(tmp_path / "s.csv"), "written": str(tmp_path / "written"),
                 "absent": str(tmp_path / "absent" / "x.csv"), "dir": str(tmp_path)}
        (tmp_path / "s.csv").write_text("1,-1,1\n-1,1,1\n1,1,-1\n")

        def forbidden(*args, **kwargs):
            raise AssertionError("the command did work before checking its outputs")

        for module, name in [(cli.ensembles, "generate"), (cli.sampler, "exact_sample"),
                             (cli.sampler, "glauber_sample"), (cli.optimizer, "fit_mple"),
                             (cli.diagnostics, "pair_metrics")]:
            monkeypatch.setattr(module, name, forbidden)
        assert cli.main([a.format(**paths) for a in argv]) == 2
        assert f"{path.format(**paths)}: cannot write: {reason}" in capsys.readouterr().err
        assert not (tmp_path / "written").exists() and not (tmp_path / "absent").exists()

    @pytest.mark.parametrize("argv, message", [
        (["diagnose", "--probe", "metric", "--model", "{model}"], "metric probe needs --model-b"),
        (["diagnose", "--probe", "tvfrob", "--model", "{model}"], "tvfrob probe needs --model-b"),
        (["fit", "--samples", "{samples}", "--h", "{nan_h}", "--config", "{cfg}",
          "--out", "{est}"], "h:"),
        (["fit", "--samples", "{samples}", "--h", "{inf_h}", "--config", "{cfg}",
          "--out", "{est}"], "h:"),
        (["diagnose", "--probe", "regularity", "--model", "{model}", "--gamma", "nan"], "gamma"),
        (["diagnose", "--probe", "regularity", "--model", "{model}", "--gamma", "inf"], "gamma"),
        (["sweep", "--config", "{cfg}", "--out", "{est}", "--jobs", "0"], "jobs: must be >= 1"),
        (["sweep", "--config", "{cfg}", "--out", "{est}", "--jobs", "-3"], "jobs: must be >= 1"),
        (["diagnose", "--probe", "regularity", "--model", "{model}", "--gamma", "0.1",
          "--num", "0"], "num_perturbations"),
        (["diagnose", "--probe", "regularity", "--model", "{model}", "--gamma", "0.1",
          "--num", "-2"], "num_perturbations"),
        (["fit", "--samples", "{samples}", "--h", "{bool_h}", "--config", "{cfg}",
          "--out", "{est}"], "h:"),
        (["fit", "--samples", "{samples}", "--h", "{dict_h}", "--config", "{cfg}",
          "--out", "{est}"], "h:"),
        (["diagnose", "--probe", "subset", "--model", "{model}", "--m", "inf", "--eta", "0.5"],
         "eta < M"),
        (["evaluate", "--model-a", "{model}", "--model-b", "{model}", "--metrics", ","],
         "metrics: no metric given"),
        (["sample", "--model", "{model}", "--l", "10", "--method", "exact", "--burn-in", "0",
          "--out", "{est}"], "--burn-in: applies to --method glauber only"),
        (["sample", "--model", "{model}", "--l", "10", "--method", "exact", "--thinning", "1",
          "--out", "{est}"], "--thinning: applies to --method glauber only"),
        (["sample", "--model", "{model}", "--l", "10", "--method", "exact", "--chains", "2",
          "--out", "{est}"], "--chains: applies to --method glauber only"),
        (["sample", "--model", "{model}", "--l", "10", "--method", "exact", "--alpha-hint",
          "0.3", "--out", "{est}"], "--alpha-hint: applies to --method glauber only"),
        (["diagnose", "--probe", "metric", "--model", "{model}", "--model-b", MODEL_N2],
         "model-b: dimension 2 does not match"),
        (["diagnose", "--probe", "tvfrob", "--model", "{model}", "--model-b", MODEL_N2],
         "model-b: dimension 2 does not match"),
        (["evaluate", "--model-a", "{model}", "--model-b", MODEL_N2],
         "model-b: dimension 2 does not match"),
        (["diagnose", "--probe", "gradconc", "--model", "{model}", "--l", "0"],
         "sample count must be an integer >= 1"),
        (["diagnose", "--probe", "gradconc", "--model", "{model}", "--l", "5", "--batches", "1"],
         "need at least 2 batches"),
        (["sample", "--model", "{model}", "--l", "10", "--alpha-hint", "0.5", "--burn-in", "7",
          "--out", "{est}"], "sampler.alpha_hint: sets burn_in_sweeps, so not both can be set"),
    ])
    def test_bad_command_line_exit_2(self, tmp_path, capsys, argv, message):
        names = ("model", "samples", "nan_h", "inf_h", "bool_h", "dict_h", "est")
        paths = {name: str(tmp_path / name) for name in names}
        paths["cfg"] = write_config(tmp_path / "c.json", base_config(n=5))
        cli.main(["generate", "--config", paths["cfg"], "--out", paths["model"]])
        cli.main(["sample", "--model", paths["model"], "--l", "50", "--method", "exact",
                  "--out", paths["samples"]])
        (tmp_path / "nan_h").write_text("[NaN, 0, 0, 0, 0]")
        (tmp_path / "inf_h").write_text("[1e400, 0, 0, 0, 0]")
        (tmp_path / "bool_h").write_text("[true, false, true, 0, 1]")
        (tmp_path / "dict_h").write_text('{"h": [0, 0, 0, 0, 0]}')
        capsys.readouterr()
        assert cli.main([a.format(**paths) for a in argv]) == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("value, text", [
    (None, ""), ("", ""), ("OpNormBall(lam=2)", "OpNormBall(lam=2)"), (True, "true"),
    (np.True_, "true"), (False, "false"), (3, "3"), (np.int64(3), "3"), (0.1, "0.1"),
    (1 / 3, "0.333333333333"), (np.float64(2.0), "2"), (float("nan"), "nan"),
])
def test_cell_format(value, text):
    assert cli._cell(value) == text


def test_parser_built_once_per_process(tmp_path, capsys):
    # main reuses one parser; an argv that argparse rejects leaves it usable
    cli._build_parser.cache_clear()
    cfg = write_config(tmp_path / "c.json", base_config(n=4))
    assert cli.main(["generate", "--config", cfg, "--out", str(tmp_path / "m1.json")]) == 0
    with pytest.raises(SystemExit) as stop:
        cli.main(["generate", "--config", cfg])
    assert stop.value.code == 2
    assert "--out" in capsys.readouterr().err
    assert cli.main(["generate", "--config", cfg, "--out", str(tmp_path / "m2.json")]) == 0
    assert (tmp_path / "m1.json").read_bytes() == (tmp_path / "m2.json").read_bytes()
    assert cli._build_parser.cache_info().misses == 1


def test_import_loads_no_process_machinery():
    # multiprocessing and the process pool load only when a run forks or a
    # sweep runs jobs, so no other command pays for them in start-up or memory
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, isingfit, isingfit.cli; print(sorted({'multiprocessing', "
            "'concurrent.futures.process'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_run_as_module_without_warning():
    # the package does not import cli, so runpy finds no copy of it in sys.modules
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "isingfit.cli", "sample", "--help"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
