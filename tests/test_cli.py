"""Command-line interface: end-to-end runs, defaults, and failure modes."""

import json

import numpy as np
import pytest

from mmclust import cli
from mmclust.cli import cli_main
from mmclust.metrics import Partition, accuracy


def run(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_timing(obj):
    if isinstance(obj, dict):
        return {
            k: strip_timing(v)
            for k, v in obj.items()
            if k not in ("elapsed_sec", "total_time_sec")
        }
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


@pytest.fixture()
def small_dataset(tmp_path, capsys):
    out = tmp_path / "data"
    code, _, err = run(
        capsys,
        "gen", "--n", "60", "--k", "3", "--views", "2", "--dims", "5,4",
        "--sep", "8", "--seed", "1", "--out", str(out),
    )
    assert code == 0, err
    return out


class TestGen:
    def test_writes_views_labels_manifest(self, tmp_path, capsys):
        out = tmp_path / "d"
        code, stdout, _ = run(
            capsys,
            "gen", "--n", "12", "--k", "2", "--views", "3", "--dims", "2,3,2",
            "--seed", "0", "--out", str(out),
        )
        assert code == 0
        assert "manifest.json" in stdout
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["views"] == ["view1.csv", "view2.csv", "view3.csv"]
        assert manifest["labels"] == "labels.csv"
        labels = (out / "labels.csv").read_text().split()
        assert len(labels) == 12

    def test_dims_views_mismatch_is_diagnosed(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "gen", "--n", "10", "--k", "2", "--views", "2", "--dims", "3",
            "--out", str(tmp_path / "d"),
        )
        assert code == 1
        assert "error:" in err and "dims" in err

    def test_matrix_files_round_trip(self, small_dataset, capsys):
        from mmclust.data import load_dataset
        from mmclust.synth import SynthSpec, generate

        ds = load_dataset(small_dataset / "manifest.json")
        ref = generate(
            SynthSpec(
                n_instances=60, n_views=2, n_clusters=3, dims=(5, 4),
                separation=8.0, seed=1,
            )
        )
        for got, want in zip(ds.views, ref.views):
            np.testing.assert_array_equal(got, want)

    def test_noise_views_flag(self, tmp_path, capsys):
        out = tmp_path / "noisy"
        code, _, _ = run(
            capsys,
            "gen", "--n", "30", "--k", "2", "--views", "2", "--dims", "3,3",
            "--sep", "9", "--noise-views", "1", "--seed", "2", "--out", str(out),
        )
        assert code == 0
        from mmclust.data import load_dataset

        ds = load_dataset(out / "manifest.json")
        # trailing view carries no class signal
        noise = ds.views[1]
        m0 = noise[:, ds.labels == 0].mean(axis=1)
        m1 = noise[:, ds.labels == 1].mean(axis=1)
        assert np.linalg.norm(m0 - m1) < 2.0
        info = ds.views[0]
        gap = np.linalg.norm(
            info[:, ds.labels == 0].mean(axis=1) - info[:, ds.labels == 1].mean(axis=1)
        )
        assert gap > 7.0


class TestFitAndEval:
    def test_end_to_end_scores_in_range(self, small_dataset, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code, stdout, err = run(
            capsys,
            "fit", str(small_dataset / "manifest.json"),
            "--k", "3", "--rank", "6", "--gamma", "0.001",
            "--max-iters", "40", "--seed", "1", "--out", str(report_path),
        )
        assert code == 0, err
        assert "converged=" in stdout
        report = json.loads(report_path.read_text())
        assert report["n_clusters"] == 3
        assert len(report["labels"]) == 60

        code, stdout, _ = run(
            capsys, "eval", str(report_path), str(small_dataset / "labels.csv")
        )
        assert code == 0
        lines = dict(line.split() for line in stdout.strip().splitlines())
        assert 0.0 <= float(lines["ACC"]) <= 1.0
        assert 0.0 <= float(lines["NMI"]) <= 1.0

    def test_gamma_defaults_to_hundredth(self, small_dataset, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code, _, _ = run(
            capsys,
            "fit", str(small_dataset / "manifest.json"),
            "--k", "3", "--max-iters", "2", "--out", str(report_path),
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["config"]["gamma"] == 0.01
        assert report["config"]["rank"] == 10

    def test_report_schema(self, small_dataset, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code, _, _ = run(
            capsys,
            "fit", str(small_dataset / "manifest.json"),
            "--k", "3", "--rank", "4", "--max-iters", "3", "--out", str(report_path),
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        for key in (
            "model", "n_clusters", "config", "converged", "n_iterations",
            "objective", "trace", "labels", "indicator", "view_factors",
            "cluster_factor", "total_time_sec",
        ):
            assert key in report, key
        assert len(report["trace"]) == report["n_iterations"]
        first = report["trace"][0]
        for key in ("iteration", "objective", "fit_term", "reg_term", "cg", "elapsed_sec"):
            assert key in first, key
        assert len(first["cg"]) == 2  # one CG record per view
        assert len(report["view_factors"]) == 2
        assert len(report["view_factors"][0]) == 6  # D_0 + 1 rows
        assert len(report["cluster_factor"]) == 3

    def test_fit_report_deterministic_apart_from_timing(
        self, small_dataset, tmp_path, capsys
    ):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            code, _, _ = run(
                capsys,
                "fit", str(small_dataset / "manifest.json"),
                "--k", "3", "--rank", "4", "--max-iters", "8",
                "--seed", "7", "--out", str(p),
            )
            assert code == 0
        a, b = (strip_timing(json.loads(p.read_text())) for p in paths)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_k_larger_than_n_is_diagnosed(self, small_dataset, capsys):
        code, _, err = run(
            capsys, "fit", str(small_dataset / "manifest.json"), "--k", "100"
        )
        assert code == 1
        assert "error:" in err and "n_clusters" in err

    @pytest.mark.parametrize("flag,value", [("--cg-tol", "nan"), ("--init-scale", "inf")])
    def test_non_finite_setting_is_diagnosed(self, small_dataset, capsys, flag, value):
        code, _, err = run(
            capsys, "fit", str(small_dataset / "manifest.json"), "--k", "3", flag, value
        )
        assert code == 1
        assert "error:" in err and "finite" in err

    def test_missing_manifest_is_diagnosed(self, tmp_path, capsys):
        code, _, err = run(capsys, "fit", str(tmp_path / "nope.json"), "--k", "2")
        assert code == 1
        assert "manifest not found" in err

    def test_eval_missing_report_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"labels": [0, 1]}))
        labels = tmp_path / "y.csv"
        labels.write_text("0\n1\n")
        code, _, err = run(capsys, "eval", str(bad), str(labels))
        assert code == 1
        assert "n_clusters" in err


class TestBaseline:
    def test_baseline_runs_and_reports(self, small_dataset, tmp_path, capsys):
        report_path = tmp_path / "b.json"
        code, stdout, _ = run(
            capsys,
            "baseline", str(small_dataset / "manifest.json"),
            "--k", "3", "--out", str(report_path),
        )
        assert code == 0
        assert "concat_regression" in stdout
        report = json.loads(report_path.read_text())
        assert report["model"] == "concat_regression"

    def test_baseline_reports_its_closed_form_in_one_iteration(self, small_dataset, capsys):
        code, stdout, _ = run(
            capsys, "baseline", str(small_dataset / "manifest.json"), "--k", "3",
        )
        assert code == 0
        assert "converged=True iterations=1 " in stdout.splitlines()[0]

    @pytest.mark.parametrize("flag,value", [
        ("--max-iters", "5"), ("--tol", "1e-6"), ("--cg-tol", "1e-8"),
        ("--cg-max-iters", "5"), ("--irls-epsilon", "1e-12"), ("--init-scale", "0.1"),
    ])
    def test_baseline_rejects_solver_controls(self, small_dataset, capsys, flag, value):
        # the baseline has no loop and no CG, so it takes no solver controls
        code, _, err = run(
            capsys, "baseline", str(small_dataset / "manifest.json"), "--k", "3", flag, value,
        )
        assert code == 2
        assert "unrecognized arguments" in err


class TestReportFile:
    @pytest.mark.parametrize("command,producer", [
        ("fit", "fit"), ("baseline", "baseline_regression_cluster"),
    ])
    def test_report_parses_to_its_dict_and_evaluates(
        self, small_dataset, tmp_path, capsys, monkeypatch, command, producer
    ):
        reports = []
        inner = getattr(cli, producer)

        def capture(*args, **kwargs):
            reports.append(inner(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(cli, producer, capture)
        report_path = tmp_path / "report.json"
        # the baseline computes its answer in closed form and takes no cap
        cap = ("--max-iters", "5") if command == "fit" else ()
        code, _, err = run(
            capsys,
            command, str(small_dataset / "manifest.json"),
            "--k", "3", *cap, "--out", str(report_path),
        )
        assert code == 0, err
        text = report_path.read_text()
        assert json.loads(text) == reports[0].to_dict()
        assert text.count("\n") == 1  # compact: one line plus the trailing newline

        labels_path = small_dataset / "labels.csv"
        code, stdout, _ = run(capsys, "eval", str(report_path), str(labels_path))
        assert code == 0
        printed = dict(line.split() for line in stdout.strip().splitlines())
        truth = Partition.from_labels(np.loadtxt(labels_path, dtype=np.int64))
        expected = accuracy(truth, Partition.from_labels(reports[0].labels, k=3))
        assert printed["ACC"] == f"{expected:.6f}"


class TestSweep:
    def test_sweep_defaults_to_standard_grid(self, small_dataset, capsys):
        code, stdout, err = run(
            capsys,
            "sweep", str(small_dataset / "manifest.json"),
            "--k", "3", "--max-iters", "3", "--gamma", "0.001",
        )
        assert code == 0, err
        for rank in (10, 20, 30, 40, 50):
            assert f"rank {rank}:" in stdout
        assert "best rank" in stdout

    def test_sweep_custom_grid_and_best_report(self, small_dataset, tmp_path, capsys):
        best = tmp_path / "best.json"
        code, stdout, _ = run(
            capsys,
            "sweep", str(small_dataset / "manifest.json"),
            "--k", "3", "--ranks", "4,6", "--max-iters", "20",
            "--gamma", "0.001", "--out", str(best),
        )
        assert code == 0
        report = json.loads(best.read_text())
        assert report["config"]["rank"] in (4, 6)

    def test_sweep_without_labels_is_diagnosed(self, tmp_path, capsys):
        view = tmp_path / "v.csv"
        view.write_text("1,2,3\n")
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"views": ["v.csv"]}))
        code, _, err = run(capsys, "sweep", str(manifest), "--k", "2")
        assert code == 1
        assert "labels" in err


class TestArgumentErrors:
    def test_unknown_flag_exits_nonzero(self, capsys):
        code = cli_main(["fit", "x.json", "--k", "2", "--bogus"])
        capsys.readouterr()
        assert code == 2

    def test_unknown_command_exits_nonzero(self, capsys):
        code = cli_main(["frobnicate"])
        capsys.readouterr()
        assert code == 2

    def test_no_command_exits_nonzero(self, capsys):
        code = cli_main([])
        capsys.readouterr()
        assert code == 2


class TestOracleCheckCommand:
    def test_all_checks_pass(self, capsys):
        code, stdout, _ = run(capsys, "oracle-check", "--seed", "3")
        assert code == 0
        lines = stdout.splitlines()
        assert len(lines) == 13
        assert all(line.startswith("PASS ") for line in lines[:-1])
        assert lines[-1] == "all 12 checks passed"
