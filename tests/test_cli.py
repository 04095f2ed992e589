"""Command-line interface: end-to-end runs, defaults, and failure modes."""

import dataclasses
import json

import numpy as np
import pytest

from mmclust import cli
from mmclust.cli import cli_main
from mmclust.metrics import Partition, accuracy
from mmclust.solver import FitConfig


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
        assert manifest == {
            "views": ["view1.csv", "view2.csv", "view3.csv"], "labels": "labels.csv",
        }
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

    def test_solver_defaults_come_from_fit_config(self, small_dataset, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code, _, err = run(
            capsys,
            "fit", str(small_dataset / "manifest.json"),
            "--k", "3", "--rank", "4", "--seed", "7", "--out", str(report_path),
        )
        assert code == 0, err
        report = json.loads(report_path.read_text())
        assert report["config"] == dataclasses.asdict(FitConfig(rank=4, seed=7))

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

    @pytest.mark.parametrize("flag,value", [("--cg-tol", "nan"), ("--gamma", "inf")])
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

    def test_eval_with_raw_class_ids(self, small_dataset, tmp_path, capsys):
        # a labels file may name classes by raw IDs; only the IDs that occur
        # enter the matching, so the scores equal those of contiguous labels
        report_path = tmp_path / "report.json"
        code, _, err = run(
            capsys, "baseline", str(small_dataset / "manifest.json"), "--k", "3",
            "--out", str(report_path),
        )
        assert code == 0, err
        labels = np.loadtxt(small_dataset / "labels.csv", dtype=np.int64)
        raw = tmp_path / "raw.csv"
        raw.write_text("".join(f"{[7, 999, 5000][y]}\n" for y in labels))
        code, dense_out, _ = run(
            capsys, "eval", str(report_path), str(small_dataset / "labels.csv")
        )
        assert code == 0
        code, raw_out, err = run(capsys, "eval", str(report_path), str(raw))
        assert code == 0, err
        assert raw_out == dense_out

    def test_manifest_with_raw_class_ids(self, small_dataset, capsys):
        # fit and baseline never read labels, and sweep scores the IDs that
        # occur, so raw IDs change no command's output
        labels = np.loadtxt(small_dataset / "labels.csv", dtype=np.int64)
        (small_dataset / "raw.csv").write_text("".join(f"{[7, 999, 5000][y]}\n" for y in labels))
        manifest = json.loads((small_dataset / "manifest.json").read_text())
        raw_manifest = small_dataset / "raw.json"
        raw_manifest.write_text(json.dumps({**manifest, "labels": "raw.csv"}))
        for argv in (("fit", "--max-iters", "3"), ("baseline",)):
            code, _, err = run(capsys, argv[0], str(raw_manifest), "--k", "3", *argv[1:])
            assert code == 0, err
        sweep = ("--k", "3", "--ranks", "4,6", "--max-iters", "3")
        code, raw_out, err = run(capsys, "sweep", str(raw_manifest), *sweep)
        assert code == 0, err
        code, dense_out, _ = run(capsys, "sweep", str(small_dataset / "manifest.json"), *sweep)
        assert code == 0
        assert "ACC" in raw_out and raw_out == dense_out

    def test_eval_rejects_fractional_report_labels(self, tmp_path, capsys):
        # casting to int would truncate these to 0 1 1 0 and score ACC 1
        report = tmp_path / "report.json"
        report.write_text(json.dumps({"labels": [0.9, 1.2, 1.7, 0.1], "n_clusters": 2}))
        labels = tmp_path / "y.csv"
        labels.write_text("0\n1\n1\n0\n")
        code, out, err = run(capsys, "eval", str(report), str(labels))
        assert code == 1
        assert "ACC" not in out
        assert f"{report}: labels must be integers" in err

    @pytest.mark.parametrize("count", ["2.7", '"2"', "true", "1e400", "0"])
    def test_eval_rejects_a_bad_cluster_count(self, tmp_path, capsys, count):
        # a fraction used to be truncated and scored, true read as 1, and
        # 1e400 (infinite once parsed) crashed the cast to int
        report = tmp_path / "report.json"
        report.write_text(f'{{"labels": [0, 1, 1, 0], "n_clusters": {count}}}')
        labels = tmp_path / "y.csv"
        labels.write_text("0\n1\n1\n0\n")
        code, out, err = run(capsys, "eval", str(report), str(labels))
        assert code == 1
        assert "ACC" not in out
        assert f"{report}: n_clusters must be a positive integer" in err

    @pytest.mark.parametrize("label,message", [
        ("18446744073709551616", "labels must lie within the int64 range"),
        ("1e19", "labels must lie within the int64 range"),
        ("true", "labels must be integers, not booleans"),
        # in int64 but past the report's own cluster count
        ("5", "labels must be below n_clusters = 2, got 5"),
    ])
    def test_eval_rejects_report_labels_outside_int64(self, tmp_path, capsys, label, message):
        report = tmp_path / "report.json"
        report.write_text(f'{{"labels": [0, 1, {label}, 0], "n_clusters": 2}}')
        labels = tmp_path / "y.csv"
        labels.write_text("0\n1\n1\n0\n")
        code, out, err = run(capsys, "eval", str(report), str(labels))
        assert code == 1
        assert "ACC" not in out and "Traceback" not in err
        assert f"{report}: {message}" in err


class TestInputFiles:
    @pytest.mark.parametrize("kind", ["view", "labels", "manifest", "report"])
    def test_file_that_is_not_utf8_is_named(self, tmp_path, capsys, kind):
        files = {
            "view": tmp_path / "v.csv",
            "labels": tmp_path / "y.csv",
            "manifest": tmp_path / "m.json",
            "report": tmp_path / "r.json",
        }
        files["view"].write_text("1,2,3,4\n4,3,2,1\n")
        files["labels"].write_text("0\n1\n1\n0\n")
        files["manifest"].write_text(json.dumps({"views": ["v.csv"], "labels": "y.csv"}))
        files["report"].write_text(json.dumps({"labels": [0, 1, 1, 0], "n_clusters": 2}))
        bad = files[kind]
        bad.write_bytes(bad.read_bytes()[:5] + b"\xff" + bad.read_bytes()[5:])
        if kind == "report":
            argv = ["eval", str(files["report"]), str(files["labels"])]
        else:
            argv = ["baseline", str(files["manifest"]), "--k", "2"]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == f"error: {bad}: not UTF-8 text (invalid start byte)\n"


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

    @pytest.mark.parametrize("command,flag,value", [
        # the baseline cases keep their flag-value ids
        *(pytest.param("baseline", flag, value, id=f"{flag}-{value}") for flag, value in [
            ("--max-iters", "5"), ("--tol", "1e-6"), ("--cg-tol", "1e-8"),
            ("--cg-max-iters", "5"), ("--irls-epsilon", "1e-12"), ("--init-scale", "0.1"),
        ]),
        ("fit", "--irls-epsilon", "1e-12"), ("fit", "--init-scale", "0.1"),
        ("sweep", "--irls-epsilon", "1e-12"), ("sweep", "--init-scale", "0.1"),
    ])
    def test_baseline_rejects_solver_controls(self, small_dataset, capsys, command, flag, value):
        # the baseline has no loop and no CG, so it takes no solver controls;
        # the row-norm floor and the initial draw width are solver constants,
        # so no command takes them
        code, _, err = run(
            capsys, command, str(small_dataset / "manifest.json"), "--k", "3", flag, value,
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
        assert len(lines) == 15
        assert all(line.startswith("PASS ") for line in lines[:-1])
        assert lines[-1] == "all 14 checks passed"
