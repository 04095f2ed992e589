"""Command-line interface: end-to-end runs, defaults, and failure modes."""

import argparse
import ctypes
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mmclust import cli
from mmclust.cli import cli_main
from mmclust.data import augment, load_dataset, normalize_views
from mmclust.metrics import Partition, accuracy
from mmclust.solver import (
    CGStats, ClusterIndicator, CPWeights, FitConfig, IterationRecord, extract_labels, fit,
    nearest_orthonormal, predict_scores,
)

ROOT = Path(__file__).resolve().parent.parent

# every key of a fit or baseline report; the N x K indicator is not one of them
REPORT_KEYS = {
    "model", "n_clusters", "config", "converged", "n_iterations", "objective",
    "trace", "labels", "view_factors", "cluster_factor", "total_time_sec",
}


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
def one_blas_thread():
    """Pin numpy's bundled OpenBLAS to one thread, and restore it afterwards."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("libscipy_openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for suffix in ("64_", ""):
            get = getattr(handle, f"scipy_openblas_get_num_threads{suffix}", None)
            put = getattr(handle, f"scipy_openblas_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                before = get()
                put(1)
                yield
                put(before)
                return
    pytest.skip(f"no bundled OpenBLAS under {libdir} to pin to one thread")


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

    @pytest.mark.parametrize("sep", ["nan", "inf"])
    def test_non_finite_separation_is_diagnosed(self, tmp_path, capsys, sep):
        # rejected by the spec, not later as a non-finite view
        code, _, err = run(
            capsys,
            "gen", "--n", "10", "--k", "2", "--views", "2", "--dims", "3,3",
            "--sep", sep, "--out", str(tmp_path / "d"),
        )
        assert (code, err) == (1, "error: separation must be finite and non-negative\n")

    @pytest.mark.parametrize("dims", ["5,,4", "5,4,", ",5,4", "5, ,4"])
    def test_stray_comma_in_dims_is_an_error(self, tmp_path, capsys, dims):
        # each field is one integer; an empty one is not skipped
        out = tmp_path / "d"
        code, stdout, err = run(
            capsys,
            "gen", "--n", "10", "--k", "2", "--views", "2", "--dims", dims,
            "--out", str(out),
        )
        assert (code, stdout) == (1, "")
        assert err == f"error: expected a comma-separated integer list, got '{dims}'\n"
        assert not out.exists()

    def test_dims_may_hold_spaces(self, tmp_path, capsys):
        out = tmp_path / "d"
        code, _, err = run(
            capsys,
            "gen", "--n", "10", "--k", "2", "--views", "2", "--dims", " 5, 4",
            "--out", str(out),
        )
        assert code == 0, err
        assert load_dataset(out / "manifest.json").dims == (5, 4)

    def test_matrix_files_round_trip(self, small_dataset, capsys):
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

    def test_report_schema(self, small_dataset, tmp_path, capsys, monkeypatch):
        reports = []

        def capture(*args):
            reports.append(fit(*args))
            return reports[-1]

        monkeypatch.setattr(cli, "fit", capture)
        report_path = tmp_path / "report.json"
        code, _, _ = run(
            capsys,
            "fit", str(small_dataset / "manifest.json"),
            "--k", "3", "--rank", "4", "--max-iters", "3", "--out", str(report_path),
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert set(report) == REPORT_KEYS
        assert len(report["trace"]) == report["n_iterations"]
        # trace and CG entries are their records' fields, by name
        record_fields = {f.name for f in dataclasses.fields(IterationRecord)}
        cg_fields = {f.name for f in dataclasses.fields(CGStats)}
        assert all(set(entry) == record_fields for entry in report["trace"])
        assert all(set(s) == cg_fields for entry in report["trace"] for s in entry["cg"])
        first = report["trace"][0]
        assert len(first["cg"]) == 2  # one CG record per view
        assert len(report["view_factors"]) == 2
        assert len(report["view_factors"][0]) == 6  # D_0 + 1 rows
        assert len(report["cluster_factor"]) == 3
        # without timing, exactly the two wall-clock fields are gone
        untimed = reports[0].to_dict(include_timing=False)
        assert set(untimed) == set(report) - {"total_time_sec"}
        assert all(set(entry) == record_fields - {"elapsed_sec"} for entry in untimed["trace"])
        assert all(set(s) == cg_fields for entry in untimed["trace"] for s in entry["cg"])

    def test_baseline_report_schema(self, small_dataset, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code, _, err = run(
            capsys,
            "baseline", str(small_dataset / "manifest.json"),
            "--k", "3", "--out", str(report_path),
        )
        assert code == 0, err
        report = json.loads(report_path.read_text())
        assert set(report) == REPORT_KEYS
        record_fields = {f.name for f in dataclasses.fields(IterationRecord)}
        assert [set(entry) for entry in report["trace"]] == [record_fields]
        assert report["trace"][0]["cg"] == []  # a closed form runs no CG
        # one concatenated view of D_0 + D_1 + 1 rows, and an identity cluster factor
        assert np.array(report["view_factors"]).shape == (1, 5 + 4 + 1, 3)
        assert report["cluster_factor"] == np.eye(3).tolist()

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

    @pytest.mark.parametrize("command", ["fit", "baseline"])
    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_k_below_one_is_diagnosed(self, tmp_path, capsys, command, k):
        # rejected before the manifest is read, in the same words everywhere
        code, out, err = run(capsys, command, str(tmp_path / "absent.json"), "--k", k)
        assert (code, out, err) == (1, "", f"error: --k must be at least 1, got {k}\n")

    @pytest.mark.parametrize("command", ["gen", "fit", "baseline", "oracle-check"])
    def test_negative_seed_is_diagnosed(self, small_dataset, tmp_path, capsys, command):
        # named by the setting, not by numpy's "expected non-negative integer"
        out = tmp_path / "d"
        if command == "gen":
            argv = ["gen", "--n", "10", "--k", "2", "--views", "1", "--dims", "3", "--out", str(out)]
        elif command == "oracle-check":
            argv = ["oracle-check"]
        else:
            argv = [command, str(small_dataset / "manifest.json"), "--k", "3", "--out", str(out)]
        code, stdout, err = run(capsys, *argv, "--seed", "-1")
        assert (code, stdout, err) == (1, "", "error: seed must be non-negative\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "baseline"])
    def test_all_zero_view_is_diagnosed(self, small_dataset, tmp_path, capsys, command):
        # 5 features of the 60 instances that small_dataset draws, all zero
        (small_dataset / "view1.csv").write_text(("0," * 59 + "0\n") * 5, encoding="utf-8")
        out = tmp_path / "report.json"
        code, stdout, err = run(
            capsys, command, str(small_dataset / "manifest.json"), "--k", "3", "--out", str(out)
        )
        assert (code, stdout, err) == (1, "", "error: degenerate view 0: all entries are zero\n")
        assert not out.exists()

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
        # fit and baseline only check a manifest's labels, so raw IDs pass
        labels = np.loadtxt(small_dataset / "labels.csv", dtype=np.int64)
        (small_dataset / "raw.csv").write_text("".join(f"{[7, 999, 5000][y]}\n" for y in labels))
        manifest = json.loads((small_dataset / "manifest.json").read_text())
        raw_manifest = small_dataset / "raw.json"
        raw_manifest.write_text(json.dumps({**manifest, "labels": "raw.csv"}))
        for argv in (("fit", "--max-iters", "3"), ("baseline",)):
            code, _, err = run(capsys, argv[0], str(raw_manifest), "--k", "3", *argv[1:])
            assert code == 0, err

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
        # a ragged list, which numpy cannot shape; both fields are present
        ("[1, 2]", "labels must be a non-empty vector, got a ragged nested list"),
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

    @pytest.mark.parametrize(
        "kind,where",
        [("view", ":2: non-numeric token "), ("labels", ":2: non-integer label ")],
        ids=["view", "labels"],
    )
    def test_control_characters_in_a_file_are_escaped(self, tmp_path, capsys, kind, where):
        # an ANSI escape sequence in a rejected token must not reach the
        # terminal raw; the error still names the file and line
        files = {"view": tmp_path / "v.csv", "labels": tmp_path / "y.csv"}
        files["view"].write_text("1,2,3,4\n4,3,2,1\n")
        files["labels"].write_text("0\n1\n1\n0\n")
        bad = files[kind]
        lines = bad.read_text().split("\n")
        lines[1] = "\x1b[31mred"
        bad.write_text("\n".join(lines))
        (tmp_path / "m.json").write_text(json.dumps({"views": ["v.csv"], "labels": "y.csv"}))
        code, out, err = run(capsys, "baseline", str(tmp_path / "m.json"), "--k", "2")
        assert code == 1 and out == ""
        assert err.startswith(f"error: {bad}{where}") and err.endswith("\n")
        assert "\\x1b[31mred" in err
        assert all(byte >= 0x20 for byte in err[:-1].encode())

    @pytest.mark.parametrize("kind", ["manifest", "eval"])
    def test_control_characters_in_a_path_are_escaped(self, tmp_path, capsys, kind):
        # a file name from a manifest or from the command line reaches the
        # error line escaped, and still names the file
        name = "v\x1b[31m.csv"
        (tmp_path / "m.json").write_text(json.dumps({"views": [name]}))
        (tmp_path / "r.json").write_text(json.dumps({"labels": [0, 1], "n_clusters": 2}))
        if kind == "manifest":
            argv = ["baseline", str(tmp_path / "m.json"), "--k", "2"]
            message = "matrix file not found"
        else:
            argv = ["eval", str(tmp_path / "r.json"), str(tmp_path / name)]
            message = "labels file not found"
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == f"error: {message}: {tmp_path / 'v'}\\x1b[31m.csv\n"
        assert all(byte >= 0x20 for byte in err[:-1].encode())


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

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fit_report_rebuilds_its_indicator(
        self, small_dataset, tmp_path, capsys, monkeypatch, one_blas_thread, seed
    ):
        # the report holds the model, not the indicator: the serialized
        # factors and the manifest's views give back the in-memory indicator,
        # bit for bit, and its K-means labels
        reports = []

        def capture(*args):
            reports.append(fit(*args))
            return reports[-1]

        monkeypatch.setattr(cli, "fit", capture)
        report_path = tmp_path / "report.json"
        code, _, err = run(
            capsys,
            "fit", str(small_dataset / "manifest.json"),
            "--k", "3", "--rank", "4", "--max-iters", "10", "--seed", str(seed),
            "--out", str(report_path),
        )
        assert code == 0, err
        saved = json.loads(report_path.read_text())
        weights = CPWeights(
            tuple(np.array(f) for f in saved["view_factors"]), np.array(saved["cluster_factor"])
        )
        z = augment(normalize_views(load_dataset(small_dataset / "manifest.json")))
        rebuilt = nearest_orthonormal(predict_scores(z, weights))
        assert np.array_equal(rebuilt, reports[0].indicator.matrix)
        assert extract_labels(ClusterIndicator(rebuilt), seed=seed).tolist() == saved["labels"]


class TestArgumentErrors:
    def test_unknown_flag_exits_nonzero(self, capsys):
        code = cli_main(["fit", "x.json", "--k", "2", "--bogus"])
        capsys.readouterr()
        assert code == 2

    def test_unknown_command_exits_nonzero(self, capsys):
        # ``sweep`` picked a rank by NMI against ground truth and is retired
        for command in ("frobnicate", "sweep"):
            code = cli_main([command, "data/manifest.json", "--k", "3"])
            _, err = capsys.readouterr()
            assert code == 2
            assert f"invalid choice: '{command}'" in err

    def test_no_command_exits_nonzero(self, capsys):
        code = cli_main([])
        capsys.readouterr()
        assert code == 2


def run_with_log_level(level, *argv):
    """Run the CLI in a fresh interpreter, where ``logging.basicConfig`` still
    installs its handler, with ``MMCLUST_LOG`` set to ``level``."""
    env = {**os.environ, "MMCLUST_LOG": level}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "mmclust.cli", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )


class TestLogLevel:
    def test_debug_logs_every_iteration(self, small_dataset):
        proc = run_with_log_level(
            "debug", "fit", str(small_dataset / "manifest.json"), "--k", "3", "--rank", "4",
            "--max-iters", "3",
        )
        assert proc.returncode == 0, proc.stderr
        n_iterations = int(re.search(r"iterations=(\d+)", proc.stdout).group(1))
        line = re.compile(
            r"DEBUG mmclust\.solver: iteration (\d+): objective=\S+ fit=\S+ reg=\S+ "
            r"cg_steps=\d+ cg_worst_residual=\S+"
        )
        seen = [int(m.group(1)) for m in map(line.fullmatch, proc.stderr.splitlines()) if m]
        assert seen == list(range(1, n_iterations + 1))

    @pytest.mark.parametrize("level", ["verbose", "notset"])
    def test_unknown_level_warns_and_reads_as_warning(self, small_dataset, level):
        # "verbose" used to be read silently as warning, and "notset" as level 0
        proc = run_with_log_level(
            level, "fit", str(small_dataset / "manifest.json"), "--k", "3", "--max-iters", "2",
        )
        assert proc.returncode == 0
        assert proc.stderr == (
            f"warning: MMCLUST_LOG='{level}' is not one of debug, info, warning, error, "
            "critical; using warning\n"
        )


class TestReadme:
    def test_usage_block_names_every_command(self):
        # a retired or added command cannot leave the README's usage block stale
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        documented = {line.split()[1] for line in readme.splitlines() if line.startswith("mmclust ")}
        (commands,) = [
            a.choices for a in cli._build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        ]
        assert documented == set(commands)


class TestOracleCheckCommand:
    def test_all_checks_pass(self, capsys):
        code, stdout, _ = run(capsys, "oracle-check", "--seed", "3")
        assert code == 0
        lines = stdout.splitlines()
        assert len(lines) == 15
        assert all(line.startswith("PASS ") for line in lines[:-1])
        assert lines[-1] == "all 14 checks passed"
