"""Dataset ingestion, normalization, and augmentation behavior."""

import json
import warnings

import numpy as np
import pytest

from mmclust.data import (
    AugmentedViews,
    DataError,
    MultiViewDataset,
    augment,
    load_dataset,
    normalize_views,
)


def write_dataset(tmp_path, views, labels=None, sep=","):
    view_files = []
    for i, view in enumerate(views):
        name = f"view{i}.csv"
        lines = [sep.join(repr(float(x)) for x in row) for row in view]
        (tmp_path / name).write_text("\n".join(lines) + "\n")
        view_files.append(name)
    manifest = {"views": view_files}
    if labels is not None:
        (tmp_path / "labels.csv").write_text("\n".join(str(v) for v in labels) + "\n")
        manifest["labels"] = "labels.csv"
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    return path


class TestLoadDataset:
    def test_round_trip_two_views(self, tmp_path):
        v0 = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
        v1 = [[0.5, -1.0, 2.5], [7.0, 8.0, 9.0]]
        path = write_dataset(tmp_path, [v0, v1])
        ds = load_dataset(path)
        assert ds.n_views == 2
        assert ds.n_instances == 3
        assert ds.dims == (2, 2)
        assert ds.labels is None
        np.testing.assert_array_equal(ds.views[0], np.array(v0))
        np.testing.assert_array_equal(ds.views[1], np.array(v1))

    def test_whitespace_separated_matrix(self, tmp_path):
        path = write_dataset(tmp_path, [[[1.0, 2.0], [3.0, 4.0]]], sep=" ")
        ds = load_dataset(path)
        np.testing.assert_array_equal(ds.views[0], [[1.0, 2.0], [3.0, 4.0]])

    def test_labels_round_trip(self, tmp_path):
        path = write_dataset(tmp_path, [[[1.0, 2.0, 3.0]]], labels=[0, 1, 0])
        ds = load_dataset(path)
        np.testing.assert_array_equal(ds.labels, [0, 1, 0])

    def test_unknown_manifest_keys_ignored(self, tmp_path):
        # manifests written before view names were dropped still load
        path = write_dataset(tmp_path, [[[1.0]], [[2.0]]])
        manifest = json.loads(path.read_text())
        manifest["names"] = ["text", 2]
        path.write_text(json.dumps(manifest))
        assert load_dataset(path).n_views == 2

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("views", [1, 2], "'views' entry"),
            ("labels", 5, "'labels'"),
        ],
    )
    def test_manifest_field_types(self, tmp_path, field, value, message):
        # a wrong JSON type gets a one-line diagnostic, not a TypeError from
        # path handling
        path = write_dataset(tmp_path, [[[1.0, 2.0]], [[3.0, 4.0]]])
        manifest = json.loads(path.read_text())
        manifest[field] = value
        path.write_text(json.dumps(manifest))
        with pytest.raises(DataError, match=message):
            load_dataset(path)

    def test_column_count_mismatch(self, tmp_path):
        path = write_dataset(tmp_path, [[[1.0, 2.0, 3.0]], [[1.0, 2.0, 3.0, 4.0]]])
        with pytest.raises(DataError, match="column count mismatch"):
            load_dataset(path)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError, match="manifest not found"):
            load_dataset(tmp_path / "nope.json")

    def test_missing_view_file(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"views": ["absent.csv"]}))
        with pytest.raises(DataError, match="absent.csv"):
            load_dataset(path)

    def test_ragged_row_names_file_and_line(self, tmp_path):
        (tmp_path / "bad.csv").write_text("1,2,3\n4,5\n")
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"views": ["bad.csv"]}))
        with pytest.raises(DataError, match=r"bad\.csv:2: ragged row"):
            load_dataset(path)

    def test_non_numeric_token_names_location(self, tmp_path):
        (tmp_path / "bad.csv").write_text("1,2\n3,oops\n")
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"views": ["bad.csv"]}))
        with pytest.raises(DataError, match=r"bad\.csv:2: non-numeric token 'oops'"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "text",
        [
            "1,2\t3\n4 5,6\n",
            "1, 2 ,\t3\n 4\t,5,, 6\n",
            "1,,2,3\n4,5,,6\n",
            "\n1 2 3\n\n  \n4 5 6\n\n",
        ],
        ids=["mixed-separators", "padded-separators", "empty-fields", "blank-lines"],
    )
    def test_separator_variants_read_alike(self, tmp_path, text):
        (tmp_path / "v.csv").write_text(text)
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"views": ["v.csv"]}))
        np.testing.assert_array_equal(load_dataset(path).views[0], [[1, 2, 3], [4, 5, 6]])

    @pytest.mark.parametrize(
        "text,message",
        [
            ("1,2\n\n3,# note\n", r"v\.csv:3: non-numeric token '#' in field 2"),
            ("1 2\n3 1_0\n", r"v\.csv:2: non-numeric token '1_0' in field 2"),
            ("1 2\n3 4\n5,6,7\n", r"v\.csv:3: ragged row \(3 fields, expected 2\)"),
        ],
        ids=["comment-marker", "digit-separator", "ragged-after-valid"],
    )
    def test_rejected_line_is_located(self, tmp_path, text, message):
        # '#' is no comment marker, and a digit separator is no digit
        (tmp_path / "v.csv").write_text(text)
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"views": ["v.csv"]}))
        with pytest.raises(DataError, match=message):
            load_dataset(path)

    def test_nan_rejected(self, tmp_path):
        (tmp_path / "bad.csv").write_text("1,nan\n")
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"views": ["bad.csv"]}))
        with pytest.raises(DataError, match="non-finite"):
            load_dataset(path)

    def test_label_count_mismatch(self, tmp_path):
        path = write_dataset(tmp_path, [[[1.0, 2.0, 3.0]]], labels=[0, 1])
        with pytest.raises(DataError, match="expected 3 labels"):
            load_dataset(path)

    def test_blank_label_lines_skipped(self, tmp_path):
        path = write_dataset(tmp_path, [[[1.0, 2.0, 3.0]]])
        (tmp_path / "labels.csv").write_text("0\n\n 1 \n\t\n0")
        path.write_text(json.dumps({"views": ["view0.csv"], "labels": "labels.csv"}))
        np.testing.assert_array_equal(load_dataset(path).labels, [0, 1, 0])

    @pytest.mark.parametrize(
        "text,message",
        [
            ("0\n1 2\n0\n", r"labels\.csv:2: non-integer label '1 2'"),
            ("0\n1\n\n1.0\n", r"labels\.csv:4: non-integer label '1\.0'"),
            ("1_0\n0\n1\n", r"labels\.csv:1: non-integer label '1_0'"),
            ("0\n1\n# note\n", r"labels\.csv:3: non-integer label '# note'"),
            # numpy's integer reader can crash on this code point
            ("0\n\U000f0000\n1\n", r"labels\.csv:2: non-integer label '\U000f0000'"),
            ("0\n-1\n0\n", r"labels\.csv: labels must be non-negative"),
        ],
        ids=[
            "two-fields", "decimal-point", "digit-separator", "comment-marker", "plane-15",
            "negative",
        ],
    )
    def test_rejected_label_line_is_located(self, tmp_path, text, message):
        # one field per line; '#' is no comment marker, and a digit separator
        # is no digit; a negative ID is rejected for the whole file
        path = write_dataset(tmp_path, [[[1.0, 2.0, 3.0]]])
        (tmp_path / "labels.csv").write_text(text)
        path.write_text(json.dumps({"views": ["view0.csv"], "labels": "labels.csv"}))
        with pytest.raises(DataError, match=message):
            load_dataset(path)

    def test_whitespace_outside_ascii_pads_a_label(self, tmp_path):
        path = write_dataset(tmp_path, [[[1.0, 2.0, 3.0]]])
        (tmp_path / "labels.csv").write_text("0\n\u00a01\u3000\n0\n")
        path.write_text(json.dumps({"views": ["view0.csv"], "labels": "labels.csv"}))
        np.testing.assert_array_equal(load_dataset(path).labels, [0, 1, 0])

    def test_label_read_via_float_is_rejected(self, tmp_path, monkeypatch):
        # numpy releases from 1.23 on read '1.0' as the integer 1 with a
        # DeprecationWarning; emulate them, and expect the line rejected
        real_loadtxt = np.loadtxt

        def loadtxt(lines, dtype, **kwargs):
            lines = list(lines)
            if dtype is np.int64 and any(".0" in line for line in lines):
                warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                              DeprecationWarning, stacklevel=2)
                lines = [line.replace(".0", "") for line in lines]
            return real_loadtxt(lines, dtype=dtype, **kwargs)

        monkeypatch.setattr(np, "loadtxt", loadtxt)
        path = write_dataset(tmp_path, [[[1.0, 2.0, 3.0]]])
        (tmp_path / "labels.csv").write_text("0\n1.0\n1\n")
        path.write_text(json.dumps({"views": ["view0.csv"], "labels": "labels.csv"}))
        with pytest.raises(DataError, match=r"labels\.csv:2: non-integer label '1\.0'"):
            load_dataset(path)

    def test_invalid_manifest_json(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{not json")
        with pytest.raises(DataError, match="invalid manifest JSON"):
            load_dataset(path)

    def test_empty_matrix_file_rejected(self, tmp_path):
        (tmp_path / "v.csv").write_text("\n\n")
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"views": ["v.csv"]}))
        with pytest.raises(DataError, match="empty matrix file"):
            load_dataset(path)


class TestDatasetValidation:
    def test_negative_labels_rejected(self):
        with pytest.raises(DataError, match="non-negative"):
            MultiViewDataset((np.ones((2, 3)),), labels=np.array([0, -1, 1]))

    def test_non_contiguous_labels_kept(self):
        # the metrics score the IDs that occur, so gaps are not an error
        ds = MultiViewDataset((np.ones((2, 3)),), labels=np.array([7, 999, 7]))
        np.testing.assert_array_equal(ds.labels, [7, 999, 7])
        assert ds.labels.dtype == np.int64 and not ds.labels.flags.writeable

    @pytest.mark.parametrize("labels,message", [
        ([True, False, True], "not booleans"),
        ([1, True, 0], "not booleans"),
        (np.array([0.0, np.inf, 1.0]), "finite"),
        (np.array([0.0, np.nan, 1.0]), "finite"),
        ([0, 2**64, 1], "int64 range"),
        ([0, 1e19, 1], "int64 range"),
        ([0, -(2.0**64), 1], "int64 range"),
        (np.array([0, 2**63, 1], dtype=np.uint64), "int64 range"),
        (["0", "1", "1"], "must be integers"),
    ])
    def test_labels_rejected_before_the_int64_cast(self, labels, message):
        with warnings.catch_warnings():
            # the cast used to warn "invalid value encountered in cast"
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=message):
                MultiViewDataset((np.ones((2, 3)),), labels=labels)

    def test_labels_at_the_int64_limit_kept(self):
        top = np.iinfo(np.int64).max
        ds = MultiViewDataset((np.ones((2, 3)),), labels=[0, top, 1])
        np.testing.assert_array_equal(ds.labels, [0, top, 1])

    def test_empty_view_rejected(self):
        with pytest.raises(DataError):
            MultiViewDataset((np.empty((0, 3)),))

    def test_views_are_read_only(self):
        ds = MultiViewDataset((np.ones((2, 3)),))
        with pytest.raises(ValueError):
            ds.views[0][0, 0] = 5.0


class TestNormalizeViews:
    def test_three_four_five_scaling(self):
        ds = MultiViewDataset((np.array([[3.0, 4.0]]),))
        out = normalize_views(ds)
        np.testing.assert_allclose(out.views[0], [[0.6, 0.8]], atol=1e-15)

    def test_idempotent(self):
        rng = np.random.default_rng(42)
        ds = MultiViewDataset((rng.standard_normal((4, 6)),))
        once = normalize_views(ds)
        twice = normalize_views(once)
        np.testing.assert_allclose(twice.views[0], once.views[0], atol=1e-12)

    def test_each_view_scaled_independently_unit_energy(self):
        # direct summation oracle: total squared energy of each view is one
        rng = np.random.default_rng(7)
        ds = MultiViewDataset(
            (100.0 * rng.standard_normal((3, 5)), 1e-3 * rng.standard_normal((6, 5)))
        )
        out = normalize_views(ds)
        for view in out.views:
            total = sum(float(x) ** 2 for row in view for x in row)
            assert abs(total - 1.0) < 1e-12

    def test_proportions_preserved(self):
        rng = np.random.default_rng(3)
        v = rng.standard_normal((4, 7))
        out = normalize_views(MultiViewDataset((v,)))
        ratio = out.views[0] / v
        np.testing.assert_allclose(ratio, ratio.flat[0], rtol=1e-12)

    def test_degenerate_view_rejected(self):
        with pytest.raises(DataError, match="degenerate view"):
            normalize_views(MultiViewDataset((np.zeros((2, 3)),)))

    def test_labels_carry_over(self):
        ds = MultiViewDataset((np.ones((2, 2)),), labels=np.array([0, 1]))
        out = normalize_views(ds)
        np.testing.assert_array_equal(out.labels, [0, 1])


class TestAugment:
    def test_single_column_definition(self):
        ds = MultiViewDataset((np.array([[2.0], [5.0]]),))
        z = augment(ds)
        np.testing.assert_array_equal(z.z_views[0], [[2.0], [5.0], [1.0]])

    def test_rows_copied_and_ones_appended(self):
        # elementwise comparison oracle on a random view
        rng = np.random.default_rng(11)
        v = rng.standard_normal((3, 4))
        z = augment(MultiViewDataset((v,))).z_views[0]
        assert z.shape == (4, 4)
        np.testing.assert_array_equal(z[:3], v)
        np.testing.assert_array_equal(z[3], np.ones(4))

    def test_drop_last_row_recovers_view(self):
        rng = np.random.default_rng(5)
        ds = MultiViewDataset((rng.standard_normal((2, 6)), rng.standard_normal((5, 6))))
        normalized = normalize_views(ds)
        z = augment(normalized)
        for zv, v in zip(z.z_views, normalized.views):
            np.testing.assert_array_equal(zv[:-1], v)

    def test_last_row_must_be_ones(self):
        with pytest.raises(DataError, match="last row"):
            AugmentedViews((np.array([[1.0, 2.0], [0.5, 1.0]]),))

    def test_pipeline_deterministic(self):
        rng = np.random.default_rng(9)
        raw = rng.standard_normal((3, 5))
        a = augment(normalize_views(MultiViewDataset((raw.copy(),))))
        b = augment(normalize_views(MultiViewDataset((raw.copy(),))))
        assert np.array_equal(a.z_views[0], b.z_views[0])
