"""Multi-view dataset ingestion, validation, normalization, and bias augmentation.

A dataset is a list of per-view feature matrices (features x instances) over the
same set of instances, optionally with ground-truth cluster labels.  Views are
stored dense, float64, and read-only once constructed.
"""

from __future__ import annotations

import itertools
import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "DataError",
    "MultiViewDataset",
    "AugmentedViews",
    "load_dataset",
    "normalize_views",
    "augment",
]


class DataError(ValueError):
    """Raised when a dataset file or matrix violates the input contract."""


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _as_labels(values) -> np.ndarray:
    """Class IDs as a read-only int64 vector: non-empty, 1-d, integer-valued,
    within the int64 range and non-negative.  Booleans and strings are not
    IDs.  IDs need not be contiguous, since the metrics work over the IDs that
    occur."""
    try:
        labels = np.asarray(values)
    except ValueError:
        # numpy refuses a ragged nested list, which has no shape
        raise DataError("labels must be a non-empty vector, got a ragged nested list") from None
    if labels.ndim != 1 or labels.size < 1:
        raise DataError(f"labels must be a non-empty vector, got shape {labels.shape}")
    kind = labels.dtype.kind
    # numpy types a list that mixes booleans with integers as integers
    if kind == "b" or (
        not isinstance(values, np.ndarray) and any(isinstance(v, bool) for v in values)
    ):
        raise DataError("labels must be integers, not booleans")
    if kind == "O" and all(isinstance(v, int) for v in labels):
        # numpy leaves Python integers untyped only when 64 bits cannot hold them
        raise DataError("labels must lie within the int64 range")
    if kind not in "iuf":
        raise DataError("labels must be integers")
    if kind == "f":
        if not np.all(np.isfinite(labels)):
            raise DataError("labels must be finite")
        if not np.all(labels == np.floor(labels)):
            raise DataError("labels must be integers")
        # 2**63 is the least float above the int64 range
        if labels.min() < -(2.0**63) or labels.max() >= 2.0**63:
            raise DataError("labels must lie within the int64 range")
    elif kind == "u" and labels.max() > np.iinfo(np.int64).max:
        raise DataError("labels must lie within the int64 range")
    labels = labels.astype(np.int64)
    if labels.min() < 0:
        raise DataError("labels must be non-negative")
    return _freeze(labels)


def _as_count(value, name: str) -> int:
    """A positive count read from parsed JSON: an integer, or a float with an
    integer value.  Booleans, strings and non-finite numbers are not counts."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DataError(f"{name} must be a positive integer, got {value!r}")
    if isinstance(value, float) and not (math.isfinite(value) and value == math.floor(value)):
        raise DataError(f"{name} must be a positive integer, got {value!r}")
    if value < 1:
        raise DataError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class MultiViewDataset:
    """Feature matrices of one instance set observed through several views.

    Parameters
    ----------
    views : sequence of ndarray
        View ``v`` has shape ``(D_v, N)``: one row per feature, one column per
        instance.  All views must agree on ``N`` and contain only finite values.
    labels : ndarray, optional
        Length-``N`` non-negative integer class IDs; they need not be
        contiguous.
    """

    views: tuple[np.ndarray, ...]
    labels: np.ndarray | None = None

    def __post_init__(self):
        views = tuple(np.ascontiguousarray(v, dtype=np.float64) for v in self.views)
        if len(views) == 0:
            raise DataError("dataset needs at least one view")
        for i, v in enumerate(views):
            if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
                raise DataError(
                    f"view {i} must be a non-empty 2-d matrix, got shape {v.shape}"
                )
        n = views[0].shape[1]
        for i, v in enumerate(views):
            if v.shape[1] != n:
                raise DataError(
                    f"column count mismatch: view 0 has {n} instances, "
                    f"view {i} has {v.shape[1]}"
                )
            if not np.all(np.isfinite(v)):
                raise DataError(f"view {i} contains non-finite entries")
        object.__setattr__(self, "views", tuple(_freeze(v) for v in views))

        if self.labels is not None:
            labels = _as_labels(self.labels)
            if labels.size != n:
                raise DataError(
                    f"labels must be a length-{n} vector, got shape {labels.shape}"
                )
            object.__setattr__(self, "labels", labels)

    @property
    def n_views(self) -> int:
        return len(self.views)

    @property
    def n_instances(self) -> int:
        return self.views[0].shape[1]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(v.shape[0] for v in self.views)


@dataclass(frozen=True)
class AugmentedViews:
    """Views with a constant all-ones feature appended as the last row.

    The constant feature lets a multiplicative model across views express every
    lower-order interaction (including purely linear terms) through the weight
    rows paired with it.
    """

    z_views: tuple[np.ndarray, ...]

    def __post_init__(self):
        z_views = tuple(np.ascontiguousarray(z, dtype=np.float64) for z in self.z_views)
        if len(z_views) == 0:
            raise DataError("need at least one augmented view")
        n = z_views[0].shape[1]
        for i, z in enumerate(z_views):
            if z.ndim != 2 or z.shape[0] < 2 or z.shape[1] != n:
                raise DataError(f"augmented view {i} has inconsistent shape {z.shape}")
            if not np.all(z[-1] == 1.0):
                raise DataError(f"augmented view {i}: last row must be all ones")
            if not np.all(np.isfinite(z)):
                raise DataError(f"augmented view {i} contains non-finite entries")
        object.__setattr__(self, "z_views", tuple(_freeze(z) for z in z_views))

    @property
    def n_views(self) -> int:
        return len(self.z_views)

    @property
    def n_instances(self) -> int:
        return self.z_views[0].shape[1]


def _not_utf8(path: Path, exc: UnicodeDecodeError) -> DataError:
    return DataError(f"{path}: not UTF-8 text ({exc.reason})")


def _read_text(path: Path, kind: str) -> str:
    """The whole of a small UTF-8 text file; a missing file or one that is not
    UTF-8 raises a DataError that names it."""
    if not path.is_file():
        raise DataError(f"{kind} not found: {path}")
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None


def _read_json(path: Path, kind: str):
    """The value of a small UTF-8 JSON file.  Any parse failure, Python's
    limits on integer digits and on nesting depth included, raises a
    DataError that names it."""
    text = _read_text(path, kind)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise DataError(f"{path}: invalid {kind} JSON ({exc})") from None


def _parse_rows(lines) -> np.ndarray:
    """Whitespace-separated numbers from an iterable of text lines, one
    matrix row per non-blank line, read by numpy's C reader; raises
    ValueError on a non-numeric field or a ragged row.  ``#`` is an ordinary
    (non-numeric) token, not a comment."""
    return np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2)


def _locate_fault(path: Path) -> DataError | None:
    """The first non-numeric field or ragged row of a matrix file, judging
    each line by the reader that rejected the whole file."""
    width = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.replace(",", " ")
            tokens = line.split()
            if not tokens:
                continue
            try:
                row = _parse_rows([line])
            except ValueError:
                for col, tok in enumerate(tokens, start=1):
                    try:
                        _parse_rows([tok])
                    except ValueError:
                        return DataError(
                            f"{path}:{lineno}: non-numeric token {tok!r} in field {col}"
                        )
                return None
            if width is None:
                width = row.shape[1]
            elif row.shape[1] != width:
                return DataError(
                    f"{path}:{lineno}: ragged row ({row.shape[1]} fields, expected {width})"
                )
    return None


def _read_matrix(path: Path) -> np.ndarray:
    """Parse a delimited text matrix: one feature per line, comma- or
    whitespace-separated numeric fields, one field per instance.  Blank lines
    and empty fields (``1,,2``) are skipped."""
    if not path.is_file():
        raise DataError(f"matrix file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        # one line in memory at a time; the first non-blank one is peeked at
        # to tell an empty file from a parse failure
        lines = (line.replace(",", " ") for line in fh)
        try:
            first = next((line for line in lines if not line.isspace()), None)
            mat = None if first is None else _parse_rows(itertools.chain((first,), lines))
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from None
        except ValueError as exc:
            raise (_locate_fault(path) or DataError(f"{path}: {exc}")) from None
    if mat is None:
        raise DataError(f"{path}: empty matrix file")
    if not np.all(np.isfinite(mat)):
        raise DataError(f"{path}: matrix contains a non-finite value")
    return mat


def _parse_labels(lines) -> np.ndarray:
    """One integer per non-blank line, read by numpy's C reader; raises
    ValueError on any other line, including one with two fields."""
    # numpy's integer reader can crash the process on a code point far outside
    # ASCII (seen on numpy 2.4 from U+30000 up), and only whitespace outside
    # ASCII may stand in a label line, so no other such character reaches it
    if not all(map(str.isascii, lines)) and any(
        not (c.isascii() or c.isspace()) for line in lines for c in line
    ):
        raise ValueError("non-ASCII character in a label line")
    with warnings.catch_warnings():
        # numpy releases that read '1.0' as the integer 1 warn that this is
        # deprecated instead of rejecting it; reject it on every release
        warnings.simplefilter("error", DeprecationWarning)
        try:
            labels = np.loadtxt(lines, dtype=np.int64, comments=None, ndmin=2)
        except DeprecationWarning as exc:
            raise ValueError(str(exc)) from None
    if labels.shape[1] != 1:
        raise ValueError(f"{labels.shape[1]} fields per line")
    return labels[:, 0]


def _read_labels(path: Path, n: int) -> np.ndarray:
    text = _read_text(path, "labels file")
    labels = np.empty(0, dtype=np.int64)
    # the reader warns on input without data; an all-blank file holds no labels
    if text.strip():
        lines = text.split("\n")
        try:
            labels = _parse_labels(lines)
        except ValueError as exc:
            # rescan line by line to name the first rejected line
            for lineno, line in enumerate(lines, start=1):
                tok = line.strip()
                if tok:
                    try:
                        _parse_labels([line])
                    except ValueError:
                        raise DataError(
                            f"{path}:{lineno}: non-integer label {tok!r}"
                        ) from None
            raise DataError(f"{path}: {exc}") from None
    if labels.size != n:
        raise DataError(f"{path}: expected {n} labels, found {labels.size}")
    try:
        return _as_labels(labels)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def load_dataset(manifest_path: str | Path) -> MultiViewDataset:
    """Load a dataset described by a JSON manifest.

    The manifest is an object ``{"views": [...], "labels": ...}`` where
    ``views`` lists per-view matrix files and ``labels`` (optional) names a
    file with one integer per instance; other keys are ignored.  Relative
    paths are resolved against the manifest's directory.
    """
    path = Path(manifest_path)
    manifest = _read_json(path, "manifest")
    if not isinstance(manifest, dict) or not isinstance(manifest.get("views"), list):
        raise DataError(f"{path}: manifest must be an object with a 'views' list")
    view_paths = manifest["views"]
    if not view_paths:
        raise DataError(f"{path}: manifest lists no views")
    # an empty name would resolve to the manifest's directory
    if not all(isinstance(p, str) and p for p in view_paths):
        raise DataError(f"{path}: every 'views' entry must be a file name string")
    labels_file = manifest.get("labels")
    if labels_file is not None and not (isinstance(labels_file, str) and labels_file):
        raise DataError(f"{path}: 'labels' must be a file name string")

    base = path.parent
    views = [_read_matrix(base / p) for p in view_paths]
    n = views[0].shape[1]
    for p, v in zip(view_paths, views):
        if v.shape[1] != n:
            raise DataError(
                f"{path}: column count mismatch: {view_paths[0]} has {n} columns, "
                f"{p} has {v.shape[1]}"
            )

    labels = None if labels_file is None else _read_labels(base / labels_file, n)
    return MultiViewDataset(tuple(views), labels=labels)


def _write_dataset(dataset: MultiViewDataset, out_dir: Path) -> None:
    """Write a labelled ``dataset`` into ``out_dir`` as ``load_dataset``
    reads it: ``view1.csv``, ``view2.csv``, ... with one feature per line,
    ``labels.csv`` with one ID per line, and ``manifest.json`` naming them.
    Values are written by ``repr``, so they read back bit for bit."""
    out_dir.mkdir(parents=True, exist_ok=True)
    view_files = [f"view{i}.csv" for i in range(1, dataset.n_views + 1)]
    for name, view in zip(view_files, dataset.views):
        with open(out_dir / name, "w", encoding="utf-8") as fh:
            # one row of Python floats in memory at a time
            for row in view:
                fh.write(",".join(map(repr, row.tolist())) + "\n")
    (out_dir / "labels.csv").write_text(
        "".join(f"{v}\n" for v in dataset.labels.tolist()), encoding="utf-8"
    )
    manifest = {"views": view_files, "labels": "labels.csv"}
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _scale_views_into(views, blocks) -> None:
    """Write each of ``views`` divided by its Frobenius norm into the block of
    the same index and shape that the caller provides, such as a row block of
    a larger working buffer.  The block first holds the squared entries that
    the norm is summed from, so no scratch array of a view's size is made.
    An all-zero view cannot be scaled and is rejected."""
    for i, (v, out) in enumerate(zip(views, blocks)):
        total = float(np.multiply(v, v, out=out).sum())
        if total == 0.0:
            raise DataError(f"degenerate view {i}: all entries are zero")
        np.divide(v, np.sqrt(total), out=out)


def normalize_views(dataset: MultiViewDataset) -> MultiViewDataset:
    """Scale each view by one scalar so its squared entries sum to one.

    Relative proportions within a view are preserved; labels carry over
    unchanged.  An all-zero view cannot be normalized and is rejected.
    """
    scaled = tuple(np.empty_like(v) for v in dataset.views)
    _scale_views_into(dataset.views, scaled)
    return MultiViewDataset(scaled, labels=dataset.labels)


def augment(dataset: MultiViewDataset) -> AugmentedViews:
    """Append the constant all-ones feature as the last row of every view."""
    n = dataset.n_instances
    return AugmentedViews(
        tuple(np.vstack([v, np.ones((1, n))]) for v in dataset.views)
    )
