"""Property tests: a budgeted fit descends monotonically and keeps its budget,
the matrix-free operator is bit for bit its defining expression, K-means
assignment breaks distance ties as ``argmin`` does, the label matcher
attains the assignment optimum that scipy computes independently, and the
CLI keeps its input contract on fuzzed reports, labels files and manifests."""

import io
import json
import pathlib
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from mmclust.cli import cli_main
from mmclust.data import MultiViewDataset
from mmclust.metrics import _max_weight_matching
from mmclust.solver import VIEW_CG_STEPS, FitConfig, _first_argmin, apply_H, fit

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@hypothesis.settings(max_examples=30, deadline=None, derandomize=True)
@hypothesis.given(
    data_seed=st.integers(0, 2**32 - 1),
    dims=st.lists(st.integers(1, 5), min_size=1, max_size=3),
    n=st.integers(4, 30),
    k=st.integers(1, 4),
    rank=st.integers(1, 4),
    gamma=st.sampled_from([0.0, 1e-3, 1e-2, 0.1]),
    cg_max_iters=st.integers(1, 12),
    max_outer_iters=st.integers(1, 8),
)
def test_budgeted_fit_descends_within_budget(
    data_seed, dims, n, k, rank, gamma, cg_max_iters, max_outer_iters
):
    rng = np.random.default_rng(data_seed)
    dataset = MultiViewDataset(tuple(rng.standard_normal((d, n)) for d in dims))
    config = FitConfig(
        rank=rank, gamma=gamma, max_outer_iters=max_outer_iters,
        cg_max_iters=cg_max_iters, seed=data_seed,
    )
    report = fit(dataset, min(k, n), config)
    objs = report.objectives
    # criterion 4's relative slack, plus roundoff at the scale of the fit term
    # (the indicator's squared norm K): with gamma=0 and as many parameters as
    # instances the fit reaches roundoff, where the objective moves by noise
    # under exact view solves as well
    assert np.all(np.diff(objs) <= 1e-9 * objs[:-1] + 1e-12 * report.n_clusters)
    # view updates keep the step budget, except in an iteration that follows
    # a stall, which solves them in full to confirm the stop
    stalled = np.abs(np.diff(objs)) / np.maximum(objs[:-1], 1e-30) < config.outer_tol
    for i, rec in enumerate(report.trace):
        full = i >= 2 and stalled[i - 2]
        limit = cg_max_iters if full else min(cg_max_iters, VIEW_CG_STEPS)
        assert all(s.iterations <= limit for s in rec.cg)


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
@hypothesis.given(
    m=st.integers(1, 8),
    n=st.integers(1, 40),
    r=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    gamma=st.sampled_from([0.0, 1e-3, 0.37, 2.0]),
)
def test_apply_H_is_its_defining_expression(m, n, r, seed, gamma):
    # in-place intermediates and a column-major result buffer leave every
    # product and sum as in the one-line expression, down to the last bit
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    B = rng.standard_normal((n, r))
    C = rng.standard_normal((r, r))
    D = rng.uniform(0.1, 2.0, size=m)
    x = rng.standard_normal(m * r)
    X = x.reshape((m, r), order="F")
    want = (A @ (B * ((B * (A.T @ X)) @ C)) + gamma * (D[:, None] * X)).ravel(order="F")
    assert np.array_equal(apply_H(x, A, B, C, D, gamma), want)


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
@hypothesis.given(
    shape=st.tuples(st.integers(1, 12), st.integers(1, 30)),
    data=st.data(),
)
def test_first_argmin_takes_first_tied_row(shape, data):
    # integer distances from a small range, so exact ties are common
    values = data.draw(
        st.lists(st.integers(0, 3), min_size=shape[0] * shape[1], max_size=shape[0] * shape[1])
    )
    d2 = np.array(values, dtype=np.float64).reshape(shape)
    np.testing.assert_array_equal(_first_argmin(d2), np.argmin(d2, axis=0))


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
@hypothesis.given(n=st.integers(1, 12), extra=st.integers(0, 4), data=st.data())
def test_label_matching_attains_the_assignment_optimum(n, extra, data):
    linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment
    m = n + extra
    # small integer entries, so many matchings tie at the maximum
    values = data.draw(st.lists(st.integers(0, 3), min_size=n * m, max_size=n * m))
    weights = np.array(values, dtype=np.int64).reshape(n, m)
    matching = _max_weight_matching(weights.tolist())
    assert len(set(matching)) == n and set(matching) <= set(range(m))
    rows, cols = linear_sum_assignment(weights, maximize=True)
    assert weights[np.arange(n), matching].sum() == weights[rows, cols].sum()


# stands in for an integer literal past the 4300-digit limit of Python's int
# parser, which neither hypothesis nor json.dumps can print
HUGE = "<4301 digits>"


def dumps(value) -> bytes:
    return json.dumps(value).replace(json.dumps(HUGE), "9" * 4301).encode()


def json_values(strings):
    """Any JSON value: null, booleans, huge and negative integers, floats with
    the non-finite ones Python's json reads and writes, strings from
    ``strings``, and nesting."""
    scalars = st.one_of(
        st.none(), st.booleans(), st.integers(),
        st.sampled_from([-1, 2**63, 2**64, 10**400, HUGE]), st.floats(), strings,
    )
    def nest(inner):
        return st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=3), inner, max_size=3)

    return st.recursive(scalars, nest, max_leaves=8)


# the files a fuzzed manifest may name, all inside the temporary directory:
# views of 6, 6 and 5 instances, 6 labels, a view that is not UTF-8, a file
# that does not exist, and the manifest itself
VIEW_FILES = {
    "a.csv": b"1,2,3,4,5,6\n6,5,4,3,2,1\n",
    "b.csv": b"0.5 1.5 -2 3 0 1\n",
    "c.csv": b"1,2,3,4,5\n",
    "y.csv": b"0\n1\n0\n1\n0\n1\n",
    "bad.csv": b"1,2,3,4,5,\xff6\n",
}
MANIFEST_NAMES = st.sampled_from([*VIEW_FILES, "none.csv", "m.json"])
TRUTH = b"0\n1\n1\n0\n"
REPORT = dumps({"labels": [0, 1, 1, 0], "n_clusters": 2})


def report_cases():
    # four labels, mostly in range, against the four-line truth file
    values = json_values(st.text(max_size=4))
    labels = st.one_of(
        st.lists(st.integers(0, 3), min_size=4, max_size=4),
        st.lists(st.one_of(st.integers(-1, 4), values), min_size=4, max_size=4),
        values,
    )
    counts = st.one_of(st.integers(1, 5), values)
    fields = st.one_of(
        st.fixed_dictionaries({"labels": labels, "n_clusters": counts}),
        st.fixed_dictionaries({}, optional={"labels": labels, "n_clusters": counts}),
    )
    return fields.map(lambda report: (
        {"r.json": dumps(report), "y.csv": TRUTH},
        ["eval", "r.json", "y.csv"],
        ("r.json", "y.csv"),
    ))


def labels_file_cases():
    # four IDs, as the truth for the four-label report, or any lines at all
    lines = st.one_of(
        st.lists(st.integers(0, 3).map(str), min_size=4, max_size=4),
        st.lists(st.one_of(st.integers(-2, 3).map(str), st.text(max_size=6)), max_size=6),
    )
    text = st.tuples(lines, st.sampled_from(["", "\n"])).map(lambda t: "\n".join(t[0]) + t[1])
    content = st.one_of(text.map(str.encode), st.binary(max_size=24))
    return content.map(lambda text: (
        {"r.json": REPORT, "y.csv": text}, ["eval", "r.json", "y.csv"], ("y.csv",),
    ))


def manifest_cases():
    entry = json_values(MANIFEST_NAMES)
    manifest = st.fixed_dictionaries(
        {"views": st.one_of(st.lists(MANIFEST_NAMES, min_size=1, max_size=3), entry)},
        optional={"labels": st.one_of(MANIFEST_NAMES, entry)},
    )
    return manifest.map(lambda m: (
        {**VIEW_FILES, "m.json": dumps(m)},
        ["baseline", "m.json", "--k", "2"],
        ("m.json", *VIEW_FILES, "none.csv"),
    ))


# nesting past Python's recursion limit, as a report and as a manifest
DEEP = b"[" * 100_000 + b"]" * 100_000


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
@hypothesis.given(case=st.one_of(report_cases(), labels_file_cases(), manifest_cases()))
@hypothesis.example(case=({"r.json": DEEP, "y.csv": TRUTH}, ["eval", "r.json", "y.csv"], ("r.json",)))
@hypothesis.example(case=({"m.json": DEEP}, ["baseline", "m.json", "--k", "2"], ("m.json",)))
def test_cli_input_contract(case):
    # exit 0 with the command's normal output, or exit 1 with one line on
    # stderr that starts 'error:' and names the file at fault; no exception
    # escapes cli_main
    files, argv, at_fault = case
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        for name, content in files.items():
            (root / name).write_bytes(content)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli_main([str(root / a) if a in files else a for a in argv])
        out, err = out.getvalue(), err.getvalue()
        if code == 0:
            assert err == ""
            if argv[0] == "eval":
                assert re.fullmatch(r"ACC [01]\.\d{6}\nNMI [01]\.\d{6}\n", out), out
            else:
                assert out.startswith("model=concat_regression converged=True "), out
        else:
            assert code == 1 and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
            assert any(str(root / name) in err for name in at_fault), err
