"""Property tests: a budgeted fit descends monotonically and keeps its budget,
the matrix-free operator is bit for bit its defining expression, K-means
assignment breaks distance ties as ``argmin`` does, and the label matcher
attains the assignment optimum that scipy computes independently."""

import numpy as np
import pytest

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
