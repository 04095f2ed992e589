"""The brute-force reference paths checked scalar-by-scalar, and the check
runner that compares them with the fast paths."""

import numpy as np
import pytest

from mmclust import solver, synth
from mmclust.cli import cli_main
from mmclust.oracle import (
    DenseTensor,
    dense_H,
    full_tensor_predict,
    materialize_cp,
    outer_product,
    random_model,
    run_checks,
    tensor_inner,
)
from mmclust.solver import CPWeights


class TestDenseTensor:
    def test_column_major_entry_lookup(self):
        # values laid out column-major for dims (2, 3)
        t = DenseTensor((2, 3), np.arange(6, dtype=float))
        assert t.entry(0, 0) == 0.0
        assert t.entry(1, 0) == 1.0
        assert t.entry(0, 1) == 2.0
        assert t.entry(1, 2) == 5.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match dims"):
            DenseTensor((2, 2), np.zeros(3))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            DenseTensor((2,), np.array([1.0, np.nan]))


class TestOuterProduct:
    def test_two_by_two_by_hand(self):
        t = outer_product([[1.0, 2.0], [3.0, 4.0]])
        assert t.dims == (2, 2)
        assert t.entry(0, 0) == 3.0
        assert t.entry(0, 1) == 4.0
        assert t.entry(1, 0) == 6.0
        assert t.entry(1, 1) == 8.0

    def test_zero_vector_annihilates(self):
        t = outer_product([[1.0, 2.0], [0.0, 0.0], [5.0]])
        assert np.all(t.values == 0.0)

    def test_triple_loop_recomputation(self):
        rng = np.random.default_rng(0)
        vecs = [rng.standard_normal(3), rng.standard_normal(2), rng.standard_normal(4)]
        t = outer_product(vecs)
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    expected = vecs[0][i] * vecs[1][j] * vecs[2][k]
                    assert t.entry(i, j, k) == pytest.approx(expected, abs=1e-14)

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError):
            outer_product([[1.0], []])


class TestTensorInner:
    def test_unit_one_hot(self):
        t = outer_product([[0.0, 1.0], [1.0, 0.0]])
        assert tensor_inner(t, t) == 1.0

    def test_rank_one_product_identity(self):
        # inner product of rank-1 tensors equals the product of vector inner products
        rng = np.random.default_rng(1)
        for _ in range(20):
            xs = [rng.standard_normal(rng.integers(1, 5)) for _ in range(3)]
            ys = [rng.standard_normal(x.size) for x in xs]
            lhs = tensor_inner(outer_product(xs), outer_product(ys))
            rhs = np.prod([float(x @ y) for x, y in zip(xs, ys)])
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_zero_tensor(self):
        a = outer_product([[1.0, 2.0], [3.0]])
        b = DenseTensor((2, 1), np.zeros(2))
        assert tensor_inner(a, b) == 0.0

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            tensor_inner(outer_product([[1.0]]), outer_product([[1.0, 2.0]]))


class TestMaterializeCP:
    def test_rank_one_is_single_outer_product(self):
        rng = np.random.default_rng(2)
        cols = [rng.standard_normal((d, 1)) for d in (3, 2, 4)]
        w = CPWeights(tuple(cols[:2]), cols[2])
        full = materialize_cp(w)
        ref = outer_product([c[:, 0] for c in cols])
        np.testing.assert_allclose(full.values, ref.values, atol=1e-14)

    def test_component_permutation_invariance(self):
        rng = np.random.default_rng(3)
        factors = [rng.standard_normal((d, 3)) for d in (2, 3)]
        cluster = rng.standard_normal((2, 3))
        perm = [2, 0, 1]
        a = materialize_cp(CPWeights(tuple(factors), cluster))
        b = materialize_cp(
            CPWeights(tuple(f[:, perm] for f in factors), cluster[:, perm])
        )
        np.testing.assert_allclose(a.values, b.values, atol=1e-12)

    def test_scalar_loop_recomputation(self):
        rng = np.random.default_rng(4)
        f1 = rng.standard_normal((2, 2))
        f2 = rng.standard_normal((3, 2))
        fc = rng.standard_normal((2, 2))
        full = materialize_cp(CPWeights((f1, f2), fc))
        for d1 in range(2):
            for d2 in range(3):
                for k in range(2):
                    expected = sum(
                        f1[d1, r] * f2[d2, r] * fc[k, r] for r in range(2)
                    )
                    assert full.entry(d1, d2, k) == pytest.approx(expected, abs=1e-13)

    def test_entry_cap(self):
        w = CPWeights((np.ones((100, 1)), np.ones((100, 1))), np.ones((200, 1)))
        with pytest.raises(ValueError, match="cap"):
            materialize_cp(w, max_entries=10_000)


class TestFullTensorPredict:
    def _instance(self):
        z, w, _ = random_model(np.random.default_rng(5), (2, 3), n=4, k=2, rank=2)
        return z, w

    def test_zero_tensor_scores_zero(self):
        z, w = self._instance()
        zero = DenseTensor((3, 4, 2), np.zeros(24))
        assert full_tensor_predict(z, zero, 0, 1) == 0.0

    def test_one_hot_cluster_selectivity(self):
        z, _ = self._instance()
        values = np.zeros(24)
        values[1 * 12 + 0] = 7.0  # column-major offset of multi-index (0, 0, 1)
        full = DenseTensor((3, 4, 2), values)
        # weight mass lives entirely in cluster 1, so cluster-0 queries read zero
        assert full_tensor_predict(z, full, 2, 0) == 0.0

    def test_dim_mismatch(self):
        z, w = self._instance()
        with pytest.raises(ValueError, match="expected"):
            full_tensor_predict(z, DenseTensor((3, 5, 2), np.zeros(30)), 0, 0)


class TestDenseSystemMatrix:
    def test_identity_collapse(self):
        # A = I, B = ones, C = I, gamma*D = 0 makes the operator the identity
        h = dense_H(np.eye(3), np.ones((3, 2)), np.eye(2), np.zeros(3), 1.0)
        np.testing.assert_allclose(h, np.eye(6), atol=1e-14)

    def test_size_cap(self):
        with pytest.raises(ValueError, match="cap"):
            dense_H(
                np.ones((100, 2)), np.ones((2, 100)), np.eye(100), np.ones(100), 1.0
            )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="inconsistent shapes"):
            dense_H(np.ones((3, 2)), np.ones((4, 2)), np.eye(2), np.ones(3), 1.0)


CHECK_NAMES = [
    "score-vs-full-tensor",
    "operator-vs-dense-system",
    "dense-system-spd",
    "vec-kronecker-identity",
    "view-solve-residual",
    "budgeted-view-solve-descent",
    "cluster-solve-residual",
    "indicator-procrustes-optimality",
    "matching-vs-exhaustive",
    "nmi-vs-contingency",
    "kmeans-vs-broadcast-lloyd",
    "baseline-vs-closed-form",
]


@pytest.fixture()
def broken_operator(monkeypatch):
    # a matrix-free operator off by 1e-6 * I, far above the 1e-10 check bound
    exact = solver.apply_H
    monkeypatch.setattr(solver, "apply_H", lambda x, *args: exact(x, *args) + 1e-6 * x)


class TestRunChecks:
    def test_check_names_cover_dual_paths(self):
        results = run_checks(seed=1)
        assert [name for name, _, _ in results] == CHECK_NAMES
        assert all(ok for _, ok, _ in results)

    def test_broken_operator_fails_only_its_check(self, broken_operator):
        results = run_checks(seed=0)
        assert [name for name, _, _ in results] == CHECK_NAMES
        assert [name for name, ok, _ in results if not ok] == ["operator-vs-dense-system"]

    def test_broken_kmeans_fails_only_its_check(self, monkeypatch):
        # the same partition under other cluster ids still differs label by label
        exact = solver.lloyd_kmeans
        monkeypatch.setattr(
            solver, "lloyd_kmeans", lambda points, k, **kw: k - 1 - exact(points, k, **kw)
        )
        results = run_checks(seed=0)
        assert [name for name, ok, _ in results if not ok] == ["kmeans-vs-broadcast-lloyd"]

    def test_baseline_off_its_optimum_fails_only_its_check(self, monkeypatch):
        # a random orthonormal indicator with its exact ridge weight: optimal
        # in the weight, far from the top singular subspace
        def random_start(design, ridge, gamma, n_clusters, seed):
            rng = np.random.default_rng(seed)
            start = np.linalg.qr(rng.standard_normal((design.shape[0], n_clusters)))[0]
            return start, np.linalg.solve(ridge, design.T @ start)

        monkeypatch.setattr(synth, "_closed_form", random_start)
        results = run_checks(seed=0)
        assert [name for name, ok, _ in results if not ok] == ["baseline-vs-closed-form"]

    def test_failed_check_fails_the_command(self, broken_operator, capsys):
        assert cli_main(["oracle-check"]) == 1
        captured = capsys.readouterr()
        assert "FAIL operator-vs-dense-system (" in captured.out
        assert captured.out.count("PASS ") == 11
        assert captured.err.strip() == "1 of 12 checks failed"
