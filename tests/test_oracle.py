"""The brute-force reference paths checked scalar-by-scalar, and the check
runner that compares them with the fast paths."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from mmclust import solver, synth
from mmclust.cli import cli_main
from mmclust.data import MultiViewDataset, augment
from mmclust.oracle import (
    dense_H,
    full_tensor_predict,
    materialize_cp,
    random_model,
    run_checks,
)
from mmclust.solver import CPWeights


def rank_one(*columns):
    """Rank-1 weights from one column per view, then the cluster column."""
    cols = [np.asarray(c, dtype=float).reshape(-1, 1) for c in columns]
    return CPWeights(tuple(cols[:-1]), cols[-1])


class TestOuterProduct:
    """A rank-1 weight tensor is the outer product of its factor columns."""

    def test_two_by_two_by_hand(self):
        t = materialize_cp(rank_one([1.0, 2.0], [3.0, 4.0]))
        assert t.shape == (2, 2)
        assert t[0, 0] == 3.0
        assert t[0, 1] == 4.0
        assert t[1, 0] == 6.0
        assert t[1, 1] == 8.0

    def test_zero_vector_annihilates(self):
        t = materialize_cp(rank_one([1.0, 2.0], [0.0, 0.0], [5.0]))
        assert t.shape == (2, 2, 1)
        assert np.all(t == 0.0)

    def test_triple_loop_recomputation(self):
        rng = np.random.default_rng(0)
        vecs = [rng.standard_normal(3), rng.standard_normal(2), rng.standard_normal(4)]
        t = materialize_cp(rank_one(*vecs))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    expected = vecs[0][i] * vecs[1][j] * vecs[2][k]
                    assert t[i, j, k] == pytest.approx(expected, abs=1e-14)


class TestTensorInner:
    """A score contracts the instance's data tensor with a cluster slice."""

    def _views(self, rng, dims, n):
        return augment(MultiViewDataset(tuple(rng.standard_normal((d, n)) for d in dims)))

    def test_unit_one_hot(self):
        # the constant rows multiply to exactly one in every instance
        z = self._views(np.random.default_rng(0), (2, 1), 3)
        full = np.zeros((3, 2, 2))
        full[2, 1, 1] = 1.0
        for n in range(3):
            assert full_tensor_predict(z, full, n, 1) == 1.0
            assert full_tensor_predict(z, full, n, 0) == 0.0

    def test_rank_one_product_identity(self):
        # <x1 o x2 o x3, y1 o y2 o y3> is the product of the <xv, yv>
        rng = np.random.default_rng(1)
        for _ in range(20):
            dims = tuple(int(d) for d in rng.integers(1, 5, size=3))
            z = self._views(rng, dims, 2)
            ys = [rng.standard_normal(d + 1) for d in dims]
            c = rng.standard_normal(2)
            full = materialize_cp(rank_one(*ys, c))
            for n in range(2):
                for k in range(2):
                    expected = c[k] * np.prod([float(zv[:, n] @ y) for zv, y in zip(z.z_views, ys)])
                    assert full_tensor_predict(z, full, n, k) == pytest.approx(expected, abs=1e-12)

    def test_zero_tensor(self):
        # a zero cluster factor zeroes every component, so every score
        z, w, _ = random_model(np.random.default_rng(2), (2, 3), n=3, k=2, rank=2)
        full = materialize_cp(CPWeights(w.view_factors, np.zeros((2, 2))))
        assert all(full_tensor_predict(z, full, n, k) == 0.0 for n in range(3) for k in range(2))

    def test_dim_mismatch(self):
        # a tensor without the cluster axis is rejected
        z, _, _ = random_model(np.random.default_rng(3), (2, 3), n=3, k=2, rank=2)
        with pytest.raises(ValueError, match="expected"):
            full_tensor_predict(z, np.zeros((3, 4)), 0, 0)


class TestMaterializeCP:
    def test_rank_one_is_single_outer_product(self):
        rng = np.random.default_rng(2)
        cols = [rng.standard_normal(d) for d in (3, 2, 4)]
        full = materialize_cp(rank_one(*cols))
        np.testing.assert_allclose(full, np.einsum("i,j,k->ijk", *cols), atol=1e-14)

    def test_component_permutation_invariance(self):
        rng = np.random.default_rng(3)
        factors = [rng.standard_normal((d, 3)) for d in (2, 3)]
        cluster = rng.standard_normal((2, 3))
        perm = [2, 0, 1]
        a = materialize_cp(CPWeights(tuple(factors), cluster))
        b = materialize_cp(
            CPWeights(tuple(f[:, perm] for f in factors), cluster[:, perm])
        )
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_scalar_loop_recomputation(self):
        rng = np.random.default_rng(4)
        f1 = rng.standard_normal((2, 2))
        f2 = rng.standard_normal((3, 2))
        fc = rng.standard_normal((2, 2))
        full = materialize_cp(CPWeights((f1, f2), fc))
        assert full.shape == (2, 3, 2)
        for d1 in range(2):
            for d2 in range(3):
                for k in range(2):
                    expected = sum(
                        f1[d1, r] * f2[d2, r] * fc[k, r] for r in range(2)
                    )
                    assert full[d1, d2, k] == pytest.approx(expected, abs=1e-13)

    def test_entry_cap(self):
        # 2,000,000 entries, over the 1,000,000 cap
        w = CPWeights((np.ones((100, 1)), np.ones((100, 1))), np.ones((200, 1)))
        with pytest.raises(ValueError, match="cap"):
            materialize_cp(w)


class TestFullTensorPredict:
    def _instance(self):
        z, w, _ = random_model(np.random.default_rng(5), (2, 3), n=4, k=2, rank=2)
        return z, w

    def test_zero_tensor_scores_zero(self):
        z, w = self._instance()
        assert full_tensor_predict(z, np.zeros((3, 4, 2)), 0, 1) == 0.0

    def test_one_hot_cluster_selectivity(self):
        z, _ = self._instance()
        full = np.zeros((3, 4, 2))
        full[0, 0, 1] = 7.0
        # weight mass lives entirely in cluster 1, so cluster-0 queries read zero
        assert full_tensor_predict(z, full, 2, 0) == 0.0
        expected = 7.0 * z.z_views[0][0, 2] * z.z_views[1][0, 2]
        assert full_tensor_predict(z, full, 2, 1) == pytest.approx(expected, abs=1e-14)

    def test_dim_mismatch(self):
        z, w = self._instance()
        with pytest.raises(ValueError, match="expected"):
            full_tensor_predict(z, np.zeros((3, 5, 2)), 0, 0)


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


ROOT = pathlib.Path(__file__).resolve().parent.parent

# the checks' own allocations, measured from a fresh interpreter: a warm one
# has already paid for numpy's first calls and reads about 2 MiB lower
PEAK_SCRIPT = """
import tracemalloc

from mmclust.oracle import run_checks

tracemalloc.start()
assert all(ok for _, ok, _ in run_checks(seed=0))
print(tracemalloc.get_traced_memory()[1])
"""

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
    "lean-cg-vs-reference",
    "fit-sweep-vs-reference",
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
        # fit takes each start residual from the cached projection, which no
        # longer agrees with the broken operator the reference sweep calls
        results = run_checks(seed=0)
        assert [name for name, _, _ in results] == CHECK_NAMES
        assert [name for name, ok, _ in results if not ok] == [
            "operator-vs-dense-system", "fit-sweep-vs-reference",
        ]

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

    def test_perturbed_cg_iterate_fails_only_its_check(self, monkeypatch):
        # one ulp on one entry of each iterate is far inside every tolerance
        # but breaks byte equality with the reference recurrence
        exact = solver._conjugate_gradient

        def off_by_one_ulp(*args):
            x, stats = exact(*args)
            x[0] = np.nextafter(x[0], np.inf)
            return x, stats

        monkeypatch.setattr(solver, "_conjugate_gradient", off_by_one_ulp)
        results = run_checks(seed=0)
        # fit's sweeps run the perturbed CG, the reference sweeps do not
        assert [name for name, ok, _ in results if not ok] == [
            "lean-cg-vs-reference", "fit-sweep-vs-reference",
        ]

    def test_peak_memory_in_a_fresh_process(self):
        # oracle-check runs inside the benchmark process, and its peak there
        # has set peak_rss_mb; the checks' own peak read 6.3 MiB at this bound
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", PEAK_SCRIPT],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
        assert int(proc.stdout.split()[-1]) <= 8 * 2**20

    def test_failed_check_fails_the_command(self, broken_operator, capsys):
        assert cli_main(["oracle-check"]) == 1
        captured = capsys.readouterr()
        assert "FAIL operator-vs-dense-system (" in captured.out
        assert captured.out.count("PASS ") == 12
        assert captured.err.strip() == "2 of 14 checks failed"
