"""Solver operations: each subproblem against its independent reference path."""

import json
import logging
import math

import numpy as np
import pytest

from mmclust import solver
from mmclust.data import MultiViewDataset, augment, normalize_views
from mmclust.oracle import (
    broadcast_lloyd_kmeans,
    dense_H,
    full_tensor_predict,
    materialize_cp,
    random_model,
    reference_conjugate_gradient,
    view_operands,
)
from mmclust.solver import (
    CPWeights,
    ClusterIndicator,
    FitConfig,
    INIT_SCALE,
    IRLS_EPSILON,
    VIEW_CG_STEPS,
    SolverError,
    _conjugate_gradient,
    _first_argmin,
    apply_H,
    compute_embedding,
    extract_labels,
    fit,
    init_model,
    irls_diag,
    lloyd_kmeans,
    nearest_orthonormal,
    objective,
    predict_scores,
    project,
    update_cluster_weights,
    update_indicator,
    update_view_weights,
)


def random_augmented(rng, dims, n):
    return augment(MultiViewDataset(tuple(rng.standard_normal((d, n)) for d in dims)))


def objective_scalar_loops(z, weights, indicator, gamma):
    """Independent scalar-loop evaluation of the training objective."""
    z_views = z.z_views
    f = indicator.matrix
    n, k = f.shape
    rank = weights.rank
    fit_term = 0.0
    for i in range(n):
        for c in range(k):
            pred = 0.0
            for r in range(rank):
                term = weights.cluster_factor[c, r]
                for v, zv in enumerate(z_views):
                    dot = 0.0
                    for d in range(zv.shape[0]):
                        dot += zv[d, i] * weights.view_factors[v][d, r]
                    term *= dot
                pred += term
            fit_term += (pred - f[i, c]) ** 2
    reg = 0.0
    for mat in (*weights.view_factors, weights.cluster_factor):
        for row in mat:
            reg += math.sqrt(sum(x * x for x in row))
    return fit_term + gamma * reg, fit_term, gamma * reg


class TestInitModel:
    def test_deterministic_from_seed(self):
        rng = np.random.default_rng(0)
        z = random_augmented(rng, (3, 2), 6)
        cfg = FitConfig(rank=2, seed=123)
        w1, f1 = init_model(z, cfg, 2)
        w2, f2 = init_model(z, cfg, 2)
        for a, b in zip(w1.view_factors, w2.view_factors):
            assert np.array_equal(a, b)
        assert np.array_equal(w1.cluster_factor, w2.cluster_factor)
        assert np.array_equal(f1.matrix, f2.matrix)

    def test_square_indicator_orthogonal(self):
        rng = np.random.default_rng(1)
        z = random_augmented(rng, (2,), 5)
        _, f = init_model(z, FitConfig(rank=2, seed=7), 5)
        err = np.max(np.abs(f.matrix.T @ f.matrix - np.eye(5)))
        assert err < 1e-10

    def test_indicator_gram_is_identity(self):
        rng = np.random.default_rng(2)
        z = random_augmented(rng, (3,), 5)
        _, f = init_model(z, FitConfig(rank=2, seed=3), 2)
        gram = f.matrix.T @ f.matrix
        assert np.max(np.abs(gram - np.eye(2))) < 1e-10

    def test_k_exceeding_n_rejected(self):
        rng = np.random.default_rng(3)
        z = random_augmented(rng, (2,), 4)
        with pytest.raises(ValueError, match="n_clusters"):
            init_model(z, FitConfig(rank=2), 5)

    def test_factor_scale_bounded(self):
        rng = np.random.default_rng(4)
        z = random_augmented(rng, (3, 3), 6)
        w, _ = init_model(z, FitConfig(rank=4, seed=0), 2)
        peaks = [np.max(np.abs(fmat)) for fmat in (*w.view_factors, w.cluster_factor)]
        assert INIT_SCALE / 2 < max(peaks) and max(peaks) <= INIT_SCALE


class TestComputeEmbedding:
    def test_single_view_coordinate_projection(self):
        rng = np.random.default_rng(5)
        z = random_augmented(rng, (4,), 6)
        factor = np.eye(5)[:, :3]  # pick out the first three augmented features
        w = CPWeights((factor,), np.zeros((2, 3)))
        emb = compute_embedding(project(z, w))
        np.testing.assert_allclose(emb, z.z_views[0][:3].T, atol=1e-15)

    def test_zero_factor_annihilates(self):
        rng = np.random.default_rng(6)
        z = random_augmented(rng, (3, 2), 5)
        w = CPWeights(
            (rng.standard_normal((4, 2)), np.zeros((3, 2))),
            rng.standard_normal((2, 2)),
        )
        assert np.all(compute_embedding(project(z, w)) == 0.0)

    def test_scalar_loop_recomputation(self):
        rng = np.random.default_rng(7)
        z, w, _ = random_model(rng, (2, 3, 2), n=5, k=2, rank=3)
        emb = compute_embedding(project(z, w))
        for i in range(5):
            for r in range(3):
                expected = 1.0
                for v, zv in enumerate(z.z_views):
                    expected *= float(zv[:, i] @ w.view_factors[v][:, r])
                assert emb[i, r] == pytest.approx(expected, abs=1e-12)

    def test_exclude_only_view_gives_ones(self):
        rng = np.random.default_rng(8)
        z, w, _ = random_model(rng, (3,), n=4, k=2, rank=2)
        np.testing.assert_array_equal(
            compute_embedding(project(z, w), exclude=0), np.ones((4, 2))
        )

    def test_exclude_middle_view_drops_exactly_that_factor(self):
        rng = np.random.default_rng(33)
        z, w, _ = random_model(rng, (2, 3, 2), n=5, k=2, rank=2)
        partial = compute_embedding(project(z, w), exclude=1)
        expected = (z.z_views[0].T @ w.view_factors[0]) * (
            z.z_views[2].T @ w.view_factors[2]
        )
        np.testing.assert_allclose(partial, expected, atol=1e-14)
        # multiplying the excluded projection back recovers the full embedding
        np.testing.assert_allclose(
            partial * (z.z_views[1].T @ w.view_factors[1]),
            compute_embedding(project(z, w)),
            atol=1e-14,
        )

    def test_exclude_out_of_range(self):
        rng = np.random.default_rng(9)
        z, w, _ = random_model(rng, (3, 2), n=4, k=2, rank=2)
        with pytest.raises(ValueError, match="out of range"):
            compute_embedding(project(z, w), exclude=2)

    def test_project_rejects_mismatched_factors(self):
        rng = np.random.default_rng(34)
        z, w, _ = random_model(rng, (3, 2), n=4, k=2, rank=2)
        with pytest.raises(ValueError, match="weights cover 1 views, data has 2"):
            project(z, CPWeights(w.view_factors[:1], w.cluster_factor))
        swapped = CPWeights(w.view_factors[::-1], w.cluster_factor)
        with pytest.raises(ValueError, match="view 0: factor has 3 rows"):
            project(z, swapped)


class TestPredictScores:
    def test_zero_factors_zero_scores(self):
        rng = np.random.default_rng(10)
        z = random_augmented(rng, (2, 3), 4)
        w = CPWeights((np.zeros((3, 2)), np.zeros((4, 2))), np.zeros((3, 2)))
        assert np.all(predict_scores(z, w) == 0.0)

    def test_rank_one_all_ones_closed_form(self):
        # with every factor column all ones, each score is the product over
        # views of that instance's feature sums
        rng = np.random.default_rng(11)
        z = random_augmented(rng, (2, 4), 5)
        w = CPWeights(
            (np.ones((3, 1)), np.ones((5, 1))),
            np.ones((3, 1)),
        )
        scores = predict_scores(z, w)
        expected = np.prod([zv.sum(axis=0) for zv in z.z_views], axis=0)
        for c in range(3):
            np.testing.assert_allclose(scores[:, c], expected, atol=1e-12)

    def test_matches_full_tensor_oracle(self):
        rng = np.random.default_rng(12)
        z, w, _ = random_model(rng, (2, 2), n=4, k=2, rank=2)
        scores = predict_scores(z, w)
        full = materialize_cp(w)
        for i in range(4):
            for c in range(2):
                assert scores[i, c] == pytest.approx(
                    full_tensor_predict(z, full, i, c), abs=1e-10
                )


class TestObjective:
    def test_zero_factors_total_is_cluster_count(self):
        rng = np.random.default_rng(13)
        z = random_augmented(rng, (3,), 6)
        w = CPWeights((np.zeros((4, 2)),), np.zeros((3, 2)))
        q, _ = np.linalg.qr(rng.standard_normal((6, 3)))
        total, fit_term, reg_term, _ = objective(
            predict_scores(z, w), w, ClusterIndicator(q), 0.5
        )
        assert reg_term == 0.0
        assert total == pytest.approx(3.0, abs=1e-12)

    def test_gamma_zero_total_is_fit(self):
        rng = np.random.default_rng(14)
        z, w, f = random_model(rng, (2, 2), n=5, k=2, rank=2)
        total, fit_term, reg_term, _ = objective(predict_scores(z, w), w, f, 0.0)
        assert reg_term == 0.0
        assert total == fit_term

    def test_scalar_loop_recomputation(self):
        rng = np.random.default_rng(15)
        z, w, f = random_model(rng, (2, 3), n=4, k=2, rank=2)
        got = objective(predict_scores(z, w), w, f, 0.37)[:3]
        want = objective_scalar_loops(z, w, f, 0.37)
        for g, e in zip(got, want):
            assert g == pytest.approx(e, abs=1e-10)


class TestIrlsDiag:
    def test_three_four_five_row(self):
        diag = irls_diag(np.array([[3.0, 4.0]]))
        assert diag[0] == pytest.approx(0.1, abs=1e-15)

    def test_zero_row_guard(self):
        diag = irls_diag(np.zeros((1, 3)))
        assert diag[0] == pytest.approx(1.0 / (2.0 * IRLS_EPSILON), rel=1e-12)

    def test_guard_formula_everywhere(self):
        rng = np.random.default_rng(16)
        mat = rng.standard_normal((8, 3))
        mat[2] = 0.0
        diag = irls_diag(mat)
        assert np.all(diag > 0)
        for i, row in enumerate(mat):
            expected = 1.0 / (2.0 * max(np.linalg.norm(row), IRLS_EPSILON))
            assert diag[i] == pytest.approx(expected, rel=1e-14)


class TestFitConfigValidation:
    def test_defaults_are_valid(self):
        FitConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rank": 0},
            {"gamma": -0.1},
            {"max_outer_iters": 0},
            {"cg_max_iters": 0},
            {"outer_tol": 0.0},
            {"cg_tol": -1e-8},
            {"gamma": float("nan")},
            {"gamma": float("inf")},
            {"outer_tol": float("nan")},
            {"outer_tol": float("inf")},
            {"cg_tol": float("nan")},
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FitConfig(**kwargs)


class TestApplyH:
    def test_collapses_to_identity(self):
        x = np.arange(6, dtype=float)
        out = apply_H(x, np.eye(3), np.ones((3, 2)), np.eye(2), np.zeros(3), 1.0)
        np.testing.assert_allclose(out, x, atol=1e-14)

    def test_linear_in_input(self):
        rng = np.random.default_rng(18)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        c = rng.standard_normal((2, 2))
        d = rng.uniform(0.1, 1.0, 3)
        assert np.all(apply_H(np.zeros(6), a, b, c, d, 0.3) == 0.0)

    def test_matches_dense_kronecker_assembly(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            m, n, r = rng.integers(1, 7, size=3)
            a = rng.standard_normal((m, n))
            b = rng.standard_normal((n, r))
            c = rng.standard_normal((r, r))
            d = rng.uniform(0.1, 2.0, size=m)
            gamma = float(rng.uniform(0.0, 2.0))
            x = rng.standard_normal(m * r)
            dense = dense_H(a, b, c, d, gamma) @ x
            fast = apply_H(x, a, b, c, d, gamma)
            denom = max(np.linalg.norm(dense), 1e-30)
            assert np.linalg.norm(fast - dense) / denom < 1e-10

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="x_vec"):
            apply_H(np.zeros(5), np.eye(3), np.ones((3, 2)), np.eye(2), np.zeros(3), 1.0)


class TestConjugateGradient:
    def _counted_system(self, seed, size=12):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((size, size))
        h = m @ m.T + size * np.eye(size)
        calls = []

        def matvec(x):
            calls.append(1)
            return h @ x

        return h, rng.standard_normal(size), matvec, calls

    def test_converged_solve_reuses_confirmed_residual(self):
        h, b, matvec, calls = self._counted_system(40)
        x0 = np.zeros_like(b)
        x, stats = _conjugate_gradient(matvec, b, x0, b - matvec(x0), 1e-10, 100)
        assert stats.converged
        # the start residual (formed by the caller), one per step, and the
        # confirming true residual
        assert len(calls) == stats.iterations + 2
        want = np.linalg.norm(b - h @ x) / np.linalg.norm(b)
        assert stats.residual == pytest.approx(want, rel=1e-12)

    def test_warm_start_within_tolerance_costs_one_matvec(self):
        h, b, matvec, calls = self._counted_system(41)
        x0 = np.linalg.solve(h, b)
        x, stats = _conjugate_gradient(matvec, b, x0, b - matvec(x0), 1e-8, 100)
        assert stats.converged and stats.iterations == 0
        assert len(calls) == 1
        np.testing.assert_array_equal(x, x0)

    def test_budget_exit_reports_recurrence_residual(self):
        # no matvec is spent recomputing the residual of an unconverged solve;
        # the recurrence's residual stands in for the true one
        h, b, matvec, calls = self._counted_system(42)
        x0 = np.zeros_like(b)
        x, stats = _conjugate_gradient(matvec, b, x0, b - matvec(x0), 1e-10, 2)
        assert stats.iterations == 2 and not stats.converged
        assert len(calls) == stats.iterations + 1
        want = np.linalg.norm(b - h @ x) / np.linalg.norm(b)
        assert stats.residual == pytest.approx(want, rel=1e-9)

    def test_in_place_updates_match_reference_bit_for_bit(self):
        # an ill-conditioned system at a tight tolerance: the recurrence
        # residual drifts below the target while the true one is above it,
        # so the solve takes the confirm-and-restart branch many times
        restarts = 0
        for seed in range(5):
            rng = np.random.default_rng(seed)
            q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
            h = (q * np.logspace(0, 8, 12)) @ q.T
            b = rng.standard_normal(12)
            calls = []

            def matvec(x):
                calls.append(1)
                return h @ x

            for budget in (4, 200):
                x0 = np.zeros(12)
                x, stats = _conjugate_gradient(matvec, b, x0, b - matvec(x0), 1e-10, budget)
                ref_x, ref_stats = reference_conjugate_gradient(
                    lambda v: h @ v, b, np.zeros(12), 1e-10, budget
                )
                assert x.tobytes() == ref_x.tobytes()
                assert stats == ref_stats
                # matvecs beyond the start and the steps confirm a residual;
                # each confirmation that did not end the solve restarted it
                restarts += len(calls) - stats.iterations - 1 - int(stats.converged)
                calls.clear()
        assert restarts > 0


class TestUpdateViewWeights:
    def _setup(self, seed, dims=(3, 4), n=9, k=3, rank=3, gamma=0.05):
        rng = np.random.default_rng(seed)
        z, w, f = random_model(rng, dims, n=n, k=k, rank=rank)
        cfg = FitConfig(rank=rank, gamma=gamma)
        return z, w, f, cfg

    def test_residual_contract(self):
        for seed in range(5):
            z, w, f, cfg = self._setup(seed)
            operands = view_operands(z, w, f, 0)
            A, B = operands[:2]
            new_w, stats = update_view_weights(*operands, cfg)
            assert stats.converged or stats.iterations >= cfg.cg_max_iters
            # recompute the residual independently of the CG bookkeeping
            C = w.cluster_factor.T @ w.cluster_factor
            E = A @ (B * (f.matrix @ w.cluster_factor))
            d = irls_diag(w.view_factors[0])
            lhs = apply_H(new_w.ravel(order="F"), A, B, C, d, cfg.gamma)
            rel = np.linalg.norm(lhs - E.ravel(order="F")) / np.linalg.norm(E)
            assert rel <= cfg.cg_tol * 1.01

    def test_large_gamma_rowwise_shrinkage_limit(self):
        z, w, f, _ = self._setup(3)
        cfg = FitConfig(rank=3, gamma=1e8)
        operands = view_operands(z, w, f, 0)
        A, B = operands[:2]
        new_w, stats = update_view_weights(*operands, cfg)
        assert stats.converged
        E = A @ (B * (f.matrix @ w.cluster_factor))
        d = irls_diag(w.view_factors[0])
        limit = E / (cfg.gamma * d[:, None])
        # regularization dominates: the solve degenerates to rowwise scaling
        np.testing.assert_allclose(new_w, limit, rtol=1e-2, atol=1e-9)
        assert np.linalg.norm(new_w) < 1e-3 * np.linalg.norm(w.view_factors[0])

    def test_matches_dense_solve(self):
        # single view, identity cluster factor, moderate regularization
        rng = np.random.default_rng(20)
        n, d, k = 8, 4, 3
        z = random_augmented(rng, (d,), n)
        w = CPWeights((rng.standard_normal((d + 1, k)),), np.eye(k))
        q, _ = np.linalg.qr(rng.standard_normal((n, k)))
        f = ClusterIndicator(q)
        cfg = FitConfig(rank=k, gamma=1.0, cg_tol=1e-12, cg_max_iters=2000)
        operands = view_operands(z, w, f, 0)
        A, B = operands[:2]
        new_w, _ = update_view_weights(*operands, cfg)
        E = A @ (B * (f.matrix @ w.cluster_factor))
        d = irls_diag(w.view_factors[0])
        H = dense_H(A, B, np.eye(k), d, cfg.gamma)
        ref = np.linalg.solve(H, E.ravel(order="F")).reshape(new_w.shape, order="F")
        np.testing.assert_allclose(new_w, ref, rtol=1e-6, atol=1e-12)

    def test_step_budget(self):
        z, w, f, cfg = self._setup(4)
        args = (*view_operands(z, w, f, 0), cfg)
        for budget in (1, 3):
            _, stats = update_view_weights(*args, max_iters=budget)
            assert stats.iterations == budget and not stats.converged
        with pytest.raises(ValueError, match="max_iters"):
            update_view_weights(*args, max_iters=0)

    def test_embedding_row_mismatch_rejected(self):
        z, w, f, cfg = self._setup(5)
        A, B, *rest = view_operands(z, w, f, 0)
        with pytest.raises(ValueError, match="embedding"):
            update_view_weights(A, B[:-1], *rest, cfg)

    def test_factor_shape_mismatch_rejected(self):
        z, w, f, cfg = self._setup(6)
        A, B, _, *rest = view_operands(z, w, f, 0)
        with pytest.raises(ValueError, match="factor"):
            update_view_weights(A, B, w.view_factors[1], *rest, cfg)

    def test_operand_shape_mismatch_rejected(self):
        z, w, f, cfg = self._setup(7)
        operands = view_operands(z, w, f, 0)
        for i in range(3, 7):
            bad = list(operands)
            bad[i] = bad[i][:-1]
            with pytest.raises(ValueError, match="inconsistent operands"):
                update_view_weights(*bad, cfg)

    def test_budgeted_solve_spends_one_operator_call_per_step(self, monkeypatch):
        # the start residual comes from the cached projection, not apply_H,
        # and matches the one apply_H gives byte for byte
        z, w, f, cfg = self._setup(8)
        operands = view_operands(z, w, f, 0)
        calls = []

        def counted(*args):
            calls.append(1)
            return apply_H(*args)

        monkeypatch.setattr(solver, "apply_H", counted)
        new_w, stats = update_view_weights(*operands, cfg, max_iters=VIEW_CG_STEPS)
        assert stats.iterations == VIEW_CG_STEPS and len(calls) == VIEW_CG_STEPS
        A, B, factor, _, d, C, target = operands
        b = (A @ (B * target)).ravel(order="F")
        x0 = factor.ravel(order="F")

        def matvec(v):
            return apply_H(v, A, B, C, d, cfg.gamma)

        ref_x, ref_stats = reference_conjugate_gradient(
            matvec, b, x0, cfg.cg_tol, VIEW_CG_STEPS
        )
        assert new_w.ravel(order="F").tobytes() == ref_x.tobytes()
        assert stats == ref_stats

    def test_warm_start_beats_zero_start_at_fixed_budget(self):
        # after one outer pass the factor sits near the new system's solution,
        # so restarting CG from it must do at least as well as starting cold
        wins = 0
        for seed in range(10):
            z, w, f, cfg = self._setup(seed + 100)
            operands = view_operands(z, w, f, 0)
            A, B = operands[:2]
            solved, _ = update_view_weights(*operands, cfg)
            factors = list(w.view_factors)
            factors[0] = solved
            w2 = CPWeights(tuple(factors), w.cluster_factor)
            d2 = irls_diag(w2.view_factors[0])
            C = w2.cluster_factor.T @ w2.cluster_factor
            E = A @ (B * (f.matrix @ w2.cluster_factor))
            b = E.ravel(order="F")

            def matvec(vec):
                return apply_H(vec, A, B, C, d2, cfg.gamma)

            budget = 3
            warm_x0, cold_x0 = solved.ravel(order="F"), np.zeros_like(b)
            _, warm = _conjugate_gradient(matvec, b, warm_x0, b - matvec(warm_x0), 1e-16, budget)
            _, cold = _conjugate_gradient(matvec, b, cold_x0, b - matvec(cold_x0), 1e-16, budget)
            assert warm.residual <= cold.residual * (1 + 1e-9)
            wins += warm.residual < cold.residual
        assert wins >= 8  # warm start should usually strictly win


class TestUpdateClusterWeights:
    def test_identity_gram_gamma_zero(self):
        # orthonormal embedding and no regularization: solution is the cross term
        rng = np.random.default_rng(21)
        n, rank, k = 8, 3, 2
        basis, _ = np.linalg.qr(rng.standard_normal((n, rank)))
        # single view, factor chosen so z.T @ factor equals the orthonormal basis
        z = random_augmented(rng, (n - 1,), n)
        factor = np.linalg.solve(
            z.z_views[0] @ z.z_views[0].T, z.z_views[0] @ basis
        )
        w = CPWeights((factor,), rng.standard_normal((k, rank)))
        q, _ = np.linalg.qr(rng.standard_normal((n, k)))
        f = ClusterIndicator(q)
        emb = compute_embedding(project(z, w))
        new_cf = update_cluster_weights(emb, irls_diag(w.cluster_factor), f, FitConfig(gamma=0.0))
        np.testing.assert_allclose(new_cf, f.matrix.T @ emb, atol=1e-8)

    def test_zero_indicator_gives_zero(self):
        rng = np.random.default_rng(22)
        z, w, f = random_model(rng, (3, 2), n=6, k=2, rank=2)
        zero_f = ClusterIndicator.__new__(ClusterIndicator)
        object.__setattr__(zero_f, "matrix", np.zeros((6, 2)))
        emb = compute_embedding(project(z, w))
        new_cf = update_cluster_weights(
            emb, irls_diag(w.cluster_factor), zero_f, FitConfig(gamma=0.3)
        )
        np.testing.assert_allclose(new_cf, 0.0, atol=1e-12)

    def test_equation_residual(self):
        rng = np.random.default_rng(23)
        for seed in range(10):
            z, w, f = random_model(rng, (3, 4), n=8, k=3, rank=3)
            gamma = 0.05
            emb = compute_embedding(project(z, w))
            p = irls_diag(w.cluster_factor)
            new_cf = update_cluster_weights(emb, p, f, FitConfig(gamma=gamma))
            gram = emb.T @ emb
            lhs = new_cf @ gram + gamma * p[:, None] * new_cf
            rhs = f.matrix.T @ emb
            assert np.linalg.norm(lhs - rhs) < 1e-8 * (1 + np.linalg.norm(rhs))

    def test_singular_gram_gamma_zero_jitter_warns(self):
        # an exactly zero embedding (zero factor) at gamma = 0 cannot be solved
        # directly; the jitter fallback signals and returns the zero solution
        rng = np.random.default_rng(24)
        n, k = 6, 2
        z = random_augmented(rng, (3,), n)
        w = CPWeights((np.zeros((4, 3)),), rng.standard_normal((k, 3)))
        q, _ = np.linalg.qr(rng.standard_normal((n, k)))
        f = ClusterIndicator(q)
        emb = compute_embedding(project(z, w))
        with pytest.warns(RuntimeWarning, match="jitter"):
            new_cf = update_cluster_weights(
                emb, irls_diag(w.cluster_factor), f, FitConfig(gamma=0.0)
            )
        np.testing.assert_allclose(new_cf, 0.0, atol=1e-12)

    def test_rank_deficient_gamma_zero_meets_contract(self):
        # duplicated factor columns leave the Gram matrix rank-deficient, but
        # the cross term stays in its range so the contract is still met
        rng = np.random.default_rng(24)
        n, k = 6, 2
        z = random_augmented(rng, (3,), n)
        col = rng.standard_normal((4, 1))
        factor = np.hstack([col, col, rng.standard_normal((4, 1))])
        w = CPWeights((factor,), rng.standard_normal((k, 3)))
        q, _ = np.linalg.qr(rng.standard_normal((n, k)))
        f = ClusterIndicator(q)
        emb = compute_embedding(project(z, w))
        new_cf = update_cluster_weights(emb, irls_diag(w.cluster_factor), f, FitConfig(gamma=0.0))
        gram = emb.T @ emb
        rhs = f.matrix.T @ emb
        assert np.linalg.norm(new_cf @ gram - rhs) < 1e-8 * (1 + np.linalg.norm(rhs))

    def test_quadratic_surrogate_minimality(self):
        # random perturbations never improve the frozen-reweighting surrogate
        rng = np.random.default_rng(25)
        z, w, f = random_model(rng, (3, 2), n=7, k=3, rank=2)
        gamma = 0.05
        emb = compute_embedding(project(z, w))
        p = irls_diag(w.cluster_factor)
        new_cf = update_cluster_weights(emb, p, f, FitConfig(gamma=gamma))

        def surrogate(cf):
            resid = emb @ cf.T - f.matrix
            return float(np.sum(resid * resid)) + gamma * float(
                np.sum(p * np.sum(cf * cf, axis=1))
            )

        base = surrogate(new_cf)
        for _ in range(50):
            direction = rng.standard_normal(new_cf.shape)
            direction /= np.linalg.norm(direction)
            assert surrogate(new_cf + 1e-3 * direction) >= base - 1e-12

    def test_diag_length_mismatch_rejected(self):
        # the diagonal is one shift per cluster; broadcasting would otherwise
        # accept a length-one or 2-d diagonal unnoticed
        rng = np.random.default_rng(35)
        z, w, f = random_model(rng, (3, 2), n=7, k=3, rank=2)
        emb = compute_embedding(project(z, w))
        for diag in (np.ones(1), np.ones(4), np.ones((3, 1))):
            with pytest.raises(ValueError, match="diag"):
                update_cluster_weights(emb, diag, f, FitConfig(gamma=0.05))


class TestUpdateIndicator:
    def test_orthonormal_input_fixed_point(self):
        rng = np.random.default_rng(26)
        q, _ = np.linalg.qr(rng.standard_normal((7, 3)))
        np.testing.assert_allclose(nearest_orthonormal(q), q, atol=1e-10)

    def test_column_scaling_invariance(self):
        rng = np.random.default_rng(27)
        q, _ = np.linalg.qr(rng.standard_normal((6, 2)))
        scaled = q @ np.diag([3.0, 5.0])
        np.testing.assert_allclose(nearest_orthonormal(scaled), q, atol=1e-10)

    def test_beats_random_orthonormal_candidates(self):
        rng = np.random.default_rng(28)
        a = rng.standard_normal((6, 3))
        f = nearest_orthonormal(a)
        trace_best = np.trace(f.T @ a)
        dist_best = np.linalg.norm(a - f)
        for _ in range(1000):
            q, _ = np.linalg.qr(rng.standard_normal((6, 3)))
            assert np.trace(q.T @ a) <= trace_best + 1e-10
            assert np.linalg.norm(a - q) >= dist_best - 1e-10

    def test_update_produces_orthonormal_indicator(self):
        rng = np.random.default_rng(29)
        z, w, _ = random_model(rng, (3, 2), n=8, k=3, rank=2)
        f = update_indicator(predict_scores(z, w))
        err = np.max(np.abs(f.matrix.T @ f.matrix - np.eye(3)))
        assert err < 1e-8

    def test_non_finite_rejected(self):
        with pytest.raises(SolverError, match="non-finite"):
            nearest_orthonormal(np.array([[1.0, np.nan], [0.0, 1.0]]))


class TestExtractLabels:
    def test_stacked_identity_blocks(self):
        k = 3
        f = np.vstack([np.eye(k), np.eye(k)]) / np.sqrt(2.0)
        labels = extract_labels(ClusterIndicator(f), seed=0)
        # instances i and i+k share a row, so they must share a label
        for i in range(k):
            assert labels[i] == labels[i + k]
        assert len(set(labels.tolist())) == k

    def test_identity_indicator_is_permutation(self):
        labels = extract_labels(ClusterIndicator(np.eye(4)), seed=1)
        assert sorted(labels.tolist()) == [0, 1, 2, 3]

    def test_valid_partition_and_deterministic(self):
        rng = np.random.default_rng(30)
        q, _ = np.linalg.qr(rng.standard_normal((12, 3)))
        f = ClusterIndicator(q)
        a = extract_labels(f, seed=42)
        b = extract_labels(f, seed=42)
        assert np.array_equal(a, b)
        assert a.shape == (12,)
        assert set(a.tolist()) <= {0, 1, 2}

    def test_kmeans_separated_blobs(self):
        rng = np.random.default_rng(31)
        pts = np.vstack(
            [rng.standard_normal((20, 2)) + center for center in ([0, 0], [10, 0], [0, 10])]
        )
        labels = lloyd_kmeans(pts, 3, seed=5)
        for block in range(3):
            chunk = labels[20 * block : 20 * (block + 1)]
            assert len(set(chunk.tolist())) == 1

    def test_zero_restarts_rejected(self):
        with pytest.raises(ValueError, match="n_restarts"):
            lloyd_kmeans(np.eye(4), 3, n_restarts=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_points_rejected(self, bad):
        pts = np.eye(4)
        pts[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            lloyd_kmeans(pts, 3)

    def test_overflowing_points_rejected(self):
        # finite entries whose squared distances overflow used to fail inside
        # the seeding draw with "Probabilities contain NaN"
        with pytest.raises(ValueError, match="squared distances would overflow"):
            lloyd_kmeans([[1e200], [-1e200], [0.0], [5.0]], 2)

    def test_large_in_range_points_cluster(self):
        pts = np.array([[1e150], [1.1e150], [-1e150], [-1.1e150]])
        labels = lloyd_kmeans(pts, 2, n_restarts=3)
        assert labels[0] == labels[1] != labels[2] == labels[3]

    def test_labels_match_broadcast_reference_on_blobs(self):
        # 10 Gaussian blobs in 6 dimensions, overlapping enough that Lloyd
        # takes several steps; the reference seeds row-wise and assigns by
        # argmin over an N x K x D broadcast
        rng = np.random.default_rng(33)
        centers = 3.0 * rng.standard_normal((10, 6))
        pts = centers[np.arange(2000) % 10] + rng.standard_normal((2000, 6))
        labels = lloyd_kmeans(pts, 10, n_restarts=3, seed=7)
        ref_labels, _, _ = broadcast_lloyd_kmeans(pts, 10, n_restarts=3, seed=7)
        assert labels.dtype == np.int64
        np.testing.assert_array_equal(labels, ref_labels)

    @pytest.mark.parametrize("k,dtype", [(1, np.uint8), (256, np.uint8), (257, np.uint16)])
    def test_first_argmin_key_holds_every_cluster(self, k, dtype):
        # the last row is the only minimum of its column, so the key reaches k - 1
        d2 = np.ones((k, 3))
        d2[k - 1, 0] = 0.0
        d2[0, 1] = 0.0
        idx = _first_argmin(d2)
        assert idx.dtype == dtype
        np.testing.assert_array_equal(idx, np.argmin(d2, axis=0))


class TestFit:
    def _dataset(self, seed, n=40, dims=(5, 4), k=3):
        rng = np.random.default_rng(seed)
        return MultiViewDataset(tuple(rng.standard_normal((d, n)) for d in dims))

    def test_single_iteration_single_record(self):
        ds = self._dataset(0)
        report = fit(ds, 3, FitConfig(rank=3, max_outer_iters=1))
        assert report.n_iterations == 1
        assert not report.converged

    def test_objective_monotone_on_random_data(self):
        for seed in range(5):
            ds = self._dataset(seed + 50)
            report = fit(ds, 3, FitConfig(rank=4, max_outer_iters=30, seed=seed))
            objs = report.objectives
            rel_increase = np.diff(objs) / np.maximum(objs[:-1], 1e-30)
            assert np.all(rel_increase <= 1e-9)

    def test_inner_budget_capped_by_cg_max_iters(self):
        cfg = FitConfig(rank=3, max_outer_iters=4, cg_max_iters=2)
        report = fit(self._dataset(7), 3, cfg)
        assert max(s.iterations for rec in report.trace for s in rec.cg) == 2

    def test_stop_is_confirmed_by_full_view_solves(self):
        # a stall after budgeted view updates triggers one iteration of full
        # solves; only a stall in such an iteration ends the fit as converged
        for seed in range(4):
            cfg = FitConfig(rank=3, outer_tol=1e-4, max_outer_iters=50, seed=seed)
            report = fit(self._dataset(seed), 3, cfg)
            assert report.converged
            last = report.trace[-1].cg
            assert all(s.converged for s in last)
            assert max(s.iterations for s in last) > VIEW_CG_STEPS

    @pytest.mark.filterwarnings("ignore:singular cluster-factor row system")
    def test_zero_gamma_exact_fit_stops_at_second_iteration(self):
        # with more factor components than instances and gamma = 0 the fit
        # reaches objective zero up to rounding, which the stop rule must
        # still recognize as a stall
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(4, 9))
            ds = MultiViewDataset((rng.standard_normal((4, n)), rng.standard_normal((3, n))))
            report = fit(ds, 2, FitConfig(rank=8, gamma=0.0, seed=seed))
            assert report.trace[-1].objective < 1e-20
            assert report.converged and report.n_iterations == 2

    def test_debug_log_reports_cg_work(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="mmclust.solver"):
            report = fit(self._dataset(8), 3, FitConfig(rank=3, max_outer_iters=2))
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("iteration")]
        assert len(lines) == report.n_iterations
        for line, rec in zip(lines, report.trace):
            assert f"cg_steps={sum(s.iterations for s in rec.cg)} " in line
            assert f"cg_worst_residual={max(s.residual for s in rec.cg):.3e}" in line

    def test_no_iteration_record_below_debug(self, caplog, monkeypatch):
        # at WARNING the per-iteration message is neither emitted nor built
        built, debug = [], solver.logger.debug

        def recording_debug(*args, **kwargs):
            built.append(args)
            debug(*args, **kwargs)

        monkeypatch.setattr(solver.logger, "debug", recording_debug)
        with caplog.at_level(logging.WARNING, logger="mmclust.solver"):
            fit(self._dataset(8), 3, FitConfig(rank=3, max_outer_iters=2))
        assert not [r for r in caplog.records if r.getMessage().startswith("iteration")]
        assert built == []

    def test_final_record_matches_recomputed_state(self):
        # the kept per-view projections must track the factors: recomputing
        # the scores from the final weights reproduces the last trace record
        # and the indicator bit for bit
        for seed in range(4):
            ds = self._dataset(seed + 20, dims=(5, 4, 3))
            cfg = FitConfig(rank=3, max_outer_iters=6, seed=seed)
            report = fit(ds, 3, cfg)
            scores = predict_scores(augment(normalize_views(ds)), report.weights)
            total, fit_term, _, _ = objective(
                scores, report.weights, report.indicator, cfg.gamma
            )
            assert report.trace[-1].objective == total
            assert report.trace[-1].fit_term == fit_term
            np.testing.assert_array_equal(update_indicator(scores).matrix, report.indicator.matrix)

    def test_trace_bytes_identical_across_runs(self):
        ds = self._dataset(3)
        cfg = FitConfig(rank=3, max_outer_iters=10, seed=9)
        a = fit(ds, 2, cfg).to_json(include_timing=False)
        b = fit(ds, 2, cfg).to_json(include_timing=False)
        assert a.encode() == b.encode()

    def test_indicator_orthonormal_after_fit(self):
        ds = self._dataset(4)
        report = fit(ds, 3, FitConfig(rank=3, max_outer_iters=5))
        f = report.indicator.matrix
        assert np.max(np.abs(f.T @ f - np.eye(3))) < 1e-8

    def test_parameter_count(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            n_views = int(rng.integers(1, 4))
            dims = tuple(int(rng.integers(1, 6)) for _ in range(n_views))
            k = int(rng.integers(1, 5))
            rank = int(rng.integers(1, 6))
            w = CPWeights(
                tuple(rng.standard_normal((d + 1, rank)) for d in dims),
                rng.standard_normal((k, rank)),
            )
            assert w.n_parameters == rank * (k + sum(d + 1 for d in dims))

    def test_report_labels_serialize_as_plain_ints(self):
        report = fit(self._dataset(6), 3, FitConfig(rank=2, max_outer_iters=3))
        out = report.to_dict(include_timing=False)
        assert all(type(x) is int for x in out["labels"])
        out["labels"] = [int(x) for x in report.labels]
        assert report.to_json(include_timing=False) == json.dumps(out, sort_keys=True)

    def test_labels_length_and_range(self):
        ds = self._dataset(5)
        report = fit(ds, 3, FitConfig(rank=2, max_outer_iters=3))
        assert report.labels.shape == (40,)
        assert set(report.labels.tolist()) <= {0, 1, 2}
