"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every expected value is produced by an independent path from ``mmclust.oracle``
(materialized tensors, dense Kronecker assembly, exhaustive permutation search,
scalar contingency recomputation) or is a fixed contract of the operation
under test.  Tolerances
are stated inline next to each assertion.
"""

import time

import numpy as np

from mmclust.data import MultiViewDataset
from mmclust.metrics import Partition, accuracy, nmi
from mmclust.oracle import (
    dense_H,
    exhaustive_accuracy,
    full_tensor_predict,
    materialize_cp,
    nmi_from_contingency,
    random_model,
    set_partitions,
    view_operands,
)
from mmclust.solver import (
    CPWeights,
    FitConfig,
    apply_H,
    compute_embedding,
    fit,
    irls_diag,
    nearest_orthonormal,
    predict_scores,
    project,
    update_cluster_weights,
    update_view_weights,
)
from mmclust.synth import (
    SynthSpec,
    baseline_regression_cluster,
    generate,
    generate_interaction,
)


def criterion(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def best_of_restarts(dataset, k, config_seeds, **config_kwargs):
    """Unsupervised restart harness: keep the lowest-objective fit."""
    best = None
    for seed in config_seeds:
        report = fit(dataset, k, FitConfig(seed=seed, **config_kwargs))
        objective = report.trace[-1].objective
        if best is None or objective < best[0]:
            best = (objective, report)
    return best[1]


def test_criterion_1_model_equivalence():
    """Factorized scores equal the materialized-tensor scores, 1e-10 absolute."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        n_views = int(rng.integers(1, 4))
        dims = tuple(int(rng.integers(1, 5)) for _ in range(n_views))
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, 4))
        rank = int(rng.integers(1, 4))
        z, weights, _ = random_model(rng, dims, n, k, rank)
        scores = predict_scores(z, weights)
        full = materialize_cp(weights)
        for i in range(n):
            for c in range(k):
                ref = full_tensor_predict(z, full, i, c)
                worst = max(worst, abs(scores[i, c] - ref))
    elapsed = time.perf_counter() - start
    criterion(
        1,
        worst < 1e-10 and elapsed < 5.0,
        f"max |score delta| {worst:.3e} over 200 instances (tol 1e-10), {elapsed:.1f}s (cap 5s)",
    )


def test_criterion_2_operator_equals_dense_system():
    """Matrix-free operator equals the dense Kronecker assembly; dense SPD."""
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        m, n, r = (int(rng.integers(1, 7)) for _ in range(3))
        a = rng.standard_normal((m, n))
        b = rng.standard_normal((n, r))
        c = rng.standard_normal((r, r))
        d = rng.uniform(0.1, 2.0, size=m)
        gamma = float(rng.uniform(0.01, 2.0))
        x = rng.standard_normal(m * r)
        dense = dense_H(a, b, c, d, gamma) @ x
        fast = apply_H(x, a, b, c, d, gamma)
        worst = max(worst, np.linalg.norm(fast - dense) / max(np.linalg.norm(dense), 1e-30))

    min_eig, max_asym = np.inf, 0.0
    for _ in range(20):
        m, n, r = (int(rng.integers(1, 6)) for _ in range(3))
        a = rng.standard_normal((m, n))
        b = rng.standard_normal((n, r))
        g = rng.standard_normal((r, r))
        h = dense_H(a, b, g.T @ g, rng.uniform(0.1, 1.0, size=m), 0.5)
        max_asym = max(max_asym, float(np.max(np.abs(h - h.T))))
        min_eig = min(min_eig, float(np.linalg.eigvalsh(h).min()))
    elapsed = time.perf_counter() - start
    criterion(
        2,
        worst < 1e-10 and min_eig > 0 and max_asym < 1e-10 and elapsed < 5.0,
        f"max rel err {worst:.3e} over 100 draws (tol 1e-10), min eig {min_eig:.3e}, "
        f"asymmetry {max_asym:.3e}, {elapsed:.1f}s (cap 5s)",
    )


def test_criterion_3_subproblem_residuals():
    """Every subproblem meets its residual or optimality contract."""
    rng = np.random.default_rng(103)
    config = FitConfig(rank=3, gamma=0.05)
    cg_ok, cluster_ok = True, True
    worst_cg, worst_cluster = 0.0, 0.0
    for _ in range(10):
        z, weights, indicator = random_model(rng, (3, 4), n=9, k=3, rank=3)
        view = int(rng.integers(0, 2))
        operands = view_operands(z, weights, indicator, view)
        a, b = operands[:2]
        new_factor, stats = update_view_weights(*operands, config)
        # contract: residual met, or the iteration cap honestly reported
        cg_ok &= stats.converged or stats.iterations >= config.cg_max_iters
        if stats.converged:
            # independent recomputation of the linear-system residual
            c = weights.cluster_factor.T @ weights.cluster_factor
            e = a @ (b * (indicator.matrix @ weights.cluster_factor))
            d = irls_diag(weights.view_factors[view])
            lhs = apply_H(new_factor.ravel(order="F"), a, b, c, d, config.gamma)
            worst_cg = max(
                worst_cg,
                np.linalg.norm(lhs - e.ravel(order="F")) / np.linalg.norm(e),
            )

        emb = compute_embedding(project(z, weights))
        p = irls_diag(weights.cluster_factor)
        new_cf = update_cluster_weights(emb, p, indicator, config)
        gram = emb.T @ emb
        rhs = indicator.matrix.T @ emb
        defect = np.linalg.norm(new_cf @ gram + config.gamma * p[:, None] * new_cf - rhs)
        scaled = defect / (1.0 + np.linalg.norm(rhs))
        worst_cluster = max(worst_cluster, scaled)
        cluster_ok &= scaled < 1e-8

    scores = rng.standard_normal((8, 3))
    f = nearest_orthonormal(scores)
    gram_err = float(np.max(np.abs(f.T @ f - np.eye(3))))
    trace_best = float(np.trace(f.T @ scores))
    procrustes_ok = gram_err < 1e-8
    for _ in range(1000):
        q, _ = np.linalg.qr(rng.standard_normal((8, 3)))
        if float(np.trace(q.T @ scores)) > trace_best + 1e-10:
            procrustes_ok = False
    criterion(
        3,
        bool(cg_ok and worst_cg <= 1e-8 * 1.01 and cluster_ok and procrustes_ok),
        f"CG rel residual {worst_cg:.3e} (tol 1e-8), cluster residual {worst_cluster:.3e} "
        f"(tol 1e-8), indicator gram deviation {gram_err:.3e}, 1000 candidates beaten",
    )


def test_criterion_4_monotone_descent_and_convergence():
    """Objective non-increasing (rel slack 1e-9) and convergence within 100
    iterations at tol 1e-6 on >= 18/20 random datasets at gamma 0.01."""
    start = time.perf_counter()
    worst_rel_increase = -np.inf
    n_converged = 0
    for seed in range(20):
        rng = np.random.default_rng(4000 + seed)
        dataset = MultiViewDataset(
            (rng.standard_normal((8, 100)), rng.standard_normal((8, 100)))
        )
        config = FitConfig(
            rank=5, gamma=0.01, max_outer_iters=100, outer_tol=1e-6, seed=seed
        )
        report = fit(dataset, 3, config)
        objs = report.objectives
        rel = np.diff(objs) / np.maximum(objs[:-1], 1e-30)
        if rel.size:
            worst_rel_increase = max(worst_rel_increase, float(rel.max()))
        n_converged += report.converged
    elapsed = time.perf_counter() - start
    monotone_ok = worst_rel_increase <= 1e-9
    convergence_ok = n_converged >= 18
    criterion(
        4,
        bool(monotone_ok and convergence_ok and elapsed < 60.0),
        f"max rel increase {worst_rel_increase:.3e} (slack 1e-9), "
        f"converged {n_converged}/20 (need >= 18 at tol 1e-6 within 100 iters), "
        f"{elapsed:.1f}s (cap 60s)",
    )


def test_criterion_5_synthetic_recovery():
    """Separated 3-view mixture: mean ACC >= 0.9 and mean NMI >= 0.7 over 20 seeds."""
    start = time.perf_counter()
    accs, nmis = [], []
    for seed in range(20):
        spec = SynthSpec(
            n_instances=300, n_views=3, n_clusters=3, dims=(10, 10, 10),
            separation=6.0, seed=seed,
        )
        dataset = generate(spec)
        report = best_of_restarts(
            dataset, 3,
            config_seeds=[seed + 1000 * j for j in range(7)],
            rank=10, gamma=1e-3, max_outer_iters=60,
        )
        true_p = Partition.from_labels(dataset.labels)
        pred_p = Partition.from_labels(report.labels, k=3)
        accs.append(accuracy(true_p, pred_p))
        nmis.append(nmi(true_p, pred_p))
    elapsed = time.perf_counter() - start
    mean_acc, mean_nmi = float(np.mean(accs)), float(np.mean(nmis))
    criterion(
        5,
        mean_acc >= 0.9 and mean_nmi >= 0.7 and elapsed < 120.0,
        f"mean ACC {mean_acc:.3f} (need 0.9), mean NMI {mean_nmi:.3f} (need 0.7) "
        f"over 20 seeds, {elapsed:.1f}s (cap 120s)",
    )


def test_criterion_6_interaction_advantage():
    """Full-order model beats the concatenated linear baseline by >= 0.05 mean
    ACC on sign-product data over 20 paired seeds."""
    margins = []
    mmc_accs, base_accs = [], []
    for seed in range(20):
        dataset = generate_interaction(200, seed=seed)
        true_p = Partition.from_labels(dataset.labels)
        report = fit(
            dataset, 2,
            FitConfig(rank=4, gamma=3e-6, max_outer_iters=60, seed=seed),
        )
        base = baseline_regression_cluster(
            dataset, 2, FitConfig(rank=2, gamma=0.01, max_outer_iters=60, seed=seed)
        )
        acc_mmc = accuracy(true_p, Partition.from_labels(report.labels, k=2))
        acc_base = accuracy(true_p, Partition.from_labels(base.labels, k=2))
        mmc_accs.append(acc_mmc)
        base_accs.append(acc_base)
        margins.append(acc_mmc - acc_base)
    mean_margin = float(np.mean(margins))
    criterion(
        6,
        mean_margin >= 0.05,
        f"paired mean ACC margin {mean_margin:.3f} (need >= 0.05): "
        f"full-order {np.mean(mmc_accs):.3f} vs linear {np.mean(base_accs):.3f}",
    )


def test_criterion_7_metrics_against_oracles():
    """Hungarian ACC equals exhaustive search on all partitions of N <= 6; NMI
    matches the contingency formula to 1e-12; both metrics relabeling-invariant."""
    matching_ok = True
    for n in range(1, 7):
        parts = [np.array(p) for p in set_partitions(n)]
        partitions = [Partition.from_labels(p) for p in parts]
        for pa, a in zip(partitions, parts):
            for pb, b in zip(partitions, parts):
                if abs(accuracy(pa, pb) - exhaustive_accuracy(a, b)) > 1e-15:
                    matching_ok = False

    rng = np.random.default_rng(107)
    nmi_worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 25))
        kt, kp = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        t = rng.integers(0, kt, size=n)
        p = rng.integers(0, kp, size=n)
        got = nmi(Partition.from_labels(t, k=kt), Partition.from_labels(p, k=kp))
        nmi_worst = max(nmi_worst, abs(got - nmi_from_contingency(t, p)))

    relabel_ok = True
    for _ in range(100):
        k = int(rng.integers(2, 6))
        t = rng.integers(0, k, size=30)
        p = rng.integers(0, k, size=30)
        sigma_t, sigma_p = rng.permutation(k), rng.permutation(k)
        args = (Partition.from_labels(t, k=k), Partition.from_labels(p, k=k))
        shuffled = (
            Partition.from_labels(sigma_t[t], k=k),
            Partition.from_labels(sigma_p[p], k=k),
        )
        if abs(accuracy(*args) - accuracy(*shuffled)) > 1e-12:
            relabel_ok = False
        if abs(nmi(*args) - nmi(*shuffled)) > 1e-12:
            relabel_ok = False

    criterion(
        7,
        bool(matching_ok and nmi_worst < 1e-12 and relabel_ok),
        f"Hungarian equals exhaustive on all partitions N <= 6, "
        f"NMI delta {nmi_worst:.3e} (tol 1e-12), 100 relabelings invariant",
    )


def test_criterion_8_parameter_budget():
    """Stored parameter count is R * (K + sum of augmented view dims)."""
    rng = np.random.default_rng(108)
    ok = True
    for _ in range(50):
        n_views = int(rng.integers(1, 5))
        dims = tuple(int(rng.integers(1, 8)) for _ in range(n_views))
        k = int(rng.integers(1, 6))
        rank = int(rng.integers(1, 8))
        weights = CPWeights(
            tuple(rng.standard_normal((d + 1, rank)) for d in dims),
            rng.standard_normal((k, rank)),
        )
        expected = rank * (k + sum(d + 1 for d in dims))
        ok &= weights.n_parameters == expected
    criterion(8, bool(ok), "50 random shape draws match R*(K + sum(D_v + 1))")


def test_criterion_9_determinism():
    """Identical config and data give byte-identical reports (timing excluded)."""
    rng = np.random.default_rng(109)
    dataset = MultiViewDataset(
        (rng.standard_normal((6, 50)), rng.standard_normal((4, 50)))
    )
    config = FitConfig(rank=4, gamma=1e-3, max_outer_iters=15, seed=21)
    first = fit(dataset, 3, config).to_json(include_timing=False)
    second = fit(dataset, 3, config).to_json(include_timing=False)
    criterion(
        9,
        first.encode() == second.encode(),
        f"two fits serialize to {len(first)} identical bytes (timing excluded)",
    )
