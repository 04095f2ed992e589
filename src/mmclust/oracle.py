"""Reference paths for the dual-path checks, and the runner that compares them
with the solver's fast paths.

The reference paths materialize objects the solver deliberately avoids
forming.  The full weight tensor is a plain ndarray of shape
(D_1+1, ..., D_V+1, K), summed from ``np.multiply.outer`` products of the
factor columns, and an instance's score contracts its data tensor, the outer
product of its augmented feature vectors, with one cluster slice of it.  The
view-factor update's system matrix is assembled densely from Kronecker
products.  The clustering metrics are recomputed by brute force: exhaustive
permutation search for accuracy and a scalar contingency-table loop for NMI.
K-means is rerun with every distance formed as an explicit broadcast and every
center as a masked mean.  The view solve's conjugate gradient is rerun with a
fresh array for every vector update, and must give the solver's in-place loop
byte for byte.  The concatenated-view baseline is checked against its closed
form from an independent SVD and against a plain ridge alternation from random
starts.
None of these references calls the solver, synth or metrics arithmetic it
checks, so agreement between the two is evidence, not tautology.  They do
share plumbing with ``solver``: the fixtures ``random_model`` and
``view_operands`` build their inputs with its types and projection helpers,
``reference_conjugate_gradient`` returns its ``CGStats`` and raises its
``SolverError``, and ``broadcast_lloyd_kmeans`` takes its step cap from
``solver.KMEANS_MAX_ITERS``; the K-means reference keeps its own row-wise copy
of the seeding, which consumes the same random draws.
The one exception is the reference for ``fit``'s outer iterations, which
rebuilds every view system from scratch but calls the solver's operator,
diagonal, cluster and indicator updates: it checks how ``fit`` computes
and reuses the operands of its sweep, and must give its factors and
indicator byte for byte.
``run_checks`` is the one place where the two meet; the ``oracle-check``
command prints its verdicts and the tests reuse its references and fixtures.
Sizes are capped to keep runs at desk scale.
"""

from __future__ import annotations

import itertools
import math
from functools import reduce

import numpy as np

from . import metrics, solver, synth
from .data import MultiViewDataset, augment, normalize_views

__all__ = [
    "materialize_cp",
    "full_tensor_predict",
    "dense_H",
    "random_model",
    "view_operands",
    "exhaustive_accuracy",
    "nmi_from_contingency",
    "set_partitions",
    "broadcast_lloyd_kmeans",
    "ridge_alternation",
    "reference_conjugate_gradient",
    "reference_sweeps",
    "run_checks",
]

MATERIALIZE_ENTRY_CAP = 1_000_000
DENSE_SYSTEM_SIZE_CAP = 5_000
# view-system shapes (M, N, R) of the benchmark's ``small`` and ``wide`` fits
VIEW_SYSTEM_SHAPES = ((11, 300, 10), (51, 1000, 20))


def materialize_cp(weights) -> np.ndarray:
    """The full weight tensor, of shape (D_1+1, ..., D_V+1, K), summed over
    the components in order as explicit rank-1 outer products.

    ``weights`` is anything exposing ``view_factors`` (a sequence of matrices
    with a common column count) and ``cluster_factor``; component ``r`` is the
    outer product of the r-th columns.
    """
    factors = [np.asarray(f, dtype=np.float64) for f in weights.view_factors]
    factors.append(np.asarray(weights.cluster_factor, dtype=np.float64))
    rank = factors[0].shape[1]
    if any(f.ndim != 2 or f.shape[1] != rank for f in factors):
        raise ValueError("factor matrices must share one column count")
    dims = tuple(f.shape[0] for f in factors)
    total = math.prod(dims)
    if total > MATERIALIZE_ENTRY_CAP:
        raise ValueError(f"materializing {total} entries exceeds the cap {MATERIALIZE_ENTRY_CAP}")
    full = np.zeros(dims)
    for r in range(rank):
        full += reduce(np.multiply.outer, [f[:, r] for f in factors])
    return full


def full_tensor_predict(z, w_full: np.ndarray, n: int, k: int) -> float:
    """Score of instance ``n`` against cluster ``k`` evaluated the slow way:
    the instance's augmented rank-1 data tensor contracted with cluster
    ``k``'s slice of the explicit weight tensor."""
    vectors = [np.asarray(zv, dtype=np.float64)[:, n] for zv in z.z_views]
    expected = tuple(v.size for v in vectors) + w_full.shape[-1:]
    if w_full.shape != expected:
        raise ValueError(f"weight tensor shape {w_full.shape}, expected {expected}")
    data = reduce(np.multiply.outer, vectors)
    return float(np.sum(data * w_full[..., k]))


def dense_H(A, B, C, D_diag, gamma: float) -> np.ndarray:
    """Explicitly assemble the (M*R) x (M*R) system matrix of the view-factor
    update via Kronecker products:

        kron(I_R, gamma*diag(D_diag))
          + kron(I_R, A) @ diag(vec B) @ kron(C.T, I_N) @ diag(vec B) @ kron(I_R, A.T)

    with vec taken column-major.  Symmetric whenever ``C`` is symmetric.
    """
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    C = np.asarray(C, dtype=np.float64)
    D_diag = np.asarray(D_diag, dtype=np.float64).ravel()
    m, n = A.shape
    r = B.shape[1]
    if B.shape[0] != n or C.shape != (r, r) or D_diag.size != m:
        raise ValueError(
            f"inconsistent shapes: A {A.shape}, B {B.shape}, C {C.shape}, "
            f"D_diag {D_diag.shape}"
        )
    if m * r > DENSE_SYSTEM_SIZE_CAP:
        raise ValueError(f"dense system of order {m * r} exceeds cap {DENSE_SYSTEM_SIZE_CAP}")
    eye_r = np.eye(r)
    weight = np.diag(B.ravel(order="F"))
    interaction = (
        np.kron(eye_r, A) @ weight @ np.kron(C.T, np.eye(n)) @ weight @ np.kron(eye_r, A.T)
    )
    return np.kron(eye_r, gamma * np.diag(D_diag)) + interaction


def random_model(rng, dims, n, k, rank):
    """Random augmented views, CP weights and orthonormal cluster indicator,
    drawn in that order from ``rng``."""
    z = augment(MultiViewDataset(tuple(rng.standard_normal((d, n)) for d in dims)))
    weights = solver.CPWeights(
        tuple(rng.standard_normal((d + 1, rank)) for d in dims),
        rng.standard_normal((k, rank)),
    )
    q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return z, weights, solver.ClusterIndicator(q)


def view_operands(z, weights, indicator, view):
    """The arguments before ``config`` of ``solver.update_view_weights`` for
    ``view``, built as ``fit`` builds them: the view's data, the product of
    the other views' projections, the factor, its projection and reweighting
    diagonal, and the cluster factor's Gram matrix and indicator product."""
    projections = solver.project(z, weights)
    factor, cluster = weights.view_factors[view], weights.cluster_factor
    return (
        z.z_views[view],
        solver.compute_embedding(projections, exclude=view),
        factor,
        projections[view],
        solver.irls_diag(factor),
        cluster.T @ cluster,
        indicator.matrix @ cluster,
    )


def exhaustive_accuracy(true_labels, pred_labels) -> float:
    """Best matched fraction over every permutation of the padded label set."""
    true_labels = np.asarray(true_labels)
    pred_labels = np.asarray(pred_labels)
    size = max(int(true_labels.max()), int(pred_labels.max())) + 1
    table = np.zeros((size, size), dtype=np.int64)
    np.add.at(table, (true_labels, pred_labels), 1)
    perms = np.array(list(itertools.permutations(range(size))))
    return float(table[perms, np.arange(size)].sum(axis=1).max()) / true_labels.size


def nmi_from_contingency(true_labels, pred_labels) -> float:
    """NMI recomputed directly from the contingency table, clipped to [0, 1]."""
    true_labels = np.asarray(true_labels)
    pred_labels = np.asarray(pred_labels)
    n = true_labels.size
    kt, kp = int(true_labels.max()) + 1, int(pred_labels.max()) + 1
    table = np.zeros((kt, kp))
    for t, p in zip(true_labels, pred_labels):
        table[t, p] += 1
    pt, pp = table.sum(axis=1) / n, table.sum(axis=0) / n
    ht = -sum(q * math.log(q) for q in pt if q > 0)
    hp = -sum(q * math.log(q) for q in pp if q > 0)
    if ht == 0.0 and hp == 0.0:
        return 1.0
    if ht == 0.0 or hp == 0.0:
        return 0.0
    info = sum(
        (table[t, p] / n) * math.log(n * table[t, p] / (table[t].sum() * table[:, p].sum()))
        for t in range(kt)
        for p in range(kp)
        if table[t, p] > 0
    )
    return min(max(info / math.sqrt(ht * hp), 0.0), 1.0)


def set_partitions(n: int) -> list[tuple[int, ...]]:
    """All canonical partitions of n items as restricted growth strings."""
    results = []

    def grow(prefix, n_used):
        if len(prefix) == n:
            results.append(tuple(prefix))
            return
        for label in range(n_used + 1):
            grow(prefix + [label], max(n_used, label + 1))

    grow([], 0)
    return results


def _plus_plus_centers(points, k, rng):
    """Reference k-means++ seeding, row-wise: each point's squared distance to
    a new center is summed along its row of the N x D ``points``.  It makes
    the same ``rng`` draws in the same order as the solver's seeding."""
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[int(rng.integers(n))]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[j] = points[idx]
        d2 = np.minimum(d2, np.sum((points - centers[j]) ** 2, axis=1))
    return centers


def broadcast_lloyd_kmeans(points, n_clusters: int, n_restarts: int = 20, seed: int = 0):
    """Reference for ``solver.lloyd_kmeans``: the same random draws, reseed
    rule, step cap and restart choice, with row-wise seeding, the N x K x D
    distance broadcast, ``argmin`` over each point's row, and one masked mean
    per cluster.  Returns the best restart's labels and inertia, and the number
    of empty-cluster reseeds over all restarts."""
    points = np.asarray(points, dtype=np.float64)
    n, k = points.shape[0], n_clusters
    rng = np.random.default_rng(seed)
    best, reseeds = None, 0
    for _ in range(n_restarts):
        centers = _plus_plus_centers(points, k, rng)
        labels = np.full(n, -1, dtype=np.int64)
        for _ in range(solver.KMEANS_MAX_ITERS):
            d2 = np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=2)
            new_labels = d2.argmin(axis=1)
            for j in range(k):
                if not np.any(new_labels == j):
                    # the worst-assigned point of a cluster that keeps another
                    sizes = np.bincount(new_labels, minlength=k)
                    assigned = np.where(sizes[new_labels] > 1, d2[np.arange(n), new_labels], -1.0)
                    new_labels[int(np.argmax(assigned))] = j
                    reseeds += 1
            centers = np.array([points[new_labels == j].mean(axis=0) for j in range(k)])
            if np.array_equal(new_labels, labels):
                break
            labels = new_labels
        inertia = float(np.sum((points - centers[labels]) ** 2))
        if best is None or inertia < best[1]:
            best = (labels, inertia)
    return best[0], best[1], reseeds


def ridge_alternation(design, gamma: float, start) -> float:
    """Reference descent for the baseline, which computes its optimum in closed
    form and never alternates: from ``start``, 20 times solve the ridge normal
    equations for the weight, then take the polar factor of the scores by SVD
    as the next indicator.  Returns the final objective
    ``||X W - Y||^2 + gamma ||W||^2``, which must never end below the closed
    form."""
    gram = design.T @ design + gamma * np.eye(design.shape[1])
    indicator = np.asarray(start, dtype=np.float64)
    for _ in range(20):
        w = np.linalg.solve(gram, design.T @ indicator)
        scores = design @ w
        u, _, vt = np.linalg.svd(scores, full_matrices=False)
        indicator = u @ vt
    return float(np.sum((scores - indicator) ** 2)) + gamma * float(np.sum(w * w))


def reference_conjugate_gradient(matvec, b, x0, tol, max_iters):
    """Reference for ``solver._conjugate_gradient``: the same CG recurrence
    and stop rule, written with a fresh array for every vector update and
    numpy scalar tests.  Returns the iterate and a ``solver.CGStats``."""
    b = np.asarray(b, dtype=np.float64)
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros_like(b), solver.CGStats(0, 0.0, True)
    x = np.array(x0, dtype=np.float64, copy=True)
    r = b - matvec(x)
    if not np.all(np.isfinite(r)):
        raise solver.SolverError("conjugate gradient: non-finite residual at start")
    target = tol * b_norm
    rs = float(r @ r)
    p = r.copy()
    iterations = 0
    while np.sqrt(rs) > target and iterations < max_iters:
        hp = matvec(p)
        php = float(p @ hp)
        if not np.isfinite(php):
            raise solver.SolverError("conjugate gradient diverged: non-finite curvature")
        if php <= 0.0:
            break
        alpha = rs / php
        x += alpha * p
        r -= alpha * hp
        iterations += 1
        rs_new = float(r @ r)
        if not np.isfinite(rs_new):
            raise solver.SolverError("conjugate gradient diverged: non-finite residual")
        if np.sqrt(rs_new) <= target:
            # confirm with the true residual; restart from it if drift remains
            r = b - matvec(x)
            rs = float(r @ r)
            if np.sqrt(rs) <= target:
                break
            p = r.copy()
            continue
        p = r + (rs_new / rs) * p
        rs = rs_new
    if not np.all(np.isfinite(x)):
        raise solver.SolverError("conjugate gradient diverged: non-finite iterate")
    residual = float(np.linalg.norm(r)) / b_norm
    return x, solver.CGStats(iterations, residual, residual <= tol)


def reference_sweeps(z, weights, indicator, config, sweeps: int):
    """Reference for the outer iterations of ``solver.fit`` while its view
    updates run at the step budget: every view system is built from scratch,
    with the other views' projections multiplied onto ones, ``C.T @ C``,
    ``Y @ C`` and ``irls_diag`` of the factor recomputed per view, and solved
    by ``reference_conjugate_gradient`` from ``b - apply_H(x0)``; the cluster
    solve takes ``irls_diag`` of the cluster factor.  Returns the view factors,
    cluster factor, indicator and per-sweep CG diagnostics."""
    factors, cluster = list(weights.view_factors), weights.cluster_factor
    budget = min(config.cg_max_iters, solver.VIEW_CG_STEPS)
    cg = []

    def embedding(exclude=None):
        out = np.ones((z.n_instances, config.rank))
        for u, (zu, fu) in enumerate(zip(z.z_views, factors)):
            if u != exclude:
                out = out * (zu.T @ fu)
        return out

    for _ in range(sweeps):
        stats = []
        for v, A in enumerate(z.z_views):
            B = embedding(exclude=v)
            C = cluster.T @ cluster
            d = solver.irls_diag(factors[v])
            b = (A @ (B * (indicator.matrix @ cluster))).ravel(order="F")
            x, s = reference_conjugate_gradient(
                lambda vec: solver.apply_H(vec, A, B, C, d, config.gamma),
                b, factors[v].ravel(order="F"), config.cg_tol, budget,
            )
            factors[v] = np.ascontiguousarray(x.reshape(factors[v].shape, order="F"))
            stats.append(s)
        emb = embedding()
        cluster = solver.update_cluster_weights(emb, solver.irls_diag(cluster), indicator, config)
        indicator = solver.update_indicator(emb @ cluster.T)
        cg.append(tuple(stats))
    return factors, cluster, indicator, cg


def run_checks(seed: int = 0) -> list[tuple[str, bool, str]]:
    """Compare every fast path with its reference on random draws from
    ``seed``; returns one (name, ok, detail) tuple per check, in a fixed order.

    The fast paths are looked up on their modules at call time, so a patched
    ``solver`` or ``metrics`` function is the one checked.
    """
    if seed < 0:
        raise ValueError("seed must be non-negative")
    results = []

    def record(name, ok, detail):
        results.append((name, bool(ok), detail))

    rng = np.random.default_rng(seed)

    # factorized scores against the materialized weight tensor
    worst = 0.0
    for _ in range(60):
        dims = tuple(int(rng.integers(1, 5)) for _ in range(int(rng.integers(1, 4))))
        k = int(rng.integers(1, 4))
        rank = int(rng.integers(1, 4))
        n = int(rng.integers(2, 6))
        z, weights, _ = random_model(rng, dims, n, k, rank)
        scores = solver.predict_scores(z, weights)
        full = materialize_cp(weights)
        for n_idx in range(n):
            for k_idx in range(k):
                ref = full_tensor_predict(z, full, n_idx, k_idx)
                worst = max(worst, abs(scores[n_idx, k_idx] - ref))
    record("score-vs-full-tensor", worst < 1e-10, f"max |delta| {worst:.3e} over 60 draws")

    # matrix-free operator against the dense Kronecker assembly
    worst = 0.0
    for _ in range(40):
        m, n, r = (int(rng.integers(1, 7)) for _ in range(3))
        A = rng.standard_normal((m, n))
        B = rng.standard_normal((n, r))
        G = rng.standard_normal((r, r))
        C = G.T @ G
        d = rng.uniform(0.1, 2.0, size=m)
        gamma = float(rng.uniform(0.01, 2.0))
        x = rng.standard_normal(m * r)
        dense = dense_H(A, B, C, d, gamma) @ x
        fast = solver.apply_H(x, A, B, C, d, gamma)
        worst = max(worst, np.linalg.norm(dense - fast) / max(np.linalg.norm(dense), 1e-30))
    record("operator-vs-dense-system", worst < 1e-10, f"max rel err {worst:.3e} over 40 draws")

    # dense system is symmetric positive definite for PSD C and gamma > 0
    min_eig, max_asym = np.inf, 0.0
    for _ in range(10):
        m, n, r = (int(rng.integers(1, 6)) for _ in range(3))
        A = rng.standard_normal((m, n))
        B = rng.standard_normal((n, r))
        G = rng.standard_normal((r, r))
        H = dense_H(A, B, G.T @ G, rng.uniform(0.1, 1.0, size=m), 0.5)
        max_asym = max(max_asym, float(np.max(np.abs(H - H.T))))
        min_eig = min(min_eig, float(np.linalg.eigvalsh(H).min()))
    record(
        "dense-system-spd",
        min_eig > 0 and max_asym < 1e-10,
        f"min eigenvalue {min_eig:.3e}, max asymmetry {max_asym:.3e}",
    )

    # vec/Kronecker identity
    worst = 0.0
    for _ in range(20):
        a = rng.standard_normal((int(rng.integers(1, 6)), int(rng.integers(1, 6))))
        b = rng.standard_normal((int(rng.integers(1, 6)), int(rng.integers(1, 6))))
        x = rng.standard_normal((a.shape[1], b.shape[0]))
        lhs = np.kron(b.T, a) @ x.ravel(order="F")
        rhs = (a @ x @ b).ravel(order="F")
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    record("vec-kronecker-identity", worst < 1e-12, f"max |delta| {worst:.3e} over 20 draws")

    # view-factor CG solves meet their residual contract
    ok, worst = True, 0.0
    config = solver.FitConfig(rank=3, gamma=0.05)
    for _ in range(10):
        z, weights, indicator = random_model(rng, (3, 4), n=8, k=3, rank=3)
        view = int(rng.integers(0, 2))
        _, stats = solver.update_view_weights(*view_operands(z, weights, indicator, view), config)
        ok = ok and (stats.converged or stats.iterations >= config.cg_max_iters)
        worst = max(worst, stats.residual)
    record("view-solve-residual", ok, f"max rel residual {worst:.3e} over 10 draws")

    # a budgeted view update lowers the quadratic 1/2 x'Hx - b'x of its dense
    # system below the value at the (random, far from optimal) warm start, and
    # never takes more steps than its budget
    ok, worst = True, -np.inf
    for _ in range(4):
        z, weights, indicator = random_model(rng, (3, 4), n=8, k=3, rank=3)
        view = int(rng.integers(0, 2))
        operands = view_operands(z, weights, indicator, view)
        A, B, _, _, d, gram, target = operands
        H = dense_H(A, B, gram, d, config.gamma)
        b = (A @ (B * target)).ravel(order="F")

        def quadratic(x):
            return 0.5 * float(x @ H @ x) - float(b @ x)

        start = quadratic(weights.view_factors[view].ravel(order="F"))
        for budget in (1, 2, 5):
            new, stats = solver.update_view_weights(*operands, config, max_iters=budget)
            change = (quadratic(new.ravel(order="F")) - start) / max(abs(start), 1.0)
            ok = ok and change < 0.0 and stats.iterations <= budget
            worst = max(worst, change)
    record(
        "budgeted-view-solve-descent",
        ok,
        f"max relative quadratic change {worst:.3e}, budgets 1/2/5 over 4 draws",
    )

    # cluster-factor solve satisfies its stationarity equation
    worst = 0.0
    for _ in range(10):
        z, weights, indicator = random_model(rng, (3, 4), n=8, k=3, rank=3)
        emb = solver.compute_embedding(solver.project(z, weights))
        p = solver.irls_diag(weights.cluster_factor)
        new_cf = solver.update_cluster_weights(emb, p, indicator, config)
        gram = emb.T @ emb
        lhs = new_cf @ gram + config.gamma * p[:, None] * new_cf
        target = indicator.matrix.T @ emb
        worst = max(
            worst,
            float(np.linalg.norm(lhs - target)) / (1.0 + float(np.linalg.norm(target))),
        )
    record("cluster-solve-residual", worst < 1e-8, f"max scaled residual {worst:.3e} over 10 draws")

    # indicator update: orthonormal and no random orthonormal candidate beats it
    ok, worst_gram = True, 0.0
    for _ in range(5):
        z, weights, _ = random_model(rng, (3, 4), n=8, k=3, rank=3)
        scores = solver.predict_scores(z, weights)
        f = solver.update_indicator(scores).matrix
        worst_gram = max(
            worst_gram, float(np.max(np.abs(f.T @ f - np.eye(f.shape[1]))))
        )
        trace_best = float(np.trace(f.T @ scores))
        for _ in range(200):
            q, _ = np.linalg.qr(rng.standard_normal(f.shape))
            if float(np.trace(q.T @ scores)) > trace_best + 1e-10:
                ok = False
    record(
        "indicator-procrustes-optimality",
        ok and worst_gram < 1e-8,
        f"max gram deviation {worst_gram:.3e}, 200 candidates/draw",
    )

    # Hungarian matching equals exhaustive permutation search
    ok = True
    for _ in range(200):
        n = int(rng.integers(1, 7))
        true_labels = rng.integers(0, int(rng.integers(1, 5)), size=n)
        pred_labels = rng.integers(0, int(rng.integers(1, 5)), size=n)
        fast = metrics.accuracy(
            metrics.Partition.from_labels(true_labels), metrics.Partition.from_labels(pred_labels)
        )
        if abs(fast - exhaustive_accuracy(true_labels, pred_labels)) > 1e-12:
            ok = False
    record("matching-vs-exhaustive", ok, "200 random partition pairs, sizes <= 6")

    # NMI equals a direct contingency-table recomputation
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 30))
        kt, kp = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        t = rng.integers(0, kt, size=n)
        p = rng.integers(0, kp, size=n)
        fast = metrics.nmi(
            metrics.Partition.from_labels(t, k=kt), metrics.Partition.from_labels(p, k=kp)
        )
        worst = max(worst, abs(fast - nmi_from_contingency(t, p)))
    record("nmi-vs-contingency", worst < 1e-12, f"max |delta| {worst:.3e} over 100 draws")

    # K-means in GEMM form against the broadcast reference: random points,
    # duplicated rows, and more clusters than distinct rows, which empties a
    # cluster and takes the reseed branch
    ok, worst, reseeds = True, 0.0, 0
    dup = rng.standard_normal((15, 3))
    grid = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
    for points, k, km_seed in (
        (rng.standard_normal((60, 3)), 5, int(rng.integers(2**31))),
        (dup[rng.permutation(np.arange(45) % 15)], 4, int(rng.integers(2**31))),
        (np.repeat(grid, 4, axis=0), 5, 0),
    ):
        labels = solver.lloyd_kmeans(points, k, n_restarts=3, seed=km_seed)
        ref_labels, ref_inertia, n_reseeds = broadcast_lloyd_kmeans(
            points, k, n_restarts=3, seed=km_seed
        )
        reseeds += n_reseeds
        inertia = sum(
            float(np.sum((points[labels == j] - points[labels == j].mean(axis=0)) ** 2))
            for j in np.unique(labels)
        )
        ok = ok and np.array_equal(labels, ref_labels)
        worst = max(worst, abs(inertia - ref_inertia) / max(abs(ref_inertia), 1e-300))
    record(
        "kmeans-vs-broadcast-lloyd",
        ok and worst < 1e-12 and reseeds > 0,
        f"labels {'equal' if ok else 'differ'}, max rel inertia delta {worst:.3e}, "
        f"{reseeds} reseeds over 3 inputs",
    )

    # the baseline ends at its closed-form optimum: the indicator spans the top
    # left singular subspace of the design and the objective is
    # sum_j gamma / (s_j^2 + gamma) over the K largest singular values.  Each
    # view is built with unit norm, so normalization leaves it unchanged, and
    # its columns are orthogonal to the constant feature, so the squared
    # singular values are n and the six listed ones, at least 0.05 apart.
    worst_angle, worst_objective, lowest_reference = 0.0, 0.0, np.inf
    for _ in range(3):
        n = int(rng.integers(30, 61))
        k = int(rng.integers(1, 5))
        gamma = float(10.0 ** rng.uniform(-3.0, 0.0))
        q, _ = np.linalg.qr(np.column_stack([np.ones(n), rng.standard_normal((n, 6))]))
        views = []
        for v, squared in enumerate(((0.6, 0.3, 0.1), (0.5, 0.35, 0.15))):
            rotation, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            views.append(rotation @ (q[:, 1 + 3 * v:4 + 3 * v] * np.sqrt(squared)).T)
        config = solver.FitConfig(rank=k, gamma=gamma, seed=int(rng.integers(2**31)))
        report = synth.baseline_regression_cluster(MultiViewDataset(tuple(views)), k, config)
        design = np.column_stack([*(v.T / np.linalg.norm(v) for v in views), np.ones(n)])
        u, s, _ = np.linalg.svd(design, full_matrices=False)
        y = report.indicator.matrix
        # sine of the largest principal angle between span(y) and the top-k basis
        worst_angle = max(worst_angle, float(np.linalg.norm(y - u[:, :k] @ (u[:, :k].T @ y), 2)))
        closed = float(np.sum(gamma / (s[:k] ** 2 + gamma)))
        worst_objective = max(worst_objective, abs(report.trace[-1].objective - closed) / closed)
        for _ in range(3):
            start, _ = np.linalg.qr(rng.standard_normal((n, k)))
            lowest_reference = min(
                lowest_reference, (ridge_alternation(design, gamma, start) - closed) / closed
            )
    record(
        "baseline-vs-closed-form",
        worst_angle < 1e-8 and worst_objective < 1e-10 and lowest_reference > -1e-12,
        f"max angle sine {worst_angle:.3e}, max rel objective delta {worst_objective:.3e}, "
        f"min rel reference excess {lowest_reference:.3e} over 3 draws",
    )

    # the solver's CG, which updates its vectors in place, against the
    # reference recurrence on the view-system shapes of the benchmark fits:
    # an exit on fit's step budget, a solve to cg_tol, which ends on the
    # true-residual confirmation, and a zero right-hand side; iterates must
    # agree byte for byte and the diagnostics exactly
    same, solved = True, []
    tol, cap = solver.FitConfig.cg_tol, solver.FitConfig.cg_max_iters
    for m, n, r in VIEW_SYSTEM_SHAPES:
        A = rng.standard_normal((m, n))
        A /= np.sqrt(n)
        B = rng.standard_normal((n, r))
        G = rng.standard_normal((r, r))
        C = G.T @ G / r
        d = rng.uniform(0.5, 1.0, size=m)
        x0 = rng.standard_normal(m * r)
        b = rng.standard_normal(m * r)

        def matvec(v):
            return solver.apply_H(v, A, B, C, d, 0.1)

        for rhs, budget in ((b, solver.VIEW_CG_STEPS), (b, cap), (np.zeros(m * r), cap)):
            x, stats = solver._conjugate_gradient(matvec, rhs, x0, rhs - matvec(x0), tol, budget)
            ref_x, ref_stats = reference_conjugate_gradient(matvec, rhs, x0, tol, budget)
            same = same and x.tobytes() == ref_x.tobytes() and stats == ref_stats
            if rhs is b and budget == cap:
                solved.append(stats)
    record(
        "lean-cg-vs-reference",
        same and all(s.converged for s in solved),
        f"iterates {'identical' if same else 'differ'}; budget "
        f"{solver.VIEW_CG_STEPS}, to tol in {'/'.join(str(s.iterations) for s in solved)} "
        f"steps ({sum(s.converged for s in solved)} converged) and zero rhs on shapes "
        f"{', '.join('x'.join(map(str, s)) for s in VIEW_SYSTEM_SHAPES)}",
    )

    # fit's sweeps, which build the cluster-side operands once per sweep, take
    # each reweighting diagonal from the row norms of the last objective and
    # each start residual from the cached projection, against the reference
    # sweeps that recompute all of them per view; three sweeps at the step
    # budget on random three-view data of each benchmark view-system shape, with
    # factors and indicator compared byte for byte and the diagnostics exactly
    same, steps = True, 0
    sweeps = 3
    for m, n, r in VIEW_SYSTEM_SHAPES:
        dataset = MultiViewDataset(tuple(rng.standard_normal((m - 1, n)) for _ in range(3)))
        config = solver.FitConfig(
            rank=r, gamma=1e-3, max_outer_iters=sweeps, seed=int(rng.integers(2**31))
        )
        report = solver.fit(dataset, 3, config)
        z = augment(normalize_views(dataset))
        factors, cluster, indicator, cg = reference_sweeps(
            z, *solver.init_model(z, config, 3), config, sweeps
        )
        same = (
            same
            and [rec.cg for rec in report.trace] == cg
            and all(
                f.tobytes() == ref.tobytes()
                for f, ref in zip(report.weights.view_factors, factors)
            )
            and report.weights.cluster_factor.tobytes() == cluster.tobytes()
            and report.indicator.matrix.tobytes() == indicator.matrix.tobytes()
        )
        steps += sum(s.iterations for sweep in cg for s in sweep)
    record(
        "fit-sweep-vs-reference",
        same,
        f"factors and indicator {'identical' if same else 'differ'} after {sweeps} sweeps "
        f"({steps} CG steps) on shapes "
        f"{', '.join('x'.join(map(str, s)) for s in VIEW_SYSTEM_SHAPES)}",
    )

    return results
