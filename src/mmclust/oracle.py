"""Reference paths for the dual-path checks, and the runner that compares them
with the solver's fast paths.

The reference paths materialize objects the solver deliberately avoids
forming: the full weight tensor, the dense system matrix of the view-factor
update, and explicit outer products.  They recompute the clustering metrics
by brute force: exhaustive permutation search for accuracy and a scalar
contingency-table loop for NMI.  K-means is rerun with every distance formed
as an explicit broadcast and every center as a masked mean.  The
concatenated-view baseline is checked against its closed form from an
independent SVD and against a plain ridge alternation from random starts.
Apart from the K-means seeding, which fixes the random draws, they share no
code with the solver, synth or metrics modules, so agreement between the two
is evidence, not tautology.
``run_checks`` is the one place where the two meet; the ``oracle-check``
command prints its verdicts and the tests reuse its references and fixtures.
Sizes are capped to keep runs at desk scale.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import metrics, solver, synth
from .data import MultiViewDataset, augment

__all__ = [
    "DenseTensor",
    "outer_product",
    "tensor_inner",
    "materialize_cp",
    "full_tensor_predict",
    "dense_H",
    "random_model",
    "exhaustive_accuracy",
    "nmi_from_contingency",
    "set_partitions",
    "broadcast_lloyd_kmeans",
    "ridge_alternation",
    "run_checks",
]

MATERIALIZE_ENTRY_CAP = 1_000_000
DENSE_SYSTEM_SIZE_CAP = 5_000


@dataclass(frozen=True)
class DenseTensor:
    """Explicit dense tensor, stored flat in column-major multi-index order."""

    dims: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"invalid tensor dims {dims}")
        values = np.asarray(self.values, dtype=np.float64).ravel()
        if values.size != int(np.prod(dims)):
            raise ValueError(
                f"values length {values.size} does not match dims {dims}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("tensor entries must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "values", values)

    @property
    def n_modes(self) -> int:
        return len(self.dims)

    def entry(self, *index: int) -> float:
        """Entry at a multi-index, resolved with column-major strides."""
        if len(index) != len(self.dims):
            raise IndexError(f"expected {len(self.dims)} indices, got {len(index)}")
        offset, stride = 0, 1
        for i, d in zip(index, self.dims):
            if not 0 <= i < d:
                raise IndexError(f"index {index} out of bounds for dims {self.dims}")
            offset += i * stride
            stride *= d
        return float(self.values[offset])


def outer_product(vectors) -> DenseTensor:
    """Outer product of a list of vectors: entry (i_1..i_M) is the product of
    the i_m-th element of each vector."""
    vecs = [np.asarray(v, dtype=np.float64).ravel() for v in vectors]
    if not vecs or any(v.size == 0 for v in vecs):
        raise ValueError("need at least one nonempty vector")
    full = reduce(np.multiply.outer, vecs)
    return DenseTensor(tuple(v.size for v in vecs), np.asarray(full).ravel(order="F"))


def tensor_inner(a: DenseTensor, b: DenseTensor) -> float:
    """Sum of elementwise products over all multi-indices."""
    if a.dims != b.dims:
        raise ValueError(f"dimension mismatch: {a.dims} vs {b.dims}")
    return float(np.dot(a.values, b.values))


def materialize_cp(weights, max_entries: int = MATERIALIZE_ENTRY_CAP) -> DenseTensor:
    """Expand factor matrices into the full weight tensor as an explicit sum of
    rank-1 outer products.

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
    total = int(np.prod(dims))
    if total > max_entries:
        raise ValueError(
            f"materializing {total} entries exceeds the cap of {max_entries}"
        )
    flat = np.zeros(total)
    for r in range(rank):
        flat += outer_product([f[:, r] for f in factors]).values
    return DenseTensor(dims, flat)


def full_tensor_predict(z, w_full: DenseTensor, n: int, k: int) -> float:
    """Score of instance ``n`` against cluster ``k`` evaluated the slow way:
    inner product of the instance's augmented rank-1 data tensor (extended by
    the cluster's one-hot vector) with the explicit weight tensor."""
    vectors = [np.asarray(zv, dtype=np.float64)[:, n] for zv in z.z_views]
    k_size = w_full.dims[-1]
    expected = tuple(v.size for v in vectors) + (k_size,)
    if w_full.dims != expected:
        raise ValueError(f"weight tensor dims {w_full.dims}, expected {expected}")
    onehot = np.zeros(k_size)
    onehot[k] = 1.0
    return tensor_inner(outer_product(vectors + [onehot]), w_full)


def dense_H(A, B, C, D_diag, gamma: float, max_size: int = DENSE_SYSTEM_SIZE_CAP) -> np.ndarray:
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
    if m * r > max_size:
        raise ValueError(f"dense system of order {m * r} exceeds cap {max_size}")
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


def broadcast_lloyd_kmeans(points, n_clusters: int, n_restarts: int = 20, seed: int = 0,
                           max_iters: int = 300):
    """Reference for ``solver.lloyd_kmeans``: the same seeding, reseed rule and
    restart choice, with the N x K x D distance broadcast and one masked mean
    per cluster.  Returns the best restart's labels and inertia, and the
    number of empty-cluster reseeds over all restarts."""
    points = np.asarray(points, dtype=np.float64)
    n, k = points.shape[0], n_clusters
    rng = np.random.default_rng(seed)
    best, reseeds = None, 0
    for _ in range(n_restarts):
        centers = solver._plus_plus_centers(points, k, rng)
        labels = np.full(n, -1, dtype=np.int64)
        for _ in range(max_iters):
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


def run_checks(seed: int = 0) -> list[tuple[str, bool, str]]:
    """Compare every fast path with its reference on random draws from
    ``seed``; returns one (name, ok, detail) tuple per check, in a fixed order.

    The fast paths are looked up on their modules at call time, so a patched
    ``solver`` or ``metrics`` function is the one checked.
    """
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
        B = solver.compute_embedding(solver.project(z, weights), exclude=view)
        _, stats = solver.update_view_weights(
            z.z_views[view], B, weights.view_factors[view], weights.cluster_factor,
            indicator, config,
        )
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
        A = z.z_views[view]
        other = 1 - view
        B = z.z_views[other].T @ weights.view_factors[other]
        cf = weights.cluster_factor
        d = solver.irls_diag(weights.view_factors[view], config.irls_epsilon)
        H = dense_H(A, B, cf.T @ cf, d, config.gamma)
        b = (A @ (B * (indicator.matrix @ cf))).ravel(order="F")

        def quadratic(x):
            return 0.5 * float(x @ H @ x) - float(b @ x)

        start = quadratic(weights.view_factors[view].ravel(order="F"))
        for budget in (1, 2, 5):
            new, stats = solver.update_view_weights(
                A, B, weights.view_factors[view], cf, indicator, config, max_iters=budget
            )
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
        new_cf = solver.update_cluster_weights(emb, weights.cluster_factor, indicator, config)
        gram = emb.T @ emb
        p = solver.irls_diag(weights.cluster_factor, config.irls_epsilon)
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

    return results
