"""Alternating-minimization solver for CP-factorized multi-view regression clustering.

The model scores instance/cluster affinity through a low-rank weight tensor
over all bias-augmented views and the cluster axis.  Keeping the tensor in CP
form, the score matrix is the elementwise product of per-view projections
times the cluster factor, and training alternates three block updates: a
reweighted least-squares update per view factor (an SPD linear system applied
matrix-free and improved by a few warm-started conjugate-gradient steps), an
exact row-decoupled SPD solve for the cluster factor, and an exact
nearest-orthonormal update of the relaxed cluster indicator.  Row-sparsity
regularization enters through iteratively reweighted diagonal matrices, each
taken from the current value of the factor it reweights, so every block
minimizes a majorizer anchored there.
``fit`` runs these updates in the one outer loop, which records the trace and
applies the stop rule; the concatenated-view baseline in ``synth`` has a
closed form, needs no loop, and shares the report types and label extraction.
``fit`` computes each operand once and hands it to the updates that share it:
it keeps the per-view projections ``z_v.T @ W_v`` between updates, refreshing
one after each view update, and from it each view update forms its CG start
residual; it builds ``C.T @ C`` and ``Y @ C`` once per outer iteration for all
view updates; and the row norms the objective computes at the end of an
iteration become the next iteration's reweighting diagonals.

The view update is inexact by design (inexact block majorization-minimization,
Hunter & Lange 2004; Razaviyayn, Hong & Luo 2013): the reweighted system is
the normal equation of a quadratic majorizer of the objective in that block,
and CG minimizes that quadratic over the warm start plus a Krylov space, so
any step budget of at least one keeps the objective non-increasing.  A stall
after such updates is not taken as convergence until an iteration of full
view solves confirms it.
"""

from __future__ import annotations

import json
import logging
import math
import time
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .data import AugmentedViews, MultiViewDataset, _scale_views_into

logger = logging.getLogger(__name__)

__all__ = [
    "SolverError",
    "CPWeights",
    "ClusterIndicator",
    "FitConfig",
    "CGStats",
    "IterationRecord",
    "FitReport",
    "init_model",
    "project",
    "compute_embedding",
    "predict_scores",
    "objective",
    "irls_diag",
    "apply_H",
    "update_view_weights",
    "update_cluster_weights",
    "update_indicator",
    "nearest_orthonormal",
    "extract_labels",
    "lloyd_kmeans",
    "fit",
]

ORTHONORMALITY_TOL = 1e-8
CLUSTER_SOLVE_TOL = 1e-8
# warm-started CG steps per view update inside ``fit`` (capped by
# ``FitConfig.cg_max_iters``); fewer steps make each outer iteration cheaper
# but less effective, and at 2 or 3 steps recovery accuracy measurably drops
VIEW_CG_STEPS = 4
# floor on a row norm in the reweighting diagonal, which keeps a zero row's
# weight finite
IRLS_EPSILON = 1e-12
# half-width of the uniform draws of the initial factors
INIT_SCALE = 0.1
# cap on Lloyd steps per K-means restart
KMEANS_MAX_ITERS = 300


class SolverError(RuntimeError):
    """A subproblem produced non-finite values or missed its residual contract."""


# ---------------------------------------------------------------------------
# Model state types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CPWeights:
    """Factor matrices of the rank-R weight tensor.

    ``view_factors[v]`` has shape ``(D_v + 1, R)`` (one row per augmented
    feature of view ``v``; the last row pairs with the constant feature and
    carries the view's bias factors).  ``cluster_factor`` has shape ``(K, R)``.
    All factors share the column count ``R``.
    """

    view_factors: tuple[np.ndarray, ...]
    cluster_factor: np.ndarray

    def __post_init__(self):
        factors = tuple(np.ascontiguousarray(f, dtype=np.float64) for f in self.view_factors)
        cluster = np.ascontiguousarray(self.cluster_factor, dtype=np.float64)
        if not factors:
            raise ValueError("need at least one view factor")
        rank = cluster.shape[1] if cluster.ndim == 2 else -1
        for i, f in enumerate(factors):
            if f.ndim != 2 or f.shape[1] != rank:
                raise ValueError(
                    f"view factor {i} has shape {f.shape}, expected column count {rank}"
                )
            if not np.isfinite(f).all():
                raise ValueError(f"view factor {i} contains non-finite entries")
        if cluster.ndim != 2 or rank < 1:
            raise ValueError(f"cluster factor has invalid shape {cluster.shape}")
        if not np.isfinite(cluster).all():
            raise ValueError("cluster factor contains non-finite entries")
        object.__setattr__(self, "view_factors", factors)
        object.__setattr__(self, "cluster_factor", cluster)

    @property
    def n_views(self) -> int:
        return len(self.view_factors)

    @property
    def rank(self) -> int:
        return self.cluster_factor.shape[1]

    @property
    def n_parameters(self) -> int:
        """Free parameters actually stored: R * (K + sum of augmented view dims)."""
        return sum(f.size for f in self.view_factors) + self.cluster_factor.size


@dataclass(frozen=True)
class ClusterIndicator:
    """Relaxed cluster assignment: an N x K matrix with orthonormal columns."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.ascontiguousarray(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[1] > m.shape[0]:
            raise ValueError(f"indicator must be N x K with K <= N, got {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("indicator contains non-finite entries")
        gram_err = np.abs(m.T @ m - np.eye(m.shape[1])).max()
        if gram_err > ORTHONORMALITY_TOL:
            raise ValueError(
                f"indicator columns are not orthonormal (max deviation {gram_err:.3e})"
            )
        object.__setattr__(self, "matrix", m)

    @property
    def n_clusters(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class FitConfig:
    """Model parameters (``rank``, ``gamma``) and solver controls for a fit run."""

    rank: int = 10
    gamma: float = 0.01
    max_outer_iters: int = 100
    outer_tol: float = 1e-6
    cg_tol: float = 1e-8
    cg_max_iters: int = 500
    seed: int = 0

    def __post_init__(self):
        if not np.all(np.isfinite((self.gamma, self.outer_tol, self.cg_tol))):
            raise ValueError("gamma and tolerances must be finite")
        if self.rank < 1:
            raise ValueError("rank must be at least 1")
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")
        if self.max_outer_iters < 1 or self.cg_max_iters < 1:
            raise ValueError("iteration limits must be positive")
        if self.outer_tol <= 0 or self.cg_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class CGStats:
    """Diagnostics of one conjugate-gradient solve."""

    iterations: int
    # final relative residual ||r|| / ||b||.  r is the true residual b - H x
    # whenever the solve converged; after a step budget or curvature exit it
    # is the CG recurrence's residual, measured within 1.5e-11 relative of
    # the true one (median 1.3e-13) over 1144 budgeted view solves of ``fit``
    # (N=300, D=3x10, R=10 and N=1000, D=3x50, R=20; seeds 0-3)
    residual: float
    converged: bool


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    objective: float
    fit_term: float
    reg_term: float
    cg: tuple[CGStats, ...]
    elapsed_sec: float


@dataclass(frozen=True)
class FitReport:
    """Outcome of a fit: per-iteration trace plus the final model state."""

    config: FitConfig
    n_clusters: int
    trace: tuple[IterationRecord, ...]
    weights: CPWeights
    indicator: ClusterIndicator
    labels: np.ndarray
    converged: bool
    total_time_sec: float
    model: str = "cp_multiview"

    def __post_init__(self):
        if not self.trace:
            raise ValueError("trace must contain at least one iteration record")
        if not all(np.isfinite(rec.objective) for rec in self.trace):
            raise ValueError("trace contains a non-finite objective value")
        labels = np.asarray(self.labels, dtype=np.int64)
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "trace", tuple(self.trace))

    @property
    def n_iterations(self) -> int:
        return len(self.trace)

    @property
    def objectives(self) -> np.ndarray:
        return np.array([rec.objective for rec in self.trace])

    def to_dict(self, include_timing: bool = True) -> dict:
        """Plain-Python representation, ready for JSON serialization.

        Each trace entry holds its ``IterationRecord``'s fields, and each CG
        entry its ``CGStats``'s.  The wall-clock fields are the ones named
        ``*_sec``; ``include_timing=False`` drops them, which makes the result
        bit-reproducible across runs with the same config.

        The N x K indicator is left out: a fit's is the nearest orthonormal
        matrix to the factors' scores on the normalized, augmented views, and
        a baseline's is its closed form, so the model and the dataset rebuild
        it.
        """

        def timed(fields: dict) -> dict:
            if include_timing:
                return fields
            return {k: v for k, v in fields.items() if not k.endswith("_sec")}

        trace = []
        for rec in self.trace:
            entry = asdict(rec)
            entry["cg"] = list(entry["cg"])  # a list, as JSON reads it back
            trace.append(timed(entry))
        return timed({
            "model": self.model,
            "n_clusters": int(self.n_clusters),
            "config": asdict(self.config),
            "converged": bool(self.converged),
            "n_iterations": self.n_iterations,
            "objective": float(self.trace[-1].objective),
            "trace": trace,
            "labels": self.labels.tolist(),
            "view_factors": [f.tolist() for f in self.weights.view_factors],
            "cluster_factor": self.weights.cluster_factor.tolist(),
            "total_time_sec": float(self.total_time_sec),
        })

    def to_json(self, include_timing: bool = True) -> str:
        """Compact JSON with sorted keys."""
        return json.dumps(self.to_dict(include_timing), sort_keys=True)


# ---------------------------------------------------------------------------
# Model operations
# ---------------------------------------------------------------------------


def init_model(
    z: AugmentedViews, config: FitConfig, n_clusters: int
) -> tuple[CPWeights, ClusterIndicator]:
    """Draw the initial factors and indicator deterministically from the seed.

    Factors are i.i.d. uniform on ``[-INIT_SCALE, INIT_SCALE]``; the indicator
    is the orthonormal factor (reduced QR) of a standard-Gaussian N x K matrix.
    """
    n = z.n_instances
    if not 1 <= n_clusters <= n:
        raise ValueError(f"n_clusters must be in [1, {n}], got {n_clusters}")
    rng = np.random.default_rng(config.seed)
    factors = tuple(
        rng.uniform(-INIT_SCALE, INIT_SCALE, size=(zv.shape[0], config.rank))
        for zv in z.z_views
    )
    cluster = rng.uniform(-INIT_SCALE, INIT_SCALE, size=(n_clusters, config.rank))
    q, _ = np.linalg.qr(rng.standard_normal((n, n_clusters)))
    return CPWeights(factors, cluster), ClusterIndicator(q)


def project(z: AugmentedViews, weights: CPWeights) -> list[np.ndarray]:
    """Per-view projections ``z_view.T @ view_factor`` (each N x R), in view
    order."""
    if weights.n_views != z.n_views:
        raise ValueError(f"weights cover {weights.n_views} views, data has {z.n_views}")
    for v, (zv, wv) in enumerate(zip(z.z_views, weights.view_factors)):
        if zv.shape[0] != wv.shape[0]:
            raise ValueError(
                f"view {v}: factor has {wv.shape[0]} rows, augmented view has "
                f"{zv.shape[0]} features"
            )
    return [zv.T @ wv for zv, wv in zip(z.z_views, weights.view_factors)]


def compute_embedding(projections, exclude: int | None = None) -> np.ndarray:
    """Joint latent representation: the elementwise product of the per-view
    projections (see ``project``), shape N x R.

    With ``exclude`` set, that view is left out of the product; excluding the
    only view yields the all-ones matrix (the empty-product identity).
    """
    if exclude is not None and not 0 <= exclude < len(projections):
        raise ValueError(f"exclude {exclude} out of range for {len(projections)} views")
    included = [p for v, p in enumerate(projections) if v != exclude]
    if not included:
        return np.ones(projections[0].shape)
    # a copy of the first factor, which is ``1 * p`` exactly
    out = np.array(included[0], dtype=np.float64)
    for p in included[1:]:
        out *= p
    return out


def predict_scores(z: AugmentedViews, weights: CPWeights) -> np.ndarray:
    """N x K score matrix: embedding times the transposed cluster factor."""
    return compute_embedding(project(z, weights)) @ weights.cluster_factor.T


def objective(
    scores: np.ndarray,
    weights: CPWeights,
    indicator: ClusterIndicator,
    gamma: float,
) -> tuple[float, float, float, list[np.ndarray]]:
    """Evaluate the training objective from the score matrix of ``weights``.

    Returns ``(total, fit_term, reg_term, row_norms)`` where the fit term is
    the squared Frobenius distance between scores and indicator, and the
    regularizer is ``gamma`` times the sum over all factors of their row-norm
    sums (the row-sparsity norm).  ``row_norms`` lists those row norms per
    factor, the view factors in order and then the cluster factor; ``fit``
    turns them into the next sweep's reweighting diagonals.
    """
    if gamma < 0:
        raise ValueError("gamma must be non-negative")
    resid = scores - indicator.matrix
    fit_term = float((resid * resid).sum())
    row_norms = [_row_norms(f) for f in (*weights.view_factors, weights.cluster_factor)]
    row_norm_sum = 0.0
    for norms in row_norms:
        row_norm_sum += float(norms.sum())
    reg_term = gamma * row_norm_sum
    return fit_term + reg_term, fit_term, reg_term, row_norms


def _row_norms(factor: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row."""
    return np.sqrt((factor * factor).sum(axis=1))


def _reweighting(row_norms: np.ndarray) -> np.ndarray:
    """``irls_diag`` of a factor with these row norms."""
    return 1.0 / (2.0 * np.maximum(row_norms, IRLS_EPSILON))


def irls_diag(factor) -> np.ndarray:
    """Row-reweighting diagonal: entry i is ``1 / (2 max(||row i||, IRLS_EPSILON))``."""
    return _reweighting(_row_norms(np.asarray(factor, dtype=np.float64)))


def apply_H(x_vec, A, B, C, D_diag, gamma: float) -> np.ndarray:
    """Apply the view-update system operator to a stacked vector, matrix-free.

    With ``X`` the column-major reshape of ``x_vec`` to M x R, computes

        vec( A @ (B * ((B * (A.T @ X)) @ C)) + gamma * diag(D_diag) @ X )

    which equals ``H @ x_vec`` for the dense Kronecker operator assembled by
    the oracle module, without ever forming the (M*R)^2 matrix.  The products
    are taken with the operand layouts of that expression, so the result is
    bit for bit its value; the elementwise steps reuse their buffers, and the
    sum is written straight into the returned vector.
    """
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    C = np.asarray(C, dtype=np.float64)
    D_diag = np.asarray(D_diag, dtype=np.float64).ravel()
    x_vec = np.asarray(x_vec, dtype=np.float64).ravel()
    m, n = A.shape
    r = B.shape[1]
    if B.shape[0] != n or C.shape != (r, r) or D_diag.size != m:
        raise ValueError(
            f"inconsistent shapes: A {A.shape}, B {B.shape}, C {C.shape}, "
            f"D_diag {D_diag.shape}"
        )
    if x_vec.size != m * r:
        raise ValueError(f"x_vec has {x_vec.size} entries, expected {m * r}")
    X = x_vec.reshape((m, r), order="F")
    inner = A.T @ X
    inner *= B
    return _apply_H_tail(inner, X, A, B, C, D_diag, gamma)


def _apply_H_tail(inner, X, A, B, C, D_diag, gamma):
    """``apply_H`` from ``inner = (A.T @ X) * B`` on, with the same operations;
    returns vec(H X) as a new column-major vector."""
    inner = inner @ C
    inner *= B
    m, r = X.shape
    out = np.empty(m * r)
    # a column-major view, so the vec of the sum is ``out`` itself
    total = out.reshape((m, r), order="F")
    np.multiply(D_diag[:, None], X, out=total)
    total *= gamma
    np.add(A @ inner, total, out=total)
    return out


def _frobenius(a: np.ndarray) -> float:
    """``np.linalg.norm(a)`` by its own operations, without its dispatch."""
    flat = a.ravel(order="K")
    return math.sqrt(float(flat.dot(flat)))


def _conjugate_gradient(matvec, b, x0, r0, tol, max_iters):
    """Plain CG on an SPD operator, warm-started at x0 with initial residual
    ``r0 = b - H x0`` (the caller's, so a cached product can supply it).

    Stops when the true residual satisfies ||b - H x|| <= tol * ||b|| or after
    max_iters matvec steps.  Recurrence-based convergence is verified against
    the explicitly recomputed residual before it is trusted.  The reported
    residual is the norm of ``r`` as the loop leaves it: the true residual
    after a confirmed stop, the recurrence's otherwise, so an exit on the step
    budget costs no extra matvec.  ``x``, ``r`` and ``p`` are updated in place
    through one step buffer with the operations of ``x += alpha * p``,
    ``r -= alpha * hp`` and ``p = r + beta * p``, so the iterates are bit for
    bit those of ``oracle.reference_conjugate_gradient``.  Inner products and
    finiteness checks use the ndarray methods, which run the same BLAS ``ddot``
    and ufunc reductions as ``@`` and ``np.all`` without their dispatch.
    """
    b = np.asarray(b, dtype=np.float64)
    b_norm = _frobenius(b)
    if b_norm == 0.0:
        return np.zeros_like(b), CGStats(0, 0.0, True)
    x = np.array(x0, dtype=np.float64, copy=True)
    r = np.array(r0, dtype=np.float64, copy=True)
    if not np.isfinite(r).all():
        raise SolverError("conjugate gradient: non-finite residual at start")
    target = tol * b_norm
    rs = float(r.dot(r))
    p = r.copy()
    step = np.empty_like(r)
    iterations = 0
    while math.sqrt(rs) > target and iterations < max_iters:
        hp = matvec(p)
        php = float(p.dot(hp))
        if not math.isfinite(php):
            raise SolverError("conjugate gradient diverged: non-finite curvature")
        if php <= 0.0:
            break  # numerically semidefinite direction; keep the current iterate
        alpha = rs / php
        x += np.multiply(p, alpha, out=step)
        r -= np.multiply(hp, alpha, out=step)
        iterations += 1
        rs_new = float(r.dot(r))
        if not math.isfinite(rs_new):
            raise SolverError("conjugate gradient diverged: non-finite residual")
        if math.sqrt(rs_new) <= target:
            # confirm with the true residual; restart from it if drift remains
            r = b - matvec(x)
            rs = float(r.dot(r))
            if math.sqrt(rs) <= target:
                break
            p[:] = r
            continue
        p *= rs_new / rs
        p += r
        rs = rs_new
    if not np.isfinite(x).all():
        raise SolverError("conjugate gradient diverged: non-finite iterate")
    # ``rs`` is ``r.dot(r)`` for the ``r`` the loop leaves
    residual = math.sqrt(rs) / b_norm
    return x, CGStats(iterations, residual, residual <= tol)


def update_view_weights(
    z_view: np.ndarray,
    embedding: np.ndarray,
    factor: np.ndarray,
    projection: np.ndarray,
    diag: np.ndarray,
    cluster_gram: np.ndarray,
    cluster_target: np.ndarray,
    config: FitConfig,
    max_iters: int | None = None,
) -> tuple[np.ndarray, CGStats]:
    """Solve the reweighted least-squares subproblem for one view's factor.

    ``embedding`` is the product of the other views' projections (N x R) and
    ``factor`` the current factor (M x R) of the view with data ``z_view``
    (M x N); ``projection`` is that view's ``z_view.T @ factor``.  ``diag`` is
    the reweighting diagonal of the factor being updated (``irls_diag``), so
    the system is the majorizer anchored at the current factor.
    ``cluster_gram`` is ``C.T @ C`` and ``cluster_target`` is ``Y @ C`` for
    the cluster factor C and indicator matrix Y; they are the same for every
    view of a sweep.  The stationarity condition is an SPD linear system in
    the stacked factor; it is applied matrix-free (``apply_H``) and solved by
    conjugate gradient, warm-started from the current factor, whose residual
    there is formed from ``projection`` with ``apply_H``'s operations.  CG
    stops at relative residual ``config.cg_tol`` or after ``max_iters`` steps
    (default ``config.cg_max_iters``).  A smaller ``max_iters`` gives an
    inexact update that still never raises the subproblem's quadratic above
    its value at the warm start.  Returns the updated factor matrix and the CG
    diagnostics.
    """
    m, n = z_view.shape
    r = embedding.shape[1]
    if embedding.shape[0] != n:
        raise ValueError(f"embedding {embedding.shape} does not match view {z_view.shape}")
    if factor.shape != (m, r):
        raise ValueError(f"factor {factor.shape} does not match view {z_view.shape}")
    if (projection.shape != (n, r) or diag.shape != (m,) or cluster_gram.shape != (r, r)
            or cluster_target.shape != (n, r)):
        raise ValueError(
            f"inconsistent operands: projection {projection.shape}, diag {diag.shape}, "
            f"cluster_gram {cluster_gram.shape}, cluster_target {cluster_target.shape}"
        )
    if max_iters is None:
        max_iters = config.cg_max_iters
    elif max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters}")
    b = (z_view @ (embedding * cluster_target)).ravel(order="F")
    r0 = b - _apply_H_tail(
        projection * embedding, factor, z_view, embedding, cluster_gram, diag, config.gamma
    )

    def matvec(v):
        return apply_H(v, z_view, embedding, cluster_gram, diag, config.gamma)

    x, stats = _conjugate_gradient(
        matvec, b, factor.ravel(order="F"), r0, config.cg_tol, max_iters
    )
    return np.ascontiguousarray(x.reshape(factor.shape, order="F")), stats


def update_cluster_weights(
    embedding: np.ndarray,
    diag: np.ndarray,
    indicator: ClusterIndicator,
    config: FitConfig,
) -> np.ndarray:
    """Exactly solve the cluster-factor stationarity equation.

    ``embedding`` is the product of all view projections (N x R) and ``diag``
    the reweighting diagonal of the current cluster factor (``irls_diag``, row
    norms floored at ``IRLS_EPSILON``).  The equation
    ``W @ G + gamma * P @ W = T`` (G the embedding Gram matrix, P = diag(diag),
    T the indicator/embedding cross term; gamma ``config.gamma``) splits into
    K independent R x R SPD systems because P is diagonal; row k solves
    ``(G + gamma * p_k I) w = t_k``.  A singular row system (possible only at
    gamma = 0 with a rank-deficient embedding) gets a diagonal jitter and a
    warning.  The returned matrix satisfies the equation with Frobenius
    residual at most ``1e-8 * (1 + ||T||_F)``.
    """
    r = embedding.shape[1]
    if diag.shape != (indicator.n_clusters,):
        raise ValueError(
            f"diag {diag.shape}, expected one entry per cluster ({indicator.n_clusters})"
        )
    gram = embedding.T @ embedding
    target = indicator.matrix.T @ embedding
    shifts = config.gamma * diag
    systems = gram[None, :, :] + shifts[:, None, None] * np.eye(r)[None, :, :]
    bound = CLUSTER_SOLVE_TOL * (1.0 + _frobenius(target))

    def equation_defect(w):
        return target - (w @ gram + shifts[:, None] * w)

    def solve_refined(mats):
        """Direct solve plus one refinement step; None on LAPACK failure."""
        try:
            w = np.linalg.solve(mats, target[:, :, None])[:, :, 0]
            w = w + np.linalg.solve(mats, equation_defect(w)[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            return None
        if not np.isfinite(w).all():
            return None
        return w

    solution = solve_refined(systems)
    if solution is None or _frobenius(equation_defect(solution)) > bound:
        # singular row system: possible only at gamma = 0 with a rank-deficient
        # embedding, where the cross term still lies in the Gram range, so a
        # small diagonal shift recovers an accurate solution
        jitter = max(1e-10 * float(np.trace(gram)) / r, np.finfo(np.float64).tiny)
        warnings.warn(
            f"singular cluster-factor row system; adding diagonal jitter {jitter:.3e}",
            RuntimeWarning,
            stacklevel=2,
        )
        solution = solve_refined(systems + jitter * np.eye(r)[None, :, :])
        if solution is None:
            raise SolverError("cluster-factor solve failed even with jitter")
        defect_norm = _frobenius(equation_defect(solution))
        if defect_norm > bound:
            raise SolverError(
                f"cluster-factor solve residual {defect_norm:.3e} "
                f"exceeds contract {bound:.3e}"
            )
    return solution


def nearest_orthonormal(matrix) -> np.ndarray:
    """Closest matrix with orthonormal columns in Frobenius norm, via SVD."""
    a = np.asarray(matrix, dtype=np.float64)
    if not np.isfinite(a).all():
        raise SolverError("nearest_orthonormal received non-finite entries")
    u, _, vt = np.linalg.svd(a, full_matrices=False)
    return u @ vt


def update_indicator(scores: np.ndarray) -> ClusterIndicator:
    """Replace the indicator with the orthonormal matrix nearest to the score
    matrix, the global minimizer of the fit term under the orthonormality
    constraint."""
    return ClusterIndicator(nearest_orthonormal(scores))


# ---------------------------------------------------------------------------
# Discrete label extraction
# ---------------------------------------------------------------------------


def _plus_plus_centers(points, points_t, k, rng):
    """k-means++ seeding: the first center uniform, each next one drawn with
    probability proportional to its squared distance to the nearest center
    so far.  Each distance is a column sum over the D x N copy ``points_t``.

    A draw inverts the normalized cumulative distribution at one uniform
    variate, the computation and the random draw of ``rng.choice(n, p=...)``
    without its validation of ``p`` on every draw."""
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    squares = np.empty_like(points_t)
    new_d2 = np.empty(n)

    def squared_distances(center, out):
        np.subtract(points_t, center[:, None], out=squares)
        return np.square(squares, out=squares).sum(axis=0, out=out)

    centers[0] = points[int(rng.integers(n))]
    d2 = squared_distances(centers[0], np.empty(n))
    for j in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            cdf = (d2 / total).cumsum()
            cdf /= cdf[-1]
            idx = int(cdf.searchsorted(rng.random(), side="right"))
        centers[j] = points[idx]
        np.minimum(d2, squared_distances(centers[j], new_d2), out=d2)
    return centers


def _first_argmin(d2):
    """For each column of the K x N ``d2``, the first row that attains the
    column minimum, which is ``argmin``'s tie rule, found with reductions
    along contiguous rows.  The result has the narrowest unsigned type that
    holds K - 1."""
    k = d2.shape[0]
    # rows ranked in reverse, so the first minimum of a column has the top rank
    rank = np.arange(k - 1, -1, -1, dtype=np.min_scalar_type(k - 1))[:, None]
    return (k - 1) - ((d2 == d2.min(axis=0)) * rank).max(axis=0)


def _lloyd_once(points, points_t, point_sq, k, rng):
    """One seeded Lloyd run on the N x D ``points``, given their D x N copy
    ``points_t`` and squared norms ``point_sq``; returns (labels, inertia).

    Each step forms the K x N squared distances ``|x|^2 - 2 C X^T + |c|^2``
    and assigns each point to the first center that attains its column
    minimum, ``argmin``'s tie rule.  The run stops when an assignment repeats,
    before the means are recomputed from unchanged labels, or after
    ``KMEANS_MAX_ITERS`` steps."""
    centers = _plus_plus_centers(points, points_t, k, rng)
    labels = None
    for _ in range(KMEANS_MAX_ITERS):
        # scaling by -2 is exact, so folding it into the centers changes no bit
        d2 = (-2.0 * centers) @ points_t
        d2 += point_sq
        d2 += np.einsum("ij,ij->i", centers, centers)[:, None]
        # a narrow integer key, which the stable sort below orders by radix
        new_labels = _first_argmin(d2)
        counts = np.bincount(new_labels, minlength=k)
        for j in np.flatnonzero(counts == 0):
            # reseed an empty cluster, in cluster order, at the worst-assigned
            # point of a cluster that keeps another point
            assigned = np.sum((points - centers[new_labels]) ** 2, axis=1)
            assigned[counts[new_labels] < 2] = -1.0
            worst = int(np.argmax(assigned))
            counts[new_labels[worst]] -= 1
            counts[j] = 1
            new_labels[worst] = j
        if labels is not None and np.array_equal(new_labels, labels):
            # the current means are bit for bit the ones these labels give
            break
        labels = new_labels
        # cluster means: the members of each cluster summed in index order
        order = np.argsort(labels, kind="stable")
        starts = np.concatenate(([0], np.cumsum(counts[:-1])))
        centers = np.add.reduceat(np.take(points, order, axis=0), starts, axis=0)
        centers /= counts[:, None]
    labels = labels.astype(np.int64)
    inertia = float(np.sum((points - centers[labels]) ** 2))
    return labels, inertia


def lloyd_kmeans(points, n_clusters: int, n_restarts: int = 20, seed: int = 0) -> np.ndarray:
    """Best-of-``n_restarts`` Lloyd runs of at most ``KMEANS_MAX_ITERS`` steps
    with distance-weighted seeding, deterministic for a fixed seed and BLAS
    thread count.

    The N x D ``points`` are copied once into a contiguous D x N array, and
    their squared norms computed once, for all restarts; distances are formed
    as K x N matrices, so every per-point reduction runs along contiguous
    rows.  A point equidistant from several centers joins the first of them,
    as with ``argmin``; the first restart with the least inertia wins.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or not 1 <= n_clusters <= pts.shape[0]:
        raise ValueError(
            f"need a 2-d point array with at least {n_clusters} rows, got {pts.shape}"
        )
    if n_restarts < 1:
        raise ValueError(f"n_restarts must be at least 1, got {n_restarts}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    # every squared distance, and their sum over the points, is at most
    # 4 * n * d * peak^2, where peak is the largest entry magnitude
    peak = float(np.max(np.abs(pts)))
    limit = float(np.sqrt(np.finfo(float).max / (4.0 * pts.size)))
    if peak > limit:
        raise ValueError(
            f"points too large for K-means: entries up to {peak:.3e} exceed "
            f"{limit:.3e}, where squared distances would overflow"
        )
    pts_t = np.ascontiguousarray(pts.T)
    point_sq = np.einsum("ij,ij->i", pts, pts)
    rng = np.random.default_rng(seed)
    best_labels, best_inertia = None, np.inf
    for _ in range(n_restarts):
        labels, inertia = _lloyd_once(pts, pts_t, point_sq, n_clusters, rng)
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    return best_labels


def extract_labels(indicator: ClusterIndicator, seed: int = 0) -> np.ndarray:
    """Discrete cluster ids from the indicator rows via K-means (20 restarts)."""
    return lloyd_kmeans(indicator.matrix, indicator.n_clusters, n_restarts=20, seed=seed)


# ---------------------------------------------------------------------------
# Outer loop
# ---------------------------------------------------------------------------


def fit(dataset: MultiViewDataset, n_clusters: int, config: FitConfig) -> FitReport:
    """Run the full alternating-minimization loop on a raw dataset.

    Pipeline: normalize each view, append the constant feature, draw the
    initial state from ``config.seed``, then per outer iteration update every
    view factor, the cluster factor, and the indicator, in that order.  The
    cluster-side operands ``C.T @ C`` and ``Y @ C`` of the view systems are
    computed once per iteration, each view update starts CG from the residual
    formed with its kept projection, and each factor's reweighting diagonal
    comes from the row norms the previous iteration's objective computed (the
    initial factors' norms in the first iteration), so it is still anchored at
    the factor's current value.
    Each view update takes at most ``min(config.cg_max_iters, VIEW_CG_STEPS)``
    warm-started CG steps, which keeps the objective non-increasing.
    The objective is recorded after every outer iteration; the loop stops when
    its relative change drops below ``config.outer_tol`` in an iteration whose
    view updates were solved to ``config.cg_tol`` (or ``config.cg_max_iters``
    steps), or after ``config.max_outer_iters`` iterations.  When the change
    drops below the tolerance after budgeted updates, the next iteration
    solves its view updates in full to confirm the stop.  Non-convergence is
    reported via the ``converged`` flag, not raised.

    Parameters
    ----------
    dataset : MultiViewDataset
        Raw (unnormalized) views; labels, if any, are ignored by the fit.
    n_clusters : int
        Number of clusters K, at most the number of instances.
    config : FitConfig
        Hyperparameters and solver controls.

    Returns
    -------
    FitReport
        Per-iteration trace, final factors and indicator, discrete labels
        (K-means on the indicator rows), and the convergence flag.
    """
    t_start = time.perf_counter()
    # each view is scaled straight into its augmented buffer, so the fit holds
    # one working copy of the data beside the caller's views
    n = dataset.n_instances
    z_views = tuple(np.empty((d + 1, n)) for d in dataset.dims)
    _scale_views_into(dataset.views, [zv[:-1] for zv in z_views])
    for zv in z_views:
        zv[-1] = 1.0
    z = AugmentedViews(z_views)
    weights, indicator = init_model(z, config, n_clusters)
    factors, cluster = list(weights.view_factors), weights.cluster_factor
    projections = project(z, weights)
    # row norms of the current factors, views then cluster; after the first
    # sweep they are the ones the objective computed
    row_norms = [_row_norms(f) for f in (*factors, cluster)]
    cg_budget = min(config.cg_max_iters, VIEW_CG_STEPS)

    trace: list[IterationRecord] = []
    converged = False
    full_solves = False
    prev_total: float | None = None
    for it in range(1, config.max_outer_iters + 1):
        t_iter = time.perf_counter()
        budget = config.cg_max_iters if full_solves else cg_budget
        # the cluster side of every view system is fixed during the sweep
        cluster_gram = cluster.T @ cluster
        cluster_target = indicator.matrix @ cluster
        cg_stats = []
        for v, zv in enumerate(z.z_views):
            factors[v], stats = update_view_weights(
                zv, compute_embedding(projections, exclude=v), factors[v], projections[v],
                _reweighting(row_norms[v]), cluster_gram, cluster_target, config,
                max_iters=budget,
            )
            projections[v] = zv.T @ factors[v]
            cg_stats.append(stats)
        embedding = compute_embedding(projections)
        cluster = update_cluster_weights(
            embedding, _reweighting(row_norms[-1]), indicator, config
        )
        scores = embedding @ cluster.T
        indicator = update_indicator(scores)
        weights = CPWeights(tuple(factors), cluster)
        total, fit_term, reg_term, row_norms = objective(
            scores, weights, indicator, config.gamma
        )
        trace.append(
            IterationRecord(
                iteration=it,
                objective=total,
                fit_term=fit_term,
                reg_term=reg_term,
                cg=tuple(cg_stats),
                elapsed_sec=time.perf_counter() - t_iter,
            )
        )
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug(
                "iteration %d: objective=%.6e fit=%.6e reg=%.6e cg_steps=%d "
                "cg_worst_residual=%.3e",
                it, total, fit_term, reg_term, sum(s.iterations for s in cg_stats),
                max(s.residual for s in cg_stats),
            )
        if prev_total is not None:
            # the fit term compares scores with an indicator of squared norm
            # n_clusters, so its rounding error is about n_clusters * eps; a
            # floor there lets an exactly attained zero optimum count as a stall
            scale = max(prev_total, n_clusters * np.finfo(float).eps)
            stalled = abs(prev_total - total) / scale < config.outer_tol
            # a small change after budget-truncated view updates may only mean
            # that a few CG steps made little progress, so the stop waits for
            # an iteration whose view solves all ran to cg_tol or cg_max_iters
            if stalled and all(
                s.converged or s.iterations == config.cg_max_iters for s in cg_stats
            ):
                converged = True
                break
            full_solves = stalled
        prev_total = total

    return FitReport(
        config=config,
        n_clusters=n_clusters,
        trace=tuple(trace),
        weights=weights,
        indicator=indicator,
        labels=extract_labels(indicator, seed=config.seed),
        converged=converged,
        total_time_sec=time.perf_counter() - t_start,
    )
