"""Synthetic multi-view benchmarks and a first-order regression baseline.

Two generators: a Gaussian-mixture benchmark whose cluster separation is
controlled in units of the within-cluster standard deviation, and a cross-view
sign-interaction benchmark whose labels depend on the *product* of one feature
from each of two views, invisible to any per-view or concatenated linear model.

The baseline fits the regression-clustering model on concatenated views (bias
absorbed).  It needs no alternation: its optimum has a closed form, the top
left singular basis of the design (DIFFRAC with a linear kernel, Bach &
Harchaoui 2007; the PCA relaxation of K-means, Ding & He 2004) with its ridge
weight, both read off one eigendecomposition of the small ridge matrix.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .data import MultiViewDataset, _scale_views_into
from .solver import (
    ClusterIndicator,
    CPWeights,
    FitConfig,
    FitReport,
    IterationRecord,
    extract_labels,
    nearest_orthonormal,
)

__all__ = [
    "SynthSpec",
    "generate",
    "generate_interaction",
    "baseline_regression_cluster",
]


@dataclass(frozen=True)
class SynthSpec:
    """Shape and difficulty of a Gaussian-mixture multi-view benchmark.

    ``separation`` is the minimum distance between cluster centers in units of
    the (unit) within-cluster standard deviation; the last ``noise_views``
    views are replaced by pure noise carrying no cluster signal.
    """

    n_instances: int
    n_views: int
    n_clusters: int
    dims: tuple[int, ...]
    separation: float = 6.0
    noise_views: int = 0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if self.n_instances < 1 or self.n_views < 1 or self.n_clusters < 1:
            raise ValueError("instance, view, and cluster counts must be positive")
        if self.n_clusters > self.n_instances:
            raise ValueError(
                f"cannot place {self.n_clusters} clusters on {self.n_instances} instances"
            )
        if len(self.dims) != self.n_views:
            raise ValueError(
                f"got {len(self.dims)} dims for {self.n_views} views"
            )
        if any(d < 1 for d in self.dims):
            raise ValueError("every view dimensionality must be positive")
        if not 0 <= self.separation < float("inf"):
            raise ValueError("separation must be finite and non-negative")
        if not 0 <= self.noise_views <= self.n_views:
            raise ValueError("noise_views must be between 0 and n_views")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def _separated_centers(rng, k, dim, separation):
    """K centers whose minimum pairwise distance equals ``separation`` exactly,
    obtained by rescaling a Gaussian draw (zero separation collapses all
    centers to the origin)."""
    if k == 1:
        return np.zeros((1, dim))
    while True:
        g = rng.standard_normal((k, dim))
        gaps = [
            float(np.linalg.norm(g[i] - g[j]))
            for i in range(k)
            for j in range(i + 1, k)
        ]
        closest = min(gaps)
        if closest > 0.0:
            return g * (separation / closest)


def generate(spec: SynthSpec) -> MultiViewDataset:
    """Draw a labeled Gaussian-mixture dataset, deterministic from the seed.

    Instances are assigned to clusters round-robin; each informative view gets
    its own cluster centers plus unit-variance Gaussian noise, and the trailing
    ``spec.noise_views`` views are i.i.d. Gaussian.
    """
    rng = np.random.default_rng(spec.seed)
    labels = np.arange(spec.n_instances) % spec.n_clusters
    first_noise_view = spec.n_views - spec.noise_views
    views = []
    for v, dim in enumerate(spec.dims):
        if v >= first_noise_view:
            views.append(rng.standard_normal((dim, spec.n_instances)))
        else:
            centers = _separated_centers(rng, spec.n_clusters, dim, spec.separation)
            noise = rng.standard_normal((dim, spec.n_instances))
            views.append(centers[labels].T + noise)
    return MultiViewDataset(tuple(views), labels=labels)


def generate_interaction(
    n_instances: int, dims: tuple[int, int] = (1, 1), seed: int = 0
) -> MultiViewDataset:
    """Two-view dataset whose two classes are the sign of a cross-view product.

    The designated feature (row 0) of each view carries an independent random
    sign; the label is 1 exactly when the two signs agree, so it is
    statistically independent of every individual feature and no per-view or
    concatenated linear model can see it.  The two designated magnitudes are
    reciprocal (``m`` and ``1/m`` with ``m`` uniform over [0.5, 2]), which
    smears each view's own sign split while keeping the cross-view product
    exactly two-valued.  This is the designed stress case for full-order
    interaction models.  Any further rows are i.i.d. Gaussian with standard
    deviation 0.1.
    """
    if len(dims) != 2 or any(d < 1 for d in dims):
        raise ValueError("interaction benchmark needs two views of positive dims")
    if n_instances < 2:
        raise ValueError("need at least two instances")
    rng = np.random.default_rng(seed)
    while True:
        signs = [rng.choice([-1.0, 1.0], size=n_instances) for _ in range(2)]
        labels = (signs[0] * signs[1] > 0).astype(np.int64)
        if labels.min() != labels.max():
            break
    magnitude = rng.uniform(0.5, 2.0, size=n_instances)
    views = []
    for s, mag, dim in ((signs[0], magnitude, dims[0]), (signs[1], 1.0 / magnitude, dims[1])):
        view = 0.1 * rng.standard_normal((dim, n_instances))
        view[0] = s * mag
        views.append(view)
    return MultiViewDataset(tuple(views), labels=labels)


def _closed_form(design, ridge, gamma, n_clusters, seed):
    """The baseline's optimum from one eigendecomposition of the small ridge
    matrix ``design.T @ design + gamma * I`` (no thin SVD of ``design``).

    Returns the orthonormal indicator Y spanning the top left singular vectors
    of ``design`` and its weight ``V_r diag(1 / lambda_r) V_r' X'Y`` over the
    eigenpairs above rounding level: the ridge weight at ``gamma > 0`` and the
    minimum-norm least-squares one at ``gamma = 0``.  Indicator columns beyond
    the rank of the design are a Gaussian draw from ``seed`` projected off its
    range.
    """
    eigvals, eigvecs = np.linalg.eigh(ridge)
    eigvals, eigvecs = eigvals[::-1], eigvecs[:, ::-1]
    squared = eigvals - gamma
    rank = int(np.count_nonzero(squared > eigvals[0] * max(design.shape) * np.finfo(float).eps))
    k = min(rank, n_clusters)
    start = np.empty((design.shape[0], n_clusters))
    start[:, :k] = design @ eigvecs[:, :k]
    if k < n_clusters:
        basis = start[:, :k] / np.sqrt(squared[:k])
        pad = np.random.default_rng(seed).standard_normal((design.shape[0], n_clusters - k))
        start[:, k:] = pad - basis @ (basis.T @ pad)
    indicator = nearest_orthonormal(start)
    kept = eigvecs[:, :rank]
    weight = kept @ ((kept.T @ (design.T @ indicator)) / eigvals[:rank, None])
    return indicator, weight


def baseline_regression_cluster(
    dataset: MultiViewDataset, n_clusters: int, config: FitConfig
) -> FitReport:
    """Regression clustering on concatenated views: no cross-view interactions.

    For a fixed indicator Y the ridge weight is ``(X'X + gamma I)^-1 X'Y``, and
    the objective at that weight is ``tr(Y'(I - X(X'X + gamma I)^-1 X')Y)``,
    minimized over orthonormal Y by the top-K left singular vectors of the
    design X: ``sum_j gamma / (s_j^2 + gamma)`` over the K largest singular
    values, plus one per column beyond the rank of X.  The baseline computes
    that optimum directly, with no alternation, and reports it as one trace
    record with ``converged=True``.  Of ``config`` it reads only ``gamma`` and
    ``seed``.  The indicator does not depend on ``gamma``; at ``gamma = 0``
    (minimum-norm least squares) it is the ``gamma -> 0+`` limit.  ``seed``
    drives the K-means rounding, shared with ``fit``, and, when K exceeds the
    rank of X, the columns past that rank.
    """
    t_start = time.perf_counter()
    # the normalized views are scaled straight into the row blocks of one
    # design, above its all-ones row: the baseline's one working copy
    n = dataset.n_instances
    stacked = np.empty((sum(dataset.dims) + 1, n))
    _scale_views_into(dataset.views, np.split(stacked, np.cumsum(dataset.dims))[:-1])
    if not 1 <= n_clusters <= n:
        raise ValueError(f"n_clusters must be in [1, {n}], got {n_clusters}")
    stacked[-1] = 1.0
    design = stacked.T
    t_solve = time.perf_counter()
    ridge = stacked @ stacked.T + config.gamma * np.eye(stacked.shape[0])
    start, w = _closed_form(design, ridge, config.gamma, n_clusters, config.seed)
    indicator = ClusterIndicator(start)
    residual = design @ w
    residual -= indicator.matrix
    fit_term = float(np.sum(np.square(residual, out=residual)))
    reg_term = config.gamma * float(np.sum(w * w))
    # K-means rounding needs only the indicator
    del stacked, design, residual
    record = IterationRecord(
        iteration=1,
        objective=fit_term + reg_term,
        fit_term=fit_term,
        reg_term=reg_term,
        cg=(),
        elapsed_sec=time.perf_counter() - t_solve,
    )
    # a single concatenated view with an identity cluster factor reproduces
    # the linear scores exactly, so the report wraps the model as rank-K
    return FitReport(
        config=config,
        n_clusters=n_clusters,
        trace=(record,),
        weights=CPWeights((w,), np.eye(n_clusters)),
        indicator=indicator,
        labels=extract_labels(indicator, seed=config.seed),
        converged=True,
        total_time_sec=time.perf_counter() - t_start,
        model="concat_regression",
    )
