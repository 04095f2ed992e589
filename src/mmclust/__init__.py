"""Multi-linear multi-view clustering.

Clusters instances observed through several feature views by regressing a
relaxed orthonormal cluster indicator on the full-order multiplicative
interactions between views, with the interaction weight tensor kept in
factorized low-rank form throughout.  Includes brute-force oracles for
verification, clustering metrics, synthetic benchmark generators, and a CLI.
"""

from .data import (
    AugmentedViews,
    DataError,
    MultiViewDataset,
    augment,
    load_dataset,
    normalize_views,
)
from .metrics import Partition, accuracy, nmi, optimal_label_matching
from .solver import (
    CGStats,
    ClusterIndicator,
    CPWeights,
    FitConfig,
    FitReport,
    IterationRecord,
    SolverError,
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
    update_cluster_weights,
    update_indicator,
    update_view_weights,
)
from .synth import SynthSpec, baseline_regression_cluster, generate, generate_interaction

__version__ = "0.1.0"

__all__ = [
    "AugmentedViews",
    "CGStats",
    "ClusterIndicator",
    "CPWeights",
    "DataError",
    "FitConfig",
    "FitReport",
    "IterationRecord",
    "MultiViewDataset",
    "Partition",
    "SolverError",
    "SynthSpec",
    "accuracy",
    "apply_H",
    "augment",
    "baseline_regression_cluster",
    "compute_embedding",
    "extract_labels",
    "fit",
    "generate",
    "generate_interaction",
    "init_model",
    "irls_diag",
    "lloyd_kmeans",
    "load_dataset",
    "nearest_orthonormal",
    "nmi",
    "normalize_views",
    "objective",
    "optimal_label_matching",
    "predict_scores",
    "update_cluster_weights",
    "update_indicator",
    "update_view_weights",
]
