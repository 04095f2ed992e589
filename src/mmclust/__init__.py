"""Multi-linear multi-view clustering.

Clusters instances observed through several feature views by regressing a
relaxed orthonormal cluster indicator on the full-order multiplicative
interactions between views, with the interaction weight tensor kept in
factorized low-rank form throughout.  Includes brute-force oracles for
verification, clustering metrics, synthetic benchmark generators, and a CLI.
"""

from .data import DataError, MultiViewDataset, load_dataset
from .metrics import Partition, accuracy, nmi
from .solver import FitConfig, FitReport, SolverError, fit
from .synth import SynthSpec, baseline_regression_cluster, generate, generate_interaction

__version__ = "0.1.0"

__all__ = [
    "DataError",
    "FitConfig",
    "FitReport",
    "MultiViewDataset",
    "Partition",
    "SolverError",
    "SynthSpec",
    "accuracy",
    "baseline_regression_cluster",
    "fit",
    "generate",
    "generate_interaction",
    "load_dataset",
    "nmi",
]
