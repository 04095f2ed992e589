"""Clustering evaluation: accuracy under optimal label matching, and NMI.

Both metrics compare two partitions of the same instances and are invariant to
relabeling either side.  Accuracy matches predicted to true clusters by an
exact maximum-weight matching on the contingency table (Kuhn-Munkres, in
plain Python on integers, so the module needs numpy only); NMI normalizes
mutual information by the geometric mean of the two partition entropies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import _as_labels

__all__ = ["Partition", "accuracy", "nmi"]


@dataclass(frozen=True)
class Partition:
    """A hard assignment of N instances to at most ``k`` clusters."""

    labels: np.ndarray
    k: int

    def __post_init__(self):
        labels = _as_labels(self.labels)
        if self.k < 1:
            raise ValueError("k must be positive")
        if labels.max() >= self.k:
            raise ValueError(f"labels must lie in [0, {self.k})")
        object.__setattr__(self, "labels", labels)

    @classmethod
    def from_labels(cls, labels, k: int | None = None) -> "Partition":
        labels = np.asarray(labels)
        if k is None:
            k = int(labels.max()) + 1 if labels.size else 0
        return cls(labels, k)

    @property
    def n(self) -> int:
        return self.labels.size


def _contingency(
    true_p: Partition, pred_p: Partition
) -> tuple[np.ndarray, list[int], list[int]]:
    """Contingency table over the labels that occur, with the true and the
    predicted label of each row and column, in increasing order.

    Labels without instances would only add all-zero rows and columns, so the
    table's size is bounded by the instances, not by the largest label.
    """
    if true_p.n != pred_p.n:
        raise ValueError(
            f"partition length mismatch: {true_p.n} vs {pred_p.n} instances"
        )
    true_ids, true_idx = np.unique(true_p.labels, return_inverse=True)
    pred_ids, pred_idx = np.unique(pred_p.labels, return_inverse=True)
    shape = (true_ids.size, pred_ids.size)
    cells = np.ravel_multi_index((true_idx, pred_idx), shape)
    table = np.bincount(cells, minlength=shape[0] * shape[1]).reshape(shape)
    return table, true_ids.tolist(), pred_ids.tolist()


def _max_weight_matching(weights: list[list[int]]) -> list[int]:
    """Column matched to each row in a maximum-weight matching of an integer
    matrix with no more rows than columns, as a list of distinct columns.

    Kuhn-Munkres with shortest augmenting paths, O(n^2 m) for n rows and m
    columns, in exact integer arithmetic.  Rows enter in order and ties go to
    the first column reached, so among maximum matchings it returns the one
    this search meets first; the choice is deterministic.
    """
    n = len(weights)
    m = len(weights[0]) if n else 0
    # cost[i][j] pairs row i with column j - 1; column 0 roots each search
    cost = [[0] + [-w for w in row] for row in weights]
    u = [0] * (n + 1)  # row potentials, row i at u[i + 1]
    v = [0] * (m + 1)  # column potentials
    owner = [0] * (m + 1)  # owner[j]: 1 + the row matched to column j, 0 if free
    for row in range(1, n + 1):
        # grow a shortest-path tree from the new row until it reaches a free column
        owner[0] = row
        way = [0] * (m + 1)  # previous column on the path to each column
        # reduced distance to each column outside the tree; inf until reached,
        # so every distance compared or shifted is an integer
        minv = [math.inf] * (m + 1)
        free, tree = list(range(1, m + 1)), [0]
        j0 = 0
        while owner[j0]:
            i0 = owner[j0]
            c, ui = cost[i0 - 1], u[i0]
            delta = math.inf
            for j in free:
                cur = c[j] - ui - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in tree:
                u[owner[j]] += delta
                v[j] -= delta
            free.remove(j1)
            for j in free:
                minv[j] -= delta
            tree.append(j1)
            j0 = j1
        # augment along the path that ends at free column j0
        while j0:
            j1 = way[j0]
            owner[j0] = owner[j1]
            j0 = j1
    matching = [0] * n
    for j in range(1, m + 1):
        if owner[j]:
            matching[owner[j] - 1] = j - 1
    return matching


def _matched_pairs(table: np.ndarray) -> list[tuple[int, int]]:
    """(row, column) cells of a maximum-weight matching on a contingency
    table; the shorter side is matched into the longer."""
    rows, cols = table.shape
    if cols <= rows:
        return [(t, p) for p, t in enumerate(_max_weight_matching(table.T.tolist()))]
    return list(enumerate(_max_weight_matching(table.tolist())))


def accuracy(true_p: Partition, pred_p: Partition) -> float:
    """Fraction of instances matched under the optimal label mapping."""
    table = _contingency(true_p, pred_p)[0]
    matched = sum(int(table[i, j]) for i, j in _matched_pairs(table))
    return matched / true_p.n


def nmi(true_p: Partition, pred_p: Partition) -> float:
    """Normalized mutual information with geometric-mean normalization.

    Entropies use natural logs over empirical counts.  Degenerate cases: 1.0
    when both partitions are single-cluster (both entropies zero), 0.0 when
    exactly one entropy is zero.
    """
    table = _contingency(true_p, pred_p)[0].astype(np.float64)
    n = true_p.n
    true_counts = table.sum(axis=1)
    pred_counts = table.sum(axis=0)

    def entropy(counts):
        probs = counts[counts > 0] / n
        return float(-np.sum(probs * np.log(probs)))

    h_true = entropy(true_counts)
    h_pred = entropy(pred_counts)
    if h_true == 0.0 and h_pred == 0.0:
        return 1.0
    if h_true == 0.0 or h_pred == 0.0:
        return 0.0

    # only the nonzero cells contribute; np.nonzero visits them in row-major
    # order, the order of a full scan, so the sum is the same bit for bit
    info = 0.0
    rows, cols = np.nonzero(table)
    true_list, pred_list = true_counts.tolist(), pred_counts.tolist()
    for t, p, joint in zip(rows.tolist(), cols.tolist(), table[rows, cols].tolist()):
        info += (joint / n) * math.log(n * joint / (true_list[t] * pred_list[p]))
    value = info / math.sqrt(h_true * h_pred)
    return min(max(value, 0.0), 1.0)
