"""Clustering metrics: Hungarian-matched accuracy and NMI."""

import math
import tracemalloc

import numpy as np
import pytest

from mmclust import metrics
from mmclust.metrics import Partition, _matched_pairs, _max_weight_matching, accuracy, nmi
from mmclust.oracle import exhaustive_accuracy, nmi_from_contingency, set_partitions


class TestPartition:
    def test_out_of_range_label_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 2\)"):
            Partition(np.array([0, 2]), k=2)

    def test_from_labels_infers_k(self):
        p = Partition.from_labels([1, 0, 1])
        assert p.k == 2 and p.n == 3


def matching(true, pred):
    """Predicted-to-true label map of the matching ``accuracy`` counts."""
    table, true_ids, pred_ids = metrics._contingency(true, pred)
    return {pred_ids[j]: true_ids[i] for i, j in _matched_pairs(table)}


class TestOptimalLabelMatching:
    def test_identical_partitions_identity_map(self):
        p = Partition.from_labels([0, 1, 2, 0])
        assert matching(p, p) == {0: 0, 1: 1, 2: 2}

    def test_known_permutation_inverted(self):
        true = Partition.from_labels([0, 0, 1, 1, 2, 2])
        sigma = {0: 2, 1: 0, 2: 1}
        pred = Partition.from_labels([sigma[t] for t in true.labels])
        assert matching(true, pred) == {v: k for k, v in sigma.items()}

    def test_extra_predicted_cluster_dropped_from_map(self):
        true = Partition.from_labels([0, 0, 0, 0])
        pred = Partition.from_labels([0, 0, 1, 2])
        mapping = matching(true, pred)
        assert len(mapping) == 1
        assert 0 in mapping.values()

    def test_length_mismatch(self):
        for fn in (accuracy, nmi):
            with pytest.raises(ValueError, match="length mismatch"):
                fn(Partition.from_labels([0, 1]), Partition.from_labels([0, 1, 0]))

    def test_padded_tables_drop_padding_and_match_exhaustive(self):
        rng = np.random.default_rng(16)
        for _ in range(60):
            kt, kp = (int(x) for x in rng.choice(np.arange(1, 6), size=2, replace=False))
            n = int(rng.integers(max(kt, kp), 16))
            # every label occurs, so the partitions have exactly kt and kp clusters
            true = np.concatenate([np.arange(kt), rng.integers(0, kt, n - kt)])
            pred = np.concatenate([np.arange(kp), rng.integers(0, kp, n - kp)])
            acc = accuracy(Partition.from_labels(true), Partition.from_labels(pred))
            assert acc == exhaustive_accuracy(true, pred)

    def test_sparse_label_ids_match_their_contiguous_relabeling(self):
        rng = np.random.default_rng(18)
        ids = np.array([3, 999, 5000])
        for _ in range(20):
            dense = rng.integers(0, 3, 40)
            pred = Partition.from_labels(rng.integers(0, 4, 40), k=4)
            sparse_p = Partition.from_labels(ids[dense])
            assert sparse_p.k == 5001
            assert accuracy(sparse_p, pred) == accuracy(Partition.from_labels(dense), pred)
            assert accuracy(sparse_p, pred) == exhaustive_accuracy(dense, pred.labels)

    def test_matcher_sees_only_labels_that_occur(self, monkeypatch):
        # both sides name three clusters by IDs up to 5000 and 400: the
        # matcher gets a 3x3 table, not one padded to the largest ID
        shapes = []

        def spy(weights):
            shapes.append((len(weights), len(weights[0])))
            return _max_weight_matching(weights)

        monkeypatch.setattr(metrics, "_max_weight_matching", spy)
        true = Partition.from_labels([3, 3, 999, 5000, 5000])
        pred = Partition.from_labels([400, 400, 12, 12, 0])
        assert accuracy(true, pred) == 0.8
        assert shapes == [(3, 3)]

    def test_large_label_id_allocates_by_instances(self):
        # one instance of 300 labelled 2,000,000: a table sized by the
        # largest ID would take tens of MB
        rng = np.random.default_rng(21)
        ids = np.array([0, 1, 2, 2_000_000])
        dense = rng.integers(0, 3, 300)
        dense[17] = 3
        raw_p, dense_p = Partition.from_labels(ids[dense]), Partition.from_labels(dense)
        pred_p = Partition.from_labels(rng.integers(0, 3, 300), k=3)
        for fn in (accuracy, nmi):
            tracemalloc.start()
            try:
                fn(raw_p, pred_p)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20, f"{fn.__name__} peaked at {peak} bytes"
        assert accuracy(raw_p, pred_p) == accuracy(dense_p, pred_p)
        assert nmi(raw_p, pred_p) == nmi(dense_p, pred_p)


class TestMaxWeightMatching:
    def test_exact_beyond_float_precision(self):
        # 2**60 + 1 rounds to 2**60 in float64, which would make this a tie
        big = 2**60
        assert _max_weight_matching([[big, big + 1], [big + 1, big]]) == [1, 0]


class TestAccuracy:
    def test_identical_partitions(self):
        p = Partition.from_labels([0, 1, 1, 0, 2])
        assert accuracy(p, p) == 1.0

    def test_independent_two_by_two(self):
        # both possible matchings align exactly two of the four instances
        true = Partition.from_labels([0, 0, 1, 1])
        pred = Partition.from_labels([0, 1, 0, 1])
        assert accuracy(true, pred) == 0.5

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            k = int(rng.integers(2, 5))
            true = rng.integers(0, k, size=12)
            pred = rng.integers(0, k, size=12)
            base = accuracy(Partition.from_labels(true, k=k), Partition.from_labels(pred, k=k))
            sigma = rng.permutation(k)
            shuffled = accuracy(
                Partition.from_labels(true, k=k),
                Partition.from_labels(sigma[pred], k=k),
            )
            assert shuffled == pytest.approx(base, abs=1e-15)

    def test_one_exactly_when_partitions_identical_up_to_relabeling(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            k = int(rng.integers(2, 5))
            true = rng.integers(0, k, size=20)
            relabeled = rng.permutation(k)[true]
            assert accuracy(
                Partition.from_labels(true, k=k), Partition.from_labels(relabeled, k=k)
            ) == 1.0
            # flipping one instance breaks perfection
            broken = relabeled.copy()
            broken[0] = (broken[0] + 1) % k
            assert accuracy(
                Partition.from_labels(true, k=k), Partition.from_labels(broken, k=k)
            ) < 1.0

    def test_symmetric_for_equal_cluster_counts(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            k = int(rng.integers(2, 5))
            a = Partition.from_labels(rng.integers(0, k, size=18), k=k)
            b = Partition.from_labels(rng.integers(0, k, size=18), k=k)
            assert accuracy(a, b) == pytest.approx(accuracy(b, a), abs=1e-15)

    def test_matches_exhaustive_on_all_small_partitions(self):
        # every pair of canonical partitions of up to 5 items
        for n in range(1, 6):
            parts = set_partitions(n)
            for a in parts:
                pa = Partition.from_labels(np.array(a))
                for b in parts:
                    pb = Partition.from_labels(np.array(b))
                    assert accuracy(pa, pb) == pytest.approx(
                        exhaustive_accuracy(a, b), abs=1e-15
                    )


class TestNMI:
    def test_identical_partitions_multiple_clusters(self):
        p = Partition.from_labels([0, 1, 2, 0, 1, 2])
        assert nmi(p, p) == pytest.approx(1.0, abs=1e-12)

    def test_statistically_independent_partitions(self):
        true = Partition.from_labels([0, 0, 1, 1])
        pred = Partition.from_labels([0, 1, 0, 1])
        assert nmi(true, pred) == pytest.approx(0.0, abs=1e-15)

    def test_both_single_cluster(self):
        p = Partition.from_labels([0, 0, 0])
        assert nmi(p, p) == 1.0

    def test_one_single_cluster(self):
        single = Partition.from_labels([0, 0, 0, 0])
        split = Partition.from_labels([0, 1, 0, 1])
        assert nmi(single, split) == 0.0
        assert nmi(split, single) == 0.0

    def test_matches_contingency_recomputation(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            true = rng.integers(0, int(rng.integers(1, 6)), size=n)
            pred = rng.integers(0, int(rng.integers(1, 6)), size=n)
            fast = nmi(Partition.from_labels(true), Partition.from_labels(pred))
            assert fast == pytest.approx(nmi_from_contingency(true, pred), abs=1e-12)

    def test_equals_full_table_scan_bit_for_bit(self):
        # the mutual-information sum over every cell in row-major order, the
        # same scalar expression on the same numpy scalars: skipping the empty
        # cells must leave each value unchanged to the last bit
        rng = np.random.default_rng(20)
        for _ in range(200):
            n = int(rng.integers(2, 300))
            kt, kp = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            true_p = Partition.from_labels(rng.integers(0, kt, n), k=kt)
            pred_p = Partition.from_labels(rng.integers(0, kp, n), k=kp)
            # the dense table over every label in [0, k), zero rows included
            table = np.zeros((kt, kp))
            np.add.at(table, (true_p.labels, pred_p.labels), 1.0)
            rows, cols = table.sum(axis=1), table.sum(axis=0)
            info = 0.0
            for t in range(kt):
                for p in range(kp):
                    if table[t, p] > 0:
                        joint = table[t, p]
                        info += (joint / n) * math.log(n * joint / (rows[t] * cols[p]))
            h_true = float(-np.sum((rows[rows > 0] / n) * np.log(rows[rows > 0] / n)))
            h_pred = float(-np.sum((cols[cols > 0] / n) * np.log(cols[cols > 0] / n)))
            if h_true > 0.0 and h_pred > 0.0:
                want = min(max(info / math.sqrt(h_true * h_pred), 0.0), 1.0)
                assert nmi(true_p, pred_p) == want

    def test_sparse_label_ids_match_their_contiguous_relabeling(self):
        # a 5001-row table with three nonzero rows: only the nonzero cells are
        # visited, in the order a full scan meets them, so the value is exact
        rng = np.random.default_rng(19)
        ids = np.array([3, 999, 5000])
        for _ in range(20):
            dense = rng.integers(0, 3, 60)
            pred = rng.integers(0, 4, 60)
            pred_p = Partition.from_labels(pred, k=4)
            sparse = nmi(Partition.from_labels(ids[dense]), pred_p)
            assert sparse == nmi(Partition.from_labels(dense), pred_p)
            assert sparse == pytest.approx(nmi_from_contingency(ids[dense], pred), abs=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            a = rng.integers(0, 3, size=20)
            b = rng.integers(0, 4, size=20)
            pa, pb = Partition.from_labels(a), Partition.from_labels(b)
            assert nmi(pa, pb) == pytest.approx(nmi(pb, pa), abs=1e-13)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            k = int(rng.integers(2, 5))
            a = rng.integers(0, k, size=15)
            b = rng.integers(0, k, size=15)
            sigma = rng.permutation(k)
            assert nmi(
                Partition.from_labels(a, k=k), Partition.from_labels(sigma[b], k=k)
            ) == pytest.approx(
                nmi(Partition.from_labels(a, k=k), Partition.from_labels(b, k=k)),
                abs=1e-13,
            )
