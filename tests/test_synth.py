"""Synthetic generators and the concatenated-regression baseline."""

import numpy as np
import pytest

from mmclust.metrics import Partition, accuracy
from mmclust.data import DataError, MultiViewDataset, normalize_views
from mmclust.solver import FitConfig, lloyd_kmeans
from mmclust.synth import (
    SynthSpec,
    _closed_form,
    baseline_regression_cluster,
    generate,
    generate_interaction,
)


class TestSynthSpec:
    def test_dims_views_mismatch(self):
        with pytest.raises(ValueError, match="dims"):
            SynthSpec(n_instances=10, n_views=2, n_clusters=2, dims=(3,))

    def test_too_many_clusters(self):
        with pytest.raises(ValueError, match="clusters"):
            SynthSpec(n_instances=3, n_views=1, n_clusters=4, dims=(2,))

    def test_noise_views_bounded(self):
        with pytest.raises(ValueError, match="noise_views"):
            SynthSpec(n_instances=10, n_views=2, n_clusters=2, dims=(3, 3), noise_views=3)

    @pytest.mark.parametrize("separation", [float("nan"), float("inf"), -1.0])
    def test_separation_finite_and_non_negative(self, separation):
        with pytest.raises(ValueError, match="separation must be finite and non-negative"):
            SynthSpec(n_instances=10, n_views=1, n_clusters=2, dims=(3,), separation=separation)

    def test_negative_seed_is_named(self):
        with pytest.raises(ValueError, match="^seed must be non-negative$"):
            SynthSpec(n_instances=10, n_views=1, n_clusters=2, dims=(3,), seed=-1)


class TestGenerate:
    def test_deterministic_from_seed(self):
        spec = SynthSpec(n_instances=30, n_views=2, n_clusters=3, dims=(4, 5), seed=11)
        a, b = generate(spec), generate(spec)
        for va, vb in zip(a.views, b.views):
            assert np.array_equal(va, vb)
        assert np.array_equal(a.labels, b.labels)

    def test_shapes_and_round_robin_labels(self):
        spec = SynthSpec(n_instances=10, n_views=2, n_clusters=3, dims=(4, 6), seed=0)
        ds = generate(spec)
        assert ds.dims == (4, 6)
        assert ds.n_instances == 10
        np.testing.assert_array_equal(ds.labels, np.arange(10) % 3)

    def test_center_separation_honored(self):
        # centers recovered from class means must be at least ~separation apart
        spec = SynthSpec(
            n_instances=900, n_views=1, n_clusters=3, dims=(6,), separation=8.0, seed=2
        )
        ds = generate(spec)
        view = ds.views[0]
        means = np.stack([view[:, ds.labels == c].mean(axis=1) for c in range(3)])
        for i in range(3):
            for j in range(i + 1, 3):
                gap = np.linalg.norm(means[i] - means[j])
                assert gap > 8.0 - 1.0  # sample-mean slack

    def test_zero_separation_collapses_centers(self):
        spec = SynthSpec(
            n_instances=600, n_views=1, n_clusters=3, dims=(5,), separation=0.0, seed=3
        )
        ds = generate(spec)
        view = ds.views[0]
        means = np.stack([view[:, ds.labels == c].mean(axis=1) for c in range(3)])
        # no planted structure: class means coincide up to sampling noise
        assert np.linalg.norm(means[0] - means[1]) < 0.5

    def test_zero_separation_fit_scores_at_chance(self):
        # chance-level harness: on pure noise the fitted labels carry no
        # information, so matched accuracy sits near 1/K (plus matching bias)
        from mmclust.solver import FitConfig
        from mmclust.solver import fit as fit_model

        accs = []
        for seed in range(50):
            spec = SynthSpec(
                n_instances=240, n_views=2, n_clusters=3, dims=(5, 5),
                separation=0.0, seed=seed,
            )
            ds = generate(spec)
            report = fit_model(ds, 3, FitConfig(rank=4, gamma=1e-3, max_outer_iters=8, seed=seed))
            accs.append(
                accuracy(
                    Partition.from_labels(ds.labels),
                    Partition.from_labels(report.labels, k=3),
                )
            )
        assert abs(np.mean(accs) - 1.0 / 3.0) <= 0.1

    def test_single_view_kmeans_solves_separated_data(self):
        # with huge separation and no noise views, K-means on one raw view
        # already recovers the partition
        spec = SynthSpec(
            n_instances=150, n_views=2, n_clusters=3, dims=(6, 6),
            separation=10.0, noise_views=0, seed=4,
        )
        ds = generate(spec)
        pred = lloyd_kmeans(ds.views[0].T, 3, seed=0)
        acc = accuracy(
            Partition.from_labels(ds.labels), Partition.from_labels(pred, k=3)
        )
        assert acc >= 0.95

    def test_noise_views_carry_no_signal(self):
        spec = SynthSpec(
            n_instances=400, n_views=2, n_clusters=2, dims=(5, 5),
            separation=9.0, noise_views=1, seed=5,
        )
        ds = generate(spec)
        # last view is pure noise: class means coincide up to sampling noise
        noise_view = ds.views[1]
        m0 = noise_view[:, ds.labels == 0].mean(axis=1)
        m1 = noise_view[:, ds.labels == 1].mean(axis=1)
        assert np.linalg.norm(m0 - m1) < 0.5
        # informative view keeps its separation
        info = ds.views[0]
        gap = np.linalg.norm(
            info[:, ds.labels == 0].mean(axis=1) - info[:, ds.labels == 1].mean(axis=1)
        )
        assert gap > 8.0


class TestGenerateInteraction:
    def test_labels_are_sign_products(self):
        ds = generate_interaction(80, seed=6)
        s1 = np.sign(ds.views[0][0])
        s2 = np.sign(ds.views[1][0])
        np.testing.assert_array_equal(ds.labels, (s1 * s2 > 0).astype(int))

    def test_designated_magnitudes_reciprocal(self):
        # the product of the designated features is exactly two-valued
        ds = generate_interaction(100, seed=7)
        product = ds.views[0][0] * ds.views[1][0]
        np.testing.assert_allclose(np.abs(product), 1.0, atol=1e-12)

    def test_magnitudes_within_range(self):
        ds = generate_interaction(200, seed=10)
        mags = np.abs(ds.views[0][0])
        assert mags.min() >= 0.5 and mags.max() <= 2.0

    def test_labels_independent_of_individual_signs(self):
        # each view's sign splits the data orthogonally to the labels
        ds = generate_interaction(2000, seed=8)
        s1 = (ds.views[0][0] > 0).astype(int)
        agreement = np.mean(s1 == ds.labels)
        assert abs(agreement - 0.5) < 0.05

    def test_extra_rows_are_noise(self):
        ds = generate_interaction(60, dims=(3, 2), seed=12)
        assert ds.dims == (3, 2)
        assert np.std(ds.views[0][1]) < 0.5

    def test_deterministic(self):
        a = generate_interaction(50, seed=9)
        b = generate_interaction(50, seed=9)
        assert np.array_equal(a.views[0], b.views[0])
        assert np.array_equal(a.labels, b.labels)


class TestBaselineRegressionCluster:
    def _separated(self, seed=0):
        return generate(
            SynthSpec(
                n_instances=120, n_views=2, n_clusters=3, dims=(6, 6),
                separation=8.0, seed=seed,
            )
        )

    @pytest.mark.parametrize("zero_view", [0, 1])
    def test_all_zero_view_is_rejected_before_other_checks(self, zero_view):
        # zero clusters would be rejected next
        views = list(self._separated().views)
        views[zero_view] = np.zeros_like(views[zero_view])
        message = f"^degenerate view {zero_view}: all entries are zero$"
        with pytest.raises(DataError, match=message):
            baseline_regression_cluster(MultiViewDataset(tuple(views)), 0, FitConfig(rank=3))

    def test_single_iteration_single_record(self):
        ds = self._separated()
        report = baseline_regression_cluster(ds, 3, FitConfig(rank=3, max_outer_iters=1))
        assert report.n_iterations == 1
        assert report.model == "concat_regression"

    def test_recovers_separated_clusters(self):
        accs = []
        for seed in range(10):
            ds = self._separated(seed + 20)
            report = baseline_regression_cluster(
                ds, 3, FitConfig(rank=3, max_outer_iters=50, seed=seed)
            )
            accs.append(
                accuracy(
                    Partition.from_labels(ds.labels),
                    Partition.from_labels(report.labels, k=3),
                )
            )
        assert np.mean(accs) >= 0.9

    def test_indicator_orthonormal(self):
        ds = self._separated(2)
        report = baseline_regression_cluster(ds, 3, FitConfig(rank=3, max_outer_iters=10))
        f = report.indicator.matrix
        assert np.max(np.abs(f.T @ f - np.eye(3))) < 1e-8

    @staticmethod
    def _singular_values(ds):
        # the baseline's design rebuilt independently: unit-norm views and the
        # constant feature as columns
        design = np.column_stack(
            [*(v.T / np.linalg.norm(v) for v in ds.views), np.ones(ds.n_instances)]
        )
        return np.linalg.svd(design, compute_uv=False)

    @pytest.mark.parametrize("gamma", [1e-3, 1e-2, 10.0])
    def test_stops_at_closed_form_optimum(self, gamma):
        ds = self._separated(4)
        report = baseline_regression_cluster(ds, 3, FitConfig(rank=3, gamma=gamma))
        assert report.converged and report.n_iterations == 1
        s = self._singular_values(ds)
        closed = np.sum(gamma / (s[:3] ** 2 + gamma))
        assert report.trace[-1].objective == pytest.approx(closed, rel=1e-10)

    def test_zero_gamma_is_the_least_squares_optimum(self):
        ds = generate(
            SynthSpec(n_instances=300, n_views=3, n_clusters=3, dims=(10, 10, 10), seed=5)
        )
        report = baseline_regression_cluster(ds, 3, FitConfig(rank=3, gamma=0.0))
        assert report.converged and report.n_iterations == 1
        assert report.trace[-1].objective < 1e-20

    def test_indicator_independent_of_seed(self):
        ds = self._separated(5)
        first, second = (
            baseline_regression_cluster(ds, 3, FitConfig(rank=3, seed=seed)).indicator.matrix
            for seed in (0, 9)
        )
        assert np.array_equal(first, second)

    def test_more_clusters_than_design_columns(self):
        # two 1-d views and the constant feature give a rank-3 design, so two
        # indicator columns come from the seed and each adds 1 to the objective
        ds = generate_interaction(80, seed=6)
        config = FitConfig(rank=5, gamma=0.01, seed=2)
        report = baseline_regression_cluster(ds, 5, config)
        f = report.indicator.matrix
        assert np.max(np.abs(f.T @ f - np.eye(5))) < 1e-8
        again = baseline_regression_cluster(ds, 5, config)
        assert np.array_equal(f, again.indicator.matrix)
        s = self._singular_values(ds)
        closed = np.sum(0.01 / (s ** 2 + 0.01)) + (5 - s.size)
        assert report.converged and report.n_iterations == 1
        assert report.trace[-1].objective == pytest.approx(closed, rel=1e-10)

    def test_columns_past_the_rank_are_the_seeded_pad(self):
        # the score columns past the rank are rounding noise, so nothing may
        # refill the seeded pad with directions set by that noise
        ds = generate_interaction(80, seed=6)
        stacked = np.vstack([*normalize_views(ds).views, np.ones((1, 80))])
        ridge = stacked @ stacked.T + 0.01 * np.eye(3)
        u, _, _ = np.linalg.svd(stacked.T, full_matrices=False)
        pads = []
        for seed in (1, 2):
            report = baseline_regression_cluster(ds, 5, FitConfig(rank=5, gamma=0.01, seed=seed))
            start, _ = _closed_form(stacked.T, ridge, 0.01, 5, seed)
            assert np.array_equal(report.indicator.matrix, start)
            pads.append(report.indicator.matrix[:, 3:])
            assert np.max(np.abs(u.T @ pads[-1])) < 1e-10
        assert np.max(np.abs(pads[0] - pads[1])) > 0.1

    def test_padded_start_keeps_the_singular_basis(self):
        # the seeded columns past the rank are orthogonal to the design's
        # range, so the start is itself the optimum
        rng = np.random.default_rng(7)
        design = np.column_stack([rng.standard_normal((50, 2)), np.ones(50)])
        start, _ = _closed_form(design, design.T @ design + 0.1 * np.eye(3), 0.1, 5, seed=3)
        u, _, _ = np.linalg.svd(design, full_matrices=False)
        np.testing.assert_allclose(np.abs(u.T @ start[:, :3]), np.eye(3), atol=1e-10)
        assert np.max(np.abs(u.T @ start[:, 3:])) < 1e-10
        assert np.max(np.abs(start.T @ start - np.eye(5))) < 1e-10
