"""Tests for repro.cluster.kmeans."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.kmeans import _plus_plus_seeds, kmeans


def _blobs(rng, centers, n_per_blob=30, spread=0.1):
    centers = np.asarray(centers, dtype=float)
    points = []
    for center in centers:
        points.append(center + spread * rng.standard_normal((n_per_blob, 2)))
    return np.concatenate(points, axis=0)


class TestKMeansPlusPlus:
    def test_centers_are_data_points(self, rng):
        points = rng.uniform(-5, 5, size=(40, 2))
        centers = _plus_plus_seeds(points[None], 4, rng)[0]
        for center in centers:
            assert np.any(np.all(np.isclose(points, center), axis=1))

    def test_duplicate_points_handled(self, rng):
        points = np.zeros((10, 2))
        centers = _plus_plus_seeds(points[None], 3, rng)[0]
        assert centers.shape == (3, 2)


class TestKMeans:
    def test_recovers_well_separated_blobs(self, rng):
        true_centers = [[-5.0, -5.0], [5.0, 5.0], [5.0, -5.0]]
        points = _blobs(rng, true_centers)
        result = kmeans(points, 3, rng=rng)
        # Every true centre has a fitted centre nearby.
        for center in true_centers:
            distances = np.linalg.norm(result.centers - center, axis=1)
            assert distances.min() < 0.3

    def test_labels_match_nearest_center(self, rng):
        points = _blobs(rng, [[-3.0, 0.0], [3.0, 0.0]])
        result = kmeans(points, 2, rng=rng)
        delta = points[:, None, :] - result.centers[None, :, :]
        nearest = np.einsum("nkd,nkd->nk", delta, delta).argmin(axis=1)
        np.testing.assert_array_equal(result.labels, nearest)

    def test_inertia_decreases_with_more_clusters(self, rng):
        points = rng.uniform(-5, 5, size=(60, 2))
        inertia = [kmeans(points, k, rng=rng).inertia for k in (1, 2, 4, 8)]
        assert all(np.diff(inertia) <= 1e-9)

    def test_deterministic_given_seed(self):
        points = np.random.default_rng(0).uniform(-3, 3, size=(50, 2))
        a = kmeans(points, 4, rng=7)
        b = kmeans(points, 4, rng=7)
        np.testing.assert_allclose(a.centers, b.centers)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_canonical_center_ordering(self, rng):
        points = _blobs(rng, [[4.0, 0.0], [-4.0, 0.0]])
        result = kmeans(points, 2, rng=rng)
        # Centres are sorted lexicographically by (x, y).
        assert result.centers[0, 0] < result.centers[1, 0]

    def test_single_cluster_is_mean(self, rng):
        points = rng.uniform(-2, 2, size=(30, 2))
        result = kmeans(points, 1, rng=rng)
        np.testing.assert_allclose(result.centers[0], points.mean(axis=0), atol=1e-9)
        assert np.all(result.labels == 0)

    def test_k_equals_n_gives_zero_inertia(self, rng):
        points = rng.uniform(-2, 2, size=(6, 2))
        result = kmeans(points, 6, rng=rng)
        assert result.inertia == pytest.approx(0.0, abs=1e-12)

    def test_invalid_inputs(self, rng):
        points = rng.uniform(size=(5, 2))
        with pytest.raises(ValueError):
            kmeans(points, 0, rng=rng)
        with pytest.raises(ValueError):
            kmeans(points, 6, rng=rng)
        with pytest.raises(ValueError):
            kmeans(points, 2, rng=rng, n_init=0)
        with pytest.raises(ValueError):
            kmeans(points, 2, rng=rng, max_iterations=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("k", [1, 2])
    def test_non_finite_points_rejected_before_any_draw(self, bad, k):
        points = np.random.default_rng(0).normal(size=(10, 2))
        points[3, 1] = bad
        rng = np.random.default_rng(1)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="points must be finite"):
            kmeans(points, k, rng=rng)
        assert rng.bit_generator.state == before

    def test_one_dimensional_points(self):
        points = np.random.default_rng(0).normal(size=(20, 1))
        result = kmeans(points, 2, rng=0)
        assert result.centers.shape == (2, 1)
        assert result.labels.shape == (20,)
        assert result.centers[0, 0] < result.centers[1, 0]

    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_one_dimensional_centres_are_sorted_member_means(self, n, k, seed):
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(n, 1)) * rng.uniform(0.1, 10.0)
        k = min(k, n)
        result = kmeans(points, k, rng=rng, n_init=2)
        assert result.centers.shape == (k, 1)
        assert np.all(np.diff(result.centers[:, 0]) >= 0)
        dist_sq = (points - result.centers.T) ** 2
        np.testing.assert_array_equal(result.labels, dist_sq.argmin(axis=1))
        assert result.inertia == pytest.approx(dist_sq.min(axis=1).sum(), rel=1e-12, abs=1e-300)
        if result.converged:
            for c in np.unique(result.labels):
                np.testing.assert_allclose(
                    result.centers[c], points[result.labels == c].mean(axis=0), rtol=1e-12, atol=1e-12
                )

    def test_canonical_order_uses_every_coordinate(self):
        # The centres tie exactly in x and y, so only z orders them.
        points = np.zeros((12, 3))
        points[:6, 2] = 5.0 + np.linspace(0.0, 0.5, 6)
        points[6:, 2] = -5.0 - np.linspace(0.0, 0.5, 6)
        for seed in range(8):
            result = kmeans(points, 2, rng=seed, n_init=1)
            assert result.centers[0, 2] < 0 < result.centers[1, 2]
            np.testing.assert_array_equal(result.labels, [1] * 6 + [0] * 6)

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=100))
    def test_partition_property(self, k, seed):
        rng = np.random.default_rng(seed)
        points = rng.uniform(-3, 3, size=(20, 2))
        result = kmeans(points, k, rng=rng)
        assert result.labels.shape == (20,)
        assert set(np.unique(result.labels)) <= set(range(k))
        assert result.centers.shape == (k, 2)
        assert result.inertia >= 0
