"""Tests for repro.cluster.coarse_grain."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.coarse_grain import clusters_per_type, coarse_grain_snapshot


def _structured_snapshot(rng, n_samples=6, jitter=0.05):
    """Samples share a common two-type, two-blob-per-type layout plus jitter."""
    types = np.array([0] * 8 + [1] * 8)
    blob_centers = {
        0: np.array([[-4.0, 0.0], [4.0, 0.0]]),
        1: np.array([[0.0, -4.0], [0.0, 4.0]]),
    }
    snapshot = np.empty((n_samples, types.size, 2))
    for m in range(n_samples):
        for type_id, centers in blob_centers.items():
            idx = np.nonzero(types == type_id)[0]
            per_blob = idx.size // 2
            for b, center in enumerate(centers):
                members = idx[b * per_blob : (b + 1) * per_blob]
                snapshot[m, members] = center + jitter * rng.standard_normal((per_blob, 2))
    return snapshot, types


class TestClustersPerType:
    def test_clamps_to_population(self):
        assert clusters_per_type(3, 5) == 3
        assert clusters_per_type(10, 4) == 4

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            clusters_per_type(5, 0)


class TestCoarseGrainSnapshot:
    def test_shapes_and_types(self, rng):
        snapshot, types = _structured_snapshot(rng)
        coarse = coarse_grain_snapshot(snapshot, types, n_clusters=2, rng=rng)
        assert coarse.means.shape == (snapshot.shape[0], 4, 2)
        np.testing.assert_array_equal(coarse.observer_types, [0, 0, 1, 1])
        assert coarse.n_clusters_per_type == (2, 2)
        assert coarse.n_observers == 4

    def test_cluster_means_near_blob_centers(self, rng):
        snapshot, types = _structured_snapshot(rng)
        coarse = coarse_grain_snapshot(snapshot, types, n_clusters=2, rng=rng)
        type0_means = coarse.means[:, coarse.observer_types == 0, :]
        # For every sample, the two type-0 observers sit near (-4, 0) and (4, 0).
        assert np.all(np.abs(np.abs(type0_means[..., 0]) - 4.0) < 0.5)
        assert np.all(np.abs(type0_means[..., 1]) < 0.5)

    def test_observers_correspond_across_samples(self, rng):
        snapshot, types = _structured_snapshot(rng)
        coarse = coarse_grain_snapshot(snapshot, types, n_clusters=2, rng=rng)
        # The same observer slot must refer to the same blob in every sample:
        # its across-sample standard deviation stays on the jitter scale.
        spread = coarse.means.std(axis=0)
        assert spread.max() < 0.5

    def test_cluster_count_clamped(self, rng):
        snapshot, types = _structured_snapshot(rng)
        coarse = coarse_grain_snapshot(snapshot, types, n_clusters=100, rng=rng)
        assert coarse.n_clusters_per_type == (8, 8)

    def test_validation(self, rng):
        snapshot, types = _structured_snapshot(rng)
        with pytest.raises(ValueError):
            coarse_grain_snapshot(snapshot[..., :1], types, 2)
        with pytest.raises(ValueError):
            coarse_grain_snapshot(snapshot, types[:-1], 2)
        with pytest.raises(ValueError):
            coarse_grain_snapshot(snapshot, types, 2, reference_sample=99)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0, 0), (5, 15, 1)])
    def test_non_finite_positions_rejected_before_any_draw(self, rng, bad, where):
        snapshot, types = _structured_snapshot(rng)
        snapshot[where] = bad
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="snapshot must be finite"):
            coarse_grain_snapshot(snapshot, types, n_clusters=2, rng=rng)
        assert rng.bit_generator.state == before
