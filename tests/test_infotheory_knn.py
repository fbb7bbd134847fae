"""Tests for repro.infotheory.knn."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from repro.infotheory.knn import (
    EuclideanBallCounter,
    ProductMetricTree,
    k_nearest_neighbor_indices,
    kozachenko_leonenko_entropy,
    kth_neighbor_distances,
)


class TestNeighborIndices:
    def test_known_configuration(self):
        # Points on a line: 0, 1, 3, 7
        x = np.array([[0.0], [1.0], [3.0], [7.0]])
        dist = cdist(x, x)
        nn1 = k_nearest_neighbor_indices(dist, 1)[:, 0]
        np.testing.assert_array_equal(nn1, [1, 0, 1, 2])
        nn2 = k_nearest_neighbor_indices(dist, 2)[:, 1]
        np.testing.assert_array_equal(nn2, [2, 2, 0, 1])

    def test_k_nearest_sorted(self, rng):
        samples = rng.normal(size=(30, 2))
        dist = cdist(samples, samples)
        idx = k_nearest_neighbor_indices(dist, 5)
        assert idx.shape == (30, 5)
        gathered = np.take_along_axis(
            dist + np.diag(np.full(30, np.inf)), idx, axis=1
        )
        assert np.all(np.diff(gathered, axis=1) >= -1e-12)

    def test_invalid_k(self):
        dist = np.zeros((5, 5))
        with pytest.raises(ValueError):
            k_nearest_neighbor_indices(dist, 0)[:, -1]
        with pytest.raises(ValueError):
            k_nearest_neighbor_indices(dist, 5)[:, 4]

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            k_nearest_neighbor_indices(np.zeros((3, 4)), 1)[:, 0]


class TestKthNeighborDistances:
    def test_backends_agree(self, rng):
        samples = rng.normal(size=(60, 3))
        dense = kth_neighbor_distances(samples, 4, backend="dense")
        tree = kth_neighbor_distances(samples, 4, backend="kdtree")
        np.testing.assert_allclose(dense, tree, atol=1e-9)

    def test_unknown_backend(self, rng):
        with pytest.raises(ValueError):
            kth_neighbor_distances(rng.normal(size=(10, 2)), 2, backend="balltree")

    def test_invalid_k(self, rng):
        with pytest.raises(ValueError):
            kth_neighbor_distances(rng.normal(size=(10, 2)), 10)


class TestKozachenkoLeonenkoEntropy:
    def test_gaussian_entropy_1d(self):
        rng = np.random.default_rng(0)
        sigma = 2.0
        samples = rng.normal(0.0, sigma, size=(4000, 1))
        true = 0.5 * np.log2(2 * np.pi * np.e * sigma**2)
        estimate = kozachenko_leonenko_entropy(samples, k=5)
        assert estimate == pytest.approx(true, abs=0.1)

    def test_gaussian_entropy_2d(self):
        rng = np.random.default_rng(1)
        samples = rng.normal(size=(4000, 2))
        true = 2 * 0.5 * np.log2(2 * np.pi * np.e)
        estimate = kozachenko_leonenko_entropy(samples, k=5)
        assert estimate == pytest.approx(true, abs=0.15)

    def test_uniform_entropy(self):
        rng = np.random.default_rng(2)
        width = 4.0
        samples = rng.uniform(0, width, size=(4000, 1))
        estimate = kozachenko_leonenko_entropy(samples, k=5)
        assert estimate == pytest.approx(np.log2(width), abs=0.1)

    def test_scaling_shifts_entropy_by_log_factor(self):
        rng = np.random.default_rng(3)
        samples = rng.normal(size=(2000, 1))
        base = kozachenko_leonenko_entropy(samples, k=4)
        scaled = kozachenko_leonenko_entropy(4.0 * samples, k=4)
        assert scaled - base == pytest.approx(2.0, abs=0.1)


class TestWorkers:
    """workers= threads the scipy queries without changing any result."""

    def test_product_metric_tree_is_workers_invariant(self):
        rng = np.random.default_rng(21)
        blocks = [rng.standard_normal((300, 2)) for _ in range(3)]
        eps_serial = ProductMetricTree(blocks).kth_neighbor_distances(4)
        eps_threaded = ProductMetricTree(blocks, workers=-1).kth_neighbor_distances(4)
        np.testing.assert_array_equal(eps_serial, eps_threaded)
        counts_serial = ProductMetricTree(blocks).counts_within(eps_serial)
        counts_threaded = ProductMetricTree(blocks, workers=2).counts_within(eps_serial)
        np.testing.assert_array_equal(counts_serial, counts_threaded)

    def test_euclidean_ball_counter_is_workers_invariant(self):
        rng = np.random.default_rng(22)
        block = rng.standard_normal((400, 2))
        radii = np.abs(rng.standard_normal(400)) + 0.1
        np.testing.assert_array_equal(
            EuclideanBallCounter(block).counts_within(radii),
            EuclideanBallCounter(block, workers=-1).counts_within(radii),
        )

    def test_kth_neighbor_distances_is_workers_invariant(self):
        rng = np.random.default_rng(23)
        samples = rng.standard_normal((500, 3))
        np.testing.assert_array_equal(
            kth_neighbor_distances(samples, 5, backend="kdtree"),
            kth_neighbor_distances(samples, 5, backend="kdtree", workers=2),
        )

    def test_entropy_accepts_workers(self):
        rng = np.random.default_rng(24)
        samples = rng.standard_normal((300, 2))
        serial = kozachenko_leonenko_entropy(samples, k=4, backend="kdtree")
        threaded = kozachenko_leonenko_entropy(samples, k=4, backend="kdtree", workers=2)
        assert serial == threaded

    def test_workers_default_is_serial(self):
        rng = np.random.default_rng(25)
        tree = ProductMetricTree([rng.standard_normal((50, 2))])
        assert tree.workers == 1
        counter = EuclideanBallCounter(rng.standard_normal((50, 2)))
        assert counter.workers == 1
