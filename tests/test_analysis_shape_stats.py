"""Tests for repro.analysis.shape_stats."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.shape_stats import (
    detect_concentric_rings,
    nearest_neighbor_distances,
    per_particle_dispersion,
    radial_profile,
    radius_of_gyration,
    type_radial_ordering,
    type_segregation_index,
)


def _ring(n: int, radius: float, center=(0.0, 0.0)) -> np.ndarray:
    angles = np.linspace(0, 2 * np.pi, n, endpoint=False)
    return np.column_stack([radius * np.cos(angles), radius * np.sin(angles)]) + np.asarray(center)


class TestRadiusOfGyration:
    def test_ring_equals_radius(self):
        assert radius_of_gyration(_ring(20, 3.0)) == pytest.approx(3.0)

    def test_translation_invariant(self):
        assert radius_of_gyration(_ring(20, 3.0, center=(10, -4))) == pytest.approx(3.0)

    def test_batch_shape(self, rng):
        batch = rng.normal(size=(5, 10, 2))
        assert radius_of_gyration(batch).shape == (5,)


class TestNearestNeighborDistances:
    def test_pair(self):
        positions = np.array([[0.0, 0.0], [2.0, 0.0]])
        np.testing.assert_allclose(nearest_neighbor_distances(positions), [2.0, 2.0])

    def test_requires_two_particles(self):
        with pytest.raises(ValueError):
            nearest_neighbor_distances(np.zeros((1, 2)))


class TestRings:
    def test_radial_profile_sorted(self, rng):
        profile = radial_profile(rng.normal(size=(30, 2)))
        assert np.all(np.diff(profile) >= 0)

    def test_detects_two_concentric_rings(self):
        positions = np.concatenate([_ring(8, 1.0), _ring(12, 4.0)], axis=0)
        report = detect_concentric_rings(positions)
        assert report.n_rings == 2
        assert report.ring_sizes == (8, 12)
        np.testing.assert_allclose(report.ring_radii, (1.0, 4.0), atol=1e-6)
        assert report.separation_score > 5.0

    def test_single_ring(self):
        report = detect_concentric_rings(_ring(15, 2.0))
        assert report.n_rings == 1

    def test_tiny_input(self):
        report = detect_concentric_rings(np.zeros((3, 2)))
        assert report.n_rings == 1


class TestTypeStatistics:
    def test_radial_ordering_detects_layers(self):
        inner = _ring(10, 1.0)
        outer = _ring(10, 5.0)
        positions = np.concatenate([inner, outer])
        types = np.array([0] * 10 + [1] * 10)
        ordering = type_radial_ordering(positions, types)
        assert ordering[0] < ordering[1]

    def test_segregation_index_sorted_vs_mixed(self, rng):
        left = rng.normal(loc=(-5, 0), scale=0.3, size=(10, 2))
        right = rng.normal(loc=(5, 0), scale=0.3, size=(10, 2))
        sorted_positions = np.concatenate([left, right])
        types = np.array([0] * 10 + [1] * 10)
        sorted_index = type_segregation_index(sorted_positions, types)
        mixed_positions = rng.normal(size=(20, 2))
        mixed_index = type_segregation_index(mixed_positions, types)
        assert sorted_index > 0.95
        assert mixed_index < 0.8

    def test_segregation_index_needs_enough_particles(self):
        with pytest.raises(ValueError):
            type_segregation_index(np.zeros((3, 2)), np.zeros(3, dtype=int), k=3)


class TestPerParticleDispersion:
    def test_zero_for_identical_samples(self):
        snapshot = np.tile(_ring(10, 2.0), (5, 1, 1))
        np.testing.assert_allclose(per_particle_dispersion(snapshot), 0.0, atol=1e-12)

    def test_detects_loose_slots(self, rng):
        base = _ring(10, 2.0)
        snapshot = np.tile(base, (20, 1, 1))
        snapshot[:, 0, :] += rng.normal(scale=1.0, size=(20, 2))
        dispersion = per_particle_dispersion(snapshot)
        assert dispersion[0] > 5 * dispersion[1:].max()

    def test_validation(self):
        with pytest.raises(ValueError):
            per_particle_dispersion(np.zeros((5, 3)))
