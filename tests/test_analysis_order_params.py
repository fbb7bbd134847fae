"""Tests for repro.analysis.order_params."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.order_params import cluster_sizes, contact_graph, hexatic_order, n_clusters


def _square_grid(n_side: int) -> np.ndarray:
    xs, ys = np.meshgrid(np.arange(n_side), np.arange(n_side))
    return np.column_stack([xs.ravel(), ys.ravel()]).astype(float)


def _triangular_lattice(n_side: int, spacing: float = 1.0) -> np.ndarray:
    points = []
    for row in range(n_side):
        for col in range(n_side):
            x = col * spacing + (row % 2) * spacing / 2
            y = row * spacing * np.sqrt(3) / 2
            points.append((x, y))
    return np.asarray(points)


class TestHexaticOrder:
    def test_triangular_lattice_highly_ordered(self):
        # Boundary particles have distorted neighbourhoods, so even a perfect
        # finite lattice does not reach 1.0; it still clearly exceeds a gas.
        positions = _triangular_lattice(8)
        assert hexatic_order(positions) > 0.6

    def test_random_gas_weakly_ordered(self, rng):
        positions = rng.uniform(0, 20, size=(100, 2))
        assert hexatic_order(positions) < 0.4

    def test_lattice_more_ordered_than_gas(self, rng):
        lattice = _triangular_lattice(7)
        gas = rng.uniform(0, 7, size=(49, 2))
        assert hexatic_order(lattice) > hexatic_order(gas)

    def test_needs_enough_particles(self):
        with pytest.raises(ValueError):
            hexatic_order(np.zeros((5, 2)), n_neighbors=6)


class TestContactGraphAndClusters:
    def test_two_separated_grids(self):
        # Two internally connected lattices far apart form exactly two clusters.
        left = _square_grid(3) + np.array([-20.0, 0.0])
        right = _square_grid(4) + np.array([20.0, 0.0])
        positions = np.concatenate([left, right])
        assert n_clusters(positions) == 2
        assert cluster_sizes(positions) == [16, 9]

    def test_connected_grid_single_cluster(self):
        positions = _square_grid(5)
        assert n_clusters(positions) == 1

    def test_graph_node_count(self, rng):
        positions = rng.uniform(-3, 3, size=(15, 2))
        graph = contact_graph(positions)
        assert graph.number_of_nodes() == 15

    def test_empty_and_single(self):
        assert n_clusters(np.zeros((0, 2))) == 0
        assert n_clusters(np.zeros((1, 2))) == 1
