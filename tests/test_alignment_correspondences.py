"""Tests for repro.alignment.correspondences."""

from __future__ import annotations

import numpy as np
import pytest

from repro.alignment.correspondences import (
    assignment_correspondence,
    correspondence_distances,
    is_type_preserving_permutation,
    nearest_neighbor_correspondence,
)


def _shuffled_within_types(rng, n_per_type=6, n_types=2):
    types = np.repeat(np.arange(n_types), n_per_type)
    target = rng.uniform(-5, 5, size=(types.size, 2))
    perm = np.arange(types.size)
    for t in range(n_types):
        idx = np.nonzero(types == t)[0]
        perm[idx] = rng.permutation(idx)
    source = target[perm]
    return source, target, types, perm


class TestNearestNeighborCorrespondence:
    def test_recovers_exact_permutation(self, rng):
        source, target, types, perm = _shuffled_within_types(rng)
        corr = nearest_neighbor_correspondence(source, target, types)
        np.testing.assert_array_equal(corr, perm)

    def test_respects_types_even_when_other_type_is_closer(self):
        types = np.array([0, 1])
        source = np.array([[0.0, 0.0], [10.0, 0.0]])
        # The nearest target point to source[0] is of type 1, but matching
        # must stay within type 0.
        target = np.array([[5.0, 0.0], [0.1, 0.0]])
        corr = nearest_neighbor_correspondence(source, target, types)
        np.testing.assert_array_equal(corr, [0, 1])

    def test_can_be_many_to_one(self):
        types = np.zeros(3, dtype=int)
        source = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 0.0]])
        target = np.array([[0.0, 0.0], [6.0, 0.0], [20.0, 0.0]])
        corr = nearest_neighbor_correspondence(source, target, types)
        assert corr[0] == corr[1] == 0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            nearest_neighbor_correspondence(np.zeros((3, 2)), np.zeros((4, 2)), np.zeros(3, dtype=int))
        with pytest.raises(ValueError):
            nearest_neighbor_correspondence(np.zeros((2, 3, 2)), np.zeros((2, 3, 2)), np.zeros(3, dtype=int))


class TestStackedSources:
    """A stack of sources against one target gives each source's own answer."""

    @pytest.mark.parametrize("counts", [(6, 6), (1, 1, 1, 1), (5, 1, 3)])
    def test_rows_equal_single_source_calls(self, rng, counts):
        types = np.repeat(np.arange(len(counts)), counts)
        target = rng.uniform(-5, 5, size=(types.size, 2))
        stack = target + rng.normal(0.0, 1.5, size=(4, types.size, 2))
        nearest = nearest_neighbor_correspondence(stack, target, types)
        assignment = assignment_correspondence(stack, target, types)
        distances = correspondence_distances(stack, target, assignment)
        assert nearest.shape == assignment.shape == distances.shape == (4, types.size)
        for s, source in enumerate(stack):
            np.testing.assert_array_equal(nearest[s], nearest_neighbor_correspondence(source, target, types))
            np.testing.assert_array_equal(assignment[s], assignment_correspondence(source, target, types))
            np.testing.assert_array_equal(distances[s], correspondence_distances(source, target, assignment[s]))

    def test_singleton_types_map_to_themselves(self, rng):
        types = np.arange(5)
        target = rng.uniform(-5, 5, size=(5, 2))
        stack = rng.uniform(-5, 5, size=(3, 5, 2))
        expected = np.tile(np.arange(5), (3, 1))
        np.testing.assert_array_equal(nearest_neighbor_correspondence(stack, target, types), expected)
        np.testing.assert_array_equal(assignment_correspondence(stack, target, types), expected)


class TestAssignmentCorrespondence:
    def test_is_type_preserving_permutation(self, rng):
        source, target, types, _perm = _shuffled_within_types(rng, n_per_type=5, n_types=3)
        corr = assignment_correspondence(source, target, types)
        assert is_type_preserving_permutation(corr, types)

    def test_recovers_exact_permutation(self, rng):
        source, target, types, perm = _shuffled_within_types(rng)
        corr = assignment_correspondence(source, target, types)
        np.testing.assert_array_equal(corr, perm)

    def test_one_to_one_even_with_crowding(self):
        types = np.zeros(3, dtype=int)
        source = np.array([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0]])
        target = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        corr = assignment_correspondence(source, target, types)
        assert sorted(corr.tolist()) == [0, 1, 2]

    def test_minimises_total_cost(self):
        types = np.zeros(2, dtype=int)
        source = np.array([[0.0, 0.0], [1.0, 0.0]])
        target = np.array([[0.9, 0.0], [0.1, 0.0]])
        corr = assignment_correspondence(source, target, types)
        np.testing.assert_array_equal(corr, [1, 0])


class TestIsTypePreservingPermutation:
    def test_identity_is_valid(self):
        types = np.array([0, 0, 1])
        assert is_type_preserving_permutation(np.array([0, 1, 2]), types)

    def test_cross_type_swap_invalid(self):
        types = np.array([0, 1])
        assert not is_type_preserving_permutation(np.array([1, 0]), types)

    def test_non_permutation_invalid(self):
        types = np.array([0, 0])
        assert not is_type_preserving_permutation(np.array([0, 0]), types)

    def test_shape_mismatch_invalid(self):
        assert not is_type_preserving_permutation(np.array([0, 1, 2]), np.array([0, 1]))


class TestCorrespondenceDistances:
    def test_known_values(self):
        source = np.array([[0.0, 0.0], [1.0, 1.0]])
        target = np.array([[3.0, 4.0], [1.0, 1.0]])
        dists = correspondence_distances(source, target, np.array([1, 0]))
        np.testing.assert_allclose(dists, [np.sqrt(2.0), np.sqrt(13.0)])
