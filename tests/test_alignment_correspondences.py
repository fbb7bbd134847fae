"""Tests for repro.alignment.correspondences."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from repro.alignment import correspondences
from repro.alignment.correspondences import (
    NEAREST_BLOCK_ELEMENTS,
    assignment_correspondence,
    correspondence_distances,
    nearest_neighbor_correspondence,
)
from repro.alignment.icp import TypeAwareICP
from repro.alignment.symmetry import align_snapshot


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


def _tree_nearest(source, target, types):
    """Per-type ``cKDTree`` nearest neighbours: the search the brute force replaced."""
    corr = np.empty(source.shape[:-1], dtype=int)
    for type_id in np.unique(types):
        idx = np.nonzero(types == type_id)[0]
        queries = source[..., idx, :]
        _dist, local = cKDTree(target[idx]).query(queries.reshape(-1, 2), k=1)
        corr[..., idx] = idx[local.reshape(queries.shape[:-1])]
    return corr


def _tie_free_cloud(rng, counts, n_sources):
    """Random sources and a target whose nearest same-type neighbours are all unique."""
    types = np.repeat(np.arange(len(counts)), counts)
    target = rng.uniform(-5.0, 5.0, size=(types.size, 2))
    source = rng.uniform(-6.0, 6.0, size=(n_sources, types.size, 2))
    for type_id in range(len(counts)):
        idx = np.nonzero(types == type_id)[0]
        if idx.size > 1:
            delta = source[:, idx, None, :] - target[idx]
            squared = np.sort(np.einsum("...k,...k->...", delta, delta), axis=-1)
            assert (squared[..., 0] < squared[..., 1]).all()
    return source, target, types


class TestBruteForceMatchesTheTree:
    """The brute-force search finds the per-type tree's neighbours, index for index."""

    @staticmethod
    def _several_blocks(size):
        # A stack whose query points fill at least three brute-force blocks.
        return 3 * (NEAREST_BLOCK_ELEMENTS // size) // size + 3

    @pytest.mark.parametrize("size", [2, 17, 40, 64, 96, 256])
    @pytest.mark.parametrize("stack", ["single", 1, 7, "blocks"])
    def test_index_for_index(self, rng, size, stack):
        n_sources = self._several_blocks(size) if stack == "blocks" else 1 if stack == "single" else stack
        source, target, types = _tie_free_cloud(rng, (size, 1, 3), n_sources)
        if stack == "single":
            source = source[0]
        corr = nearest_neighbor_correspondence(source, target, types)
        np.testing.assert_array_equal(corr, _tree_nearest(source, target, types))

    def test_ragged_blocks(self, rng, monkeypatch):
        # A budget below one class's row leaves one query point per block.
        source, target, types = _tie_free_cloud(rng, (17, 5, 2), 11)
        for budget in (1, 40, 10_000):
            monkeypatch.setattr(correspondences, "NEAREST_BLOCK_ELEMENTS", budget)
            np.testing.assert_array_equal(
                nearest_neighbor_correspondence(source, target, types), _tree_nearest(source, target, types)
            )

    @pytest.mark.parametrize("size", [6, 64])
    def test_duplicated_reference_points_match_the_same_coordinates(self, rng, size):
        types = np.zeros(size, dtype=int)
        target = rng.uniform(-3.0, 3.0, size=(size, 2))
        target[1::2] = target[0::2][: size // 2]
        source = rng.uniform(-4.0, 4.0, size=(9, size, 2))
        corr = nearest_neighbor_correspondence(source, target, types)
        np.testing.assert_array_equal(target[corr], target[_tree_nearest(source, target, types)])
        assert (corr % 2 == 0).all()  # each tie goes to the lower, even index

    def test_equidistant_points_pin_the_lowest_index(self):
        types = np.array([0, 0, 0, 0, 1, 1])
        target = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, -1.0], [-1.0, 0.0], [2.0, 2.0], [2.0, -2.0]])
        source = np.array([[[0.0, 0.0], [0.0, 0.0], [0.5, 0.5], [-0.5, -0.5], [2.0, 0.0], [5.0, 0.0]]])
        corr = nearest_neighbor_correspondence(source, target, types)
        np.testing.assert_array_equal(corr, [[0, 0, 0, 2, 4, 4]])


@pytest.mark.fuzz
@given(
    counts=st.lists(st.integers(min_value=1, max_value=300), min_size=1, max_size=3),
    n_sources=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    single=st.booleans(),
)
def test_brute_force_matches_the_tree(counts, n_sources, seed, single):
    source, target, types = _tie_free_cloud(np.random.default_rng(seed), tuple(counts), n_sources)
    if single:
        source = source[0]
    np.testing.assert_array_equal(
        nearest_neighbor_correspondence(source, target, types), _tree_nearest(source, target, types)
    )


_LAYOUTS = {"singleton": (1, 1, 1, 1), "one_class": (6,), "mixed": (4, 1, 3)}


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestNonFiniteCoordinates:
    """A NaN or ±inf coordinate is refused with one ``ValueError`` naming its argument."""

    @staticmethod
    def _inputs(rng, layout, where, value, stacked):
        types = np.repeat(np.arange(len(_LAYOUTS[layout])), _LAYOUTS[layout])
        target = rng.uniform(-3.0, 3.0, size=(types.size, 2))
        source = target + rng.normal(0.0, 0.5, size=(3, types.size, 2))
        if where == "source":
            source[-1, types.size // 2, 1] = value
        else:
            target[types.size // 2, 0] = value
        return (source if stacked else source[-1]), target, types

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["source", "target"])
    @pytest.mark.parametrize("layout", sorted(_LAYOUTS))
    @pytest.mark.parametrize("stacked", [False, True])
    def test_correspondences_and_icp(self, rng, value, where, layout, stacked):
        source, target, types = self._inputs(rng, layout, where, value, stacked)
        message = f"^{where} must have finite coordinates"
        with pytest.raises(ValueError, match=message):
            nearest_neighbor_correspondence(source, target, types)
        with pytest.raises(ValueError, match=message):
            assignment_correspondence(source, target, types)
        with pytest.raises(ValueError, match=message):
            TypeAwareICP().align(source, target, types)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["source", "target"])
    @pytest.mark.parametrize("layout", sorted(_LAYOUTS))
    def test_align_snapshot(self, rng, value, where, layout):
        source, target, types = self._inputs(rng, layout, where, value, stacked=True)
        snapshot = np.concatenate([target[None], source])  # sample 0 is the reference
        with pytest.raises(ValueError, match=f"^{where} must have finite coordinates"):
            align_snapshot(snapshot, types, reference=0)
        with pytest.raises(ValueError, match="must have finite coordinates"):
            align_snapshot(snapshot, types)


class TestAssignmentCorrespondence:
    def test_is_type_preserving_permutation(self, rng):
        source, target, types, _perm = _shuffled_within_types(rng, n_per_type=5, n_types=3)
        corr = assignment_correspondence(source, target, types)
        assert sorted(corr.tolist()) == list(range(types.size))
        np.testing.assert_array_equal(types[corr], types)

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


class TestCorrespondenceDistances:
    def test_known_values(self):
        source = np.array([[0.0, 0.0], [1.0, 1.0]])
        target = np.array([[3.0, 4.0], [1.0, 1.0]])
        dists = correspondence_distances(source, target, np.array([1, 0]))
        np.testing.assert_allclose(dists, [np.sqrt(2.0), np.sqrt(13.0)])
