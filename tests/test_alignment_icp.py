"""Tests for repro.alignment.icp."""

from __future__ import annotations

import numpy as np
import pytest

from repro.alignment.icp import TypeAwareICP
from repro.alignment.procrustes import RigidTransform


def _configuration(rng, n_per_type=8, n_types=2):
    types = np.repeat(np.arange(n_types), n_per_type)
    positions = rng.uniform(-4, 4, size=(types.size, 2))
    return positions, types


def _assert_type_preserving_permutation(correspondence, types):
    assert sorted(correspondence.tolist()) == list(range(types.size))
    np.testing.assert_array_equal(types[correspondence], types)


class TestTypeAwareICP:
    def test_recovers_rotation_translation(self, rng):
        target, types = _configuration(rng)
        true = RigidTransform.from_angle(0.4, (1.0, -2.0))
        source = true.inverse().apply(target)
        result = TypeAwareICP().align(source, target, types)
        np.testing.assert_allclose(result.aligned, target, atol=1e-5)
        assert result.rmse < 1e-5
        assert result.converged

    def test_recovers_rotation_translation_and_permutation(self, rng):
        target, types = _configuration(rng)
        true = RigidTransform.from_angle(-0.6, (0.5, 0.7))
        perm = np.arange(types.size)
        for t in np.unique(types):
            idx = np.nonzero(types == t)[0]
            perm[idx] = rng.permutation(idx)
        source = true.inverse().apply(target[perm])
        result = TypeAwareICP().align(source, target, types)
        _assert_type_preserving_permutation(result.correspondence, types)
        # Reordering the aligned source by the correspondence must reproduce the target.
        reordered = np.empty_like(result.aligned)
        reordered[result.correspondence] = result.aligned
        np.testing.assert_allclose(reordered, target, atol=1e-4)

    def test_moderate_noise_still_aligns(self, rng):
        target, types = _configuration(rng)
        true = RigidTransform.from_angle(0.9, (2.0, 0.0))
        source = true.inverse().apply(target) + 0.01 * rng.standard_normal(target.shape)
        result = TypeAwareICP().align(source, target, types)
        assert result.rmse < 0.05

    def test_correspondence_is_permutation_by_default(self, rng):
        source, types = _configuration(rng)
        target, _ = _configuration(rng)
        result = TypeAwareICP().align(source, target, types)
        _assert_type_preserving_permutation(result.correspondence, types)

    def test_identity_when_already_aligned(self, rng):
        target, types = _configuration(rng)
        result = TypeAwareICP().align(target.copy(), target, types)
        assert abs(result.transform.angle) < 1e-6
        np.testing.assert_allclose(result.transform.translation, 0.0, atol=1e-8)

    def test_shape_validation(self):
        icp = TypeAwareICP()
        with pytest.raises(ValueError):
            icp.align(np.zeros((3, 2)), np.zeros((4, 2)), np.zeros(3, dtype=int))
        with pytest.raises(ValueError):
            icp.align(np.zeros((3, 2)), np.zeros((3, 2)), np.zeros(4, dtype=int))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["tolerance", "good_enough_rmse"])
    def test_nonfinite_parameters_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be non-negative"):
            TypeAwareICP(**{field: value})

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            TypeAwareICP(max_iterations=0)
        with pytest.raises(ValueError):
            TypeAwareICP(tolerance=-1.0)
