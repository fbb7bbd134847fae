"""Tests for repro.alignment.procrustes."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.alignment.procrustes import RigidTransform, kabsch_2d


def _random_points(seed: int, n: int = 15) -> np.ndarray:
    return np.random.default_rng(seed).uniform(-5, 5, size=(n, 2))


class TestRigidTransform:
    def test_identity(self):
        transform = RigidTransform.identity()
        points = _random_points(0)
        np.testing.assert_allclose(transform.apply(points), points)

    def test_from_angle(self):
        transform = RigidTransform.from_angle(np.pi / 2)
        np.testing.assert_allclose(transform.apply(np.array([[1.0, 0.0]])), [[0.0, 1.0]], atol=1e-12)

    def test_angle_roundtrip(self):
        for angle in (-2.0, -0.5, 0.0, 1.0, 3.0):
            assert RigidTransform.from_angle(angle).angle == pytest.approx(angle)

    def test_compose(self):
        a = RigidTransform.from_angle(0.3, (1.0, 0.0))
        b = RigidTransform.from_angle(0.5, (0.0, 2.0))
        points = _random_points(1)
        np.testing.assert_allclose(a.compose(b).apply(points), a.apply(b.apply(points)), atol=1e-12)

    def test_inverse(self):
        transform = RigidTransform.from_angle(1.2, (3.0, -1.0))
        points = _random_points(2)
        roundtrip = transform.inverse().apply(transform.apply(points))
        np.testing.assert_allclose(roundtrip, points, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            RigidTransform(rotation=np.eye(3), translation=np.zeros(2))
        with pytest.raises(ValueError):
            RigidTransform(rotation=np.eye(2), translation=np.zeros(3))
        with pytest.raises(ValueError):
            RigidTransform(rotation=np.stack([np.eye(2)] * 3), translation=np.zeros((2, 2)))

    def test_stack_acts_per_transform(self):
        singles = [RigidTransform.from_angle(a, (a, -2 * a)) for a in (0.3, -1.1, 2.5)]
        others = [RigidTransform.from_angle(a, (1.0, a)) for a in (0.7, 0.2, -2.0)]
        stack = RigidTransform(np.array([t.rotation for t in singles]), np.array([t.translation for t in singles]))
        other = RigidTransform(np.array([t.rotation for t in others]), np.array([t.translation for t in others]))
        points = np.stack([_random_points(seed) for seed in range(3)])
        composed, inverse = stack.compose(other), stack.inverse()
        for s, (single, single_other) in enumerate(zip(singles, others)):
            np.testing.assert_array_equal(stack.apply(points)[s], single.apply(points[s]))
            np.testing.assert_array_equal(composed.rotation[s], single.compose(single_other).rotation)
            np.testing.assert_array_equal(composed.translation[s], single.compose(single_other).translation)
            np.testing.assert_array_equal(inverse.translation[s], single.inverse().translation)
            assert stack.angle[s] == single.angle


class TestKabsch:
    @given(st.floats(min_value=-3.1, max_value=3.1), st.floats(min_value=-10, max_value=10), st.floats(min_value=-10, max_value=10))
    def test_recovers_known_transform(self, angle, tx, ty):
        source = _random_points(3)
        true = RigidTransform.from_angle(angle, (tx, ty))
        target = true.apply(source)
        fitted = kabsch_2d(source, target)
        np.testing.assert_allclose(fitted.apply(source), target, atol=1e-8)

    def test_proper_rotation_only(self):
        # Even when the best orthogonal map is a reflection, the fit must
        # return a proper rotation (det = +1).
        source = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [2.0, 1.0]])
        target = source.copy()
        target[:, 0] *= -1  # mirrored
        fitted = kabsch_2d(source, target)
        assert np.linalg.det(fitted.rotation) == pytest.approx(1.0)

    def test_empty_input_gives_identity(self):
        fitted = kabsch_2d(np.zeros((0, 2)), np.zeros((0, 2)))
        np.testing.assert_allclose(fitted.rotation, np.eye(2))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            kabsch_2d(np.zeros((3, 2)), np.zeros((4, 2)))
        with pytest.raises(ValueError):
            kabsch_2d(np.zeros((2, 3, 2)), np.zeros((3, 3, 2)))

    def test_stack_solves_each_problem_bitwise(self):
        rng = np.random.default_rng(7)
        source = rng.uniform(-5, 5, size=(6, 11, 2))
        target = source @ RigidTransform.from_angle(0.8).rotation.T + rng.normal(0.0, 0.3, size=source.shape)
        target[3] = source[3] * [-1.0, 1.0]  # best orthogonal map is a reflection
        stacked = kabsch_2d(source, target)
        for s in range(source.shape[0]):
            single = kabsch_2d(source[s], target[s])
            np.testing.assert_array_equal(stacked.rotation[s], single.rotation)
            np.testing.assert_array_equal(stacked.translation[s], single.translation)

    def test_empty_stack_gives_identities(self):
        fitted = kabsch_2d(np.zeros((3, 0, 2)), np.zeros((3, 0, 2)))
        np.testing.assert_array_equal(fitted.rotation, np.stack([np.eye(2)] * 3))
        np.testing.assert_array_equal(fitted.translation, np.zeros((3, 2)))
