"""Tests for repro.particles.init_conditions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.particles.init_conditions import default_disc_radius, uniform_disc_ensemble


class TestUniformDiscEnsemble:
    def test_shape(self, rng):
        assert uniform_disc_ensemble(7, 11, 2.0, rng).shape == (7, 11, 2)

    def test_samples_differ(self, rng):
        ensemble = uniform_disc_ensemble(2, 20, 2.0, rng)
        assert not np.allclose(ensemble[0], ensemble[1])

    def test_all_inside_radius(self, rng):
        ensemble = uniform_disc_ensemble(4, 100, 1.5, rng)
        radii = np.linalg.norm(ensemble, axis=-1)
        assert radii.max() <= 1.5 + 1e-12

    def test_area_uniformity(self, rng):
        # For a uniform disc, the expected fraction of points within r/2 of the
        # centre is 1/4 (area ratio), not 1/2 (radius ratio).
        points = uniform_disc_ensemble(1, 4000, 2.0, rng)[0]
        inner = np.linalg.norm(points, axis=1) < 1.0
        assert abs(inner.mean() - 0.25) < 0.05

    def test_reproducible_with_seed(self):
        a = uniform_disc_ensemble(3, 10, 1.0, 42)
        b = uniform_disc_ensemble(3, 10, 1.0, 42)
        np.testing.assert_array_equal(a, b)

    def test_zero_particles(self, rng):
        assert uniform_disc_ensemble(2, 0, 1.0, rng).shape == (2, 0, 2)

    def test_invalid_inputs(self, rng):
        with pytest.raises(ValueError):
            uniform_disc_ensemble(-1, 5, 1.0, rng)
        with pytest.raises(ValueError):
            uniform_disc_ensemble(2, -1, 1.0, rng)
        with pytest.raises(ValueError):
            uniform_disc_ensemble(2, 5, -1.0, rng)
        with pytest.raises(ValueError):
            uniform_disc_ensemble(2, 5, 0.0, rng)


class TestDefaultDiscRadius:
    def test_unit_density(self):
        radius = default_disc_radius(100)
        assert np.isclose(np.pi * radius**2, 100.0)

    @given(st.integers(min_value=1, max_value=500))
    def test_density_property(self, n):
        radius = default_disc_radius(n)
        assert np.isclose(n / (np.pi * radius**2), 1.0, rtol=1e-9)

    def test_invalid(self):
        with pytest.raises(ValueError):
            default_disc_radius(0)
