"""Tests for repro.infotheory.histograms."""

from __future__ import annotations

import numpy as np
import pytest

from repro.infotheory.histograms import (
    discretize,
    histogram_multi_information,
    js_shrinkage_probabilities,
)


class TestDiscretize:
    def test_bins_cover_range(self, rng):
        samples = rng.uniform(0, 1, size=(200, 3))
        binned = discretize(samples, 8)
        assert binned.min() >= 0
        assert binned.max() <= 7

    def test_maximum_lands_in_last_bin(self):
        samples = np.array([[0.0], [0.5], [1.0]])
        binned = discretize(samples, 4)
        assert binned[-1, 0] == 3

    def test_constant_column(self):
        samples = np.full((10, 1), 3.0)
        binned = discretize(samples, 5)
        assert np.all(binned == 0)

    def test_explicit_ranges(self):
        samples = np.array([[0.1], [0.9]])
        binned = discretize(samples, 10, ranges=(0.0, 1.0))
        np.testing.assert_array_equal(binned[:, 0], [1, 9])

    def test_invalid_bins(self):
        with pytest.raises(ValueError):
            discretize(np.zeros((3, 1)), 0)


class TestJsShrinkage:
    def test_returns_probability_vector(self):
        probs = js_shrinkage_probabilities(np.array([5.0, 3.0, 0.0, 0.0]))
        assert probs.sum() == pytest.approx(1.0)
        assert np.all(probs >= 0)

    def test_shrinks_towards_uniform(self):
        counts = np.array([9.0, 1.0, 0.0, 0.0])
        ml = counts / counts.sum()
        probs = js_shrinkage_probabilities(counts)
        # Shrinkage moves extreme frequencies towards 1/4.
        assert probs[0] < ml[0]
        assert probs[2] > ml[2]

    def test_single_observation_returns_target(self):
        probs = js_shrinkage_probabilities(np.array([1.0, 0.0]))
        np.testing.assert_allclose(probs, [0.5, 0.5])

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            js_shrinkage_probabilities(np.array([-1.0, 2.0]))
        with pytest.raises(ValueError):
            js_shrinkage_probabilities(np.array([0.0, 0.0]))


class TestHistogramMultiInformation:
    def test_perfectly_dependent_columns(self, rng):
        x = rng.uniform(0, 1, size=(5000, 1))
        value = histogram_multi_information([x, x.copy()], n_bins=8)
        # Two identical uniform variables share ~log2(8) bits after binning.
        assert value == pytest.approx(3.0, abs=0.1)

    def test_independent_columns_near_zero(self, rng):
        variables = [rng.uniform(0, 1, size=(8000, 1)) for _ in range(2)]
        assert histogram_multi_information(variables, n_bins=6) < 0.05

    def test_overestimates_in_high_dimension_with_few_samples(self, rng):
        # The failure mode the paper reports for binning estimators: sparse
        # sampling of a high-dimensional joint space inflates the estimate.
        variables = [rng.standard_normal((60, 2)) for _ in range(6)]
        binned = histogram_multi_information(variables, n_bins=6)
        from repro.infotheory.ksg import ksg_multi_information

        ksg = ksg_multi_information(variables, k=4)
        assert binned > ksg + 1.0

    def test_shrinkage_variant_runs(self, rng):
        variables = [rng.standard_normal((100, 1)) for _ in range(3)]
        value = histogram_multi_information(variables, n_bins=5, shrinkage=True)
        assert np.isfinite(value)
