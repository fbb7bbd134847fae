"""Tests for repro.infotheory.discrete."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.infotheory.discrete import (
    entropy,
    entropy_from_counts,
    marginal_distribution,
    multi_information,
    multi_information_from_samples,
)


class TestEntropy:
    def test_uniform(self):
        assert entropy(np.full(8, 1 / 8)) == pytest.approx(3.0)

    def test_deterministic(self):
        assert entropy(np.array([1.0, 0.0, 0.0])) == pytest.approx(0.0)

    def test_binary(self):
        assert entropy(np.array([0.5, 0.5])) == pytest.approx(1.0)

    def test_normalize_flag(self):
        assert entropy(np.array([2.0, 2.0]), normalize=True) == pytest.approx(1.0)

    def test_unnormalised_rejected(self):
        with pytest.raises(ValueError):
            entropy(np.array([0.5, 0.2]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            entropy(np.array([1.2, -0.2]))

    @given(st.integers(min_value=1, max_value=64))
    def test_bounded_by_log_cardinality(self, n):
        rng = np.random.default_rng(n)
        p = rng.dirichlet(np.ones(n))
        h = entropy(p)
        assert -1e-9 <= h <= np.log2(n) + 1e-9


class TestMarginals:
    def test_marginals_of_product_distribution(self):
        px = np.array([0.3, 0.7])
        py = np.array([0.25, 0.25, 0.5])
        joint = np.outer(px, py)
        np.testing.assert_allclose(marginal_distribution(joint, 0), px)
        np.testing.assert_allclose(marginal_distribution(joint, 1), py)


class TestMultiInformation:
    def test_reduces_to_mutual_information_for_two_variables(self):
        rng = np.random.default_rng(0)
        joint = rng.dirichlet(np.ones(6)).reshape(2, 3)
        mutual = (
            entropy(marginal_distribution(joint, 0))
            + entropy(marginal_distribution(joint, 1))
            - entropy(joint)
        )
        assert multi_information(joint) == pytest.approx(mutual)

    def test_three_copies_of_one_bit(self):
        joint = np.zeros((2, 2, 2))
        joint[0, 0, 0] = 0.5
        joint[1, 1, 1] = 0.5
        # Sum of marginal entropies 3 bits, joint entropy 1 bit.
        assert multi_information(joint) == pytest.approx(2.0)

    def test_independent_product_is_zero(self):
        joint = np.einsum("i,j,k->ijk", [0.5, 0.5], [0.3, 0.7], [0.1, 0.9])
        assert multi_information(joint) == pytest.approx(0.0, abs=1e-12)

    @given(st.integers(min_value=0, max_value=5000))
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        joint = rng.dirichlet(np.ones(8)).reshape(2, 2, 2)
        assert multi_information(joint) >= -1e-9


class TestFromSamplesAndCounts:
    def test_entropy_from_counts(self):
        assert entropy_from_counts(np.array([5, 5])) == pytest.approx(1.0)

    def test_entropy_from_counts_rejects_negative(self):
        with pytest.raises(ValueError):
            entropy_from_counts(np.array([3, -1]))

    def test_multi_information_from_copied_columns(self):
        rng = np.random.default_rng(1)
        x = rng.integers(0, 4, size=500)
        samples = np.stack([x, x], axis=1)
        # Two identical uniform-ish 4-state variables share ~2 bits.
        value = multi_information_from_samples(samples)
        assert value == pytest.approx(entropy_from_counts(np.bincount(x)), rel=1e-9)

    def test_multi_information_from_independent_columns_small(self):
        rng = np.random.default_rng(2)
        samples = rng.integers(0, 2, size=(5000, 2))
        assert multi_information_from_samples(samples) < 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            multi_information_from_samples(np.zeros((0, 2)))
        with pytest.raises(ValueError):
            multi_information_from_samples(np.zeros(5))
