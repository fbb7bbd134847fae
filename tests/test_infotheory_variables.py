"""Tests for repro.infotheory.variables."""

from __future__ import annotations

import numpy as np
import pytest

from repro.infotheory.variables import as_variable_list, stack_variables


class TestAsVariableList:
    def test_list_of_matrices(self):
        variables = [np.zeros((10, 2)), np.zeros((10, 3))]
        out = as_variable_list(variables)
        assert len(out) == 2
        assert out[0].shape == (10, 2)
        assert out[1].shape == (10, 3)

    def test_2d_array_is_split_by_columns(self):
        arr = np.arange(20, dtype=float).reshape(10, 2)
        out = as_variable_list(arr)
        assert len(out) == 2
        assert all(v.shape == (10, 1) for v in out)
        np.testing.assert_array_equal(out[1][:, 0], arr[:, 1])

    def test_3d_array_is_split_by_middle_axis(self):
        arr = np.zeros((8, 5, 2))
        out = as_variable_list(arr)
        assert len(out) == 5
        assert all(v.shape == (8, 2) for v in out)

    def test_requires_two_variables(self):
        with pytest.raises(ValueError):
            as_variable_list([np.zeros((10, 2))])

    def test_requires_matching_sample_counts(self):
        with pytest.raises(ValueError):
            as_variable_list([np.zeros((10, 2)), np.zeros((9, 2))])

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            as_variable_list([np.zeros((1, 2)), np.zeros((1, 2))])

    def test_rejects_bad_ndim(self):
        with pytest.raises(ValueError):
            as_variable_list(np.zeros((2, 2, 2, 2)))


class TestStackAndDimensions:
    def test_stack(self):
        var_list = [np.ones((4, 2)), 2 * np.ones((4, 3))]
        stacked = stack_variables(var_list)
        assert stacked.shape == (4, 5)
        np.testing.assert_array_equal(stacked[:, 2:], 2.0)
