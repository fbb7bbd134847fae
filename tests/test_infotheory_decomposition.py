"""Tests for repro.infotheory.decomposition."""

from __future__ import annotations

import numpy as np
import pytest

from repro.infotheory.decomposition import (
    decompose_multi_information,
    groups_from_labels,
    validate_groups,
)
from repro.infotheory.discrete import multi_information_from_samples


class TestGroupsFromLabels:
    def test_groups_by_value(self):
        groups = groups_from_labels([0, 1, 0, 2, 1])
        assert groups == [[0, 2], [1, 4], [3]]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            groups_from_labels([])


class TestValidateGroups:
    def test_accepts_partition(self):
        assert validate_groups([[0, 2], [1]], 3) == [[0, 2], [1]]

    def test_rejects_missing_index(self):
        with pytest.raises(ValueError):
            validate_groups([[0], [1]], 3)

    def test_rejects_duplicate_index(self):
        with pytest.raises(ValueError):
            validate_groups([[0, 1], [1, 2]], 3)

    def test_rejects_empty_group(self):
        with pytest.raises(ValueError):
            validate_groups([[0, 1, 2], []], 3)


class TestDecomposeWithDiscreteEstimator:
    """Use the exact discrete estimator so the identity of Eq. 5 holds exactly."""

    @staticmethod
    def _discrete_estimator(var_list):
        # Each variable is (m, d) of small integers; merge columns into tuples
        # by mixed-radix encoding so the exact discrete estimator applies.
        encoded = []
        for var in var_list:
            arr = np.asarray(var, dtype=int)
            code = np.zeros(arr.shape[0], dtype=np.int64)
            for col in range(arr.shape[1]):
                code = code * 10 + arr[:, col]
            encoded.append(code)
        return multi_information_from_samples(np.stack(encoded, axis=1))

    def test_exact_decomposition_identity(self, rng):
        # Build 4 discrete observers with structure inside and between groups.
        m = 4000
        shared = rng.integers(0, 2, size=m)
        x1 = shared
        x2 = (shared + rng.integers(0, 2, size=m)) % 3
        y1 = rng.integers(0, 2, size=m)
        y2 = (y1 + shared) % 2
        variables = [v.reshape(-1, 1) for v in (x1, x2, y1, y2)]
        groups = [[0, 1], [2, 3]]
        result = decompose_multi_information(
            variables, groups, estimator=self._discrete_estimator
        )
        # Eq. 5: total = between + sum(within); exact for the plug-in estimator
        # because the underlying empirical distribution is the same everywhere.
        assert result.total == pytest.approx(
            result.between_groups + sum(result.within_groups), abs=1e-9
        )

    def test_singleton_groups_reduce_to_total(self, rng):
        m = 3000
        a = rng.integers(0, 3, size=m)
        b = (a + rng.integers(0, 2, size=m)) % 3
        variables = [a.reshape(-1, 1), b.reshape(-1, 1)]
        result = decompose_multi_information(
            variables, [[0], [1]], estimator=self._discrete_estimator
        )
        assert result.within_groups == (0.0, 0.0)
        assert result.between_groups == pytest.approx(result.total)


class TestDecomposeWithKSG:
    def test_between_term_detects_cross_group_coupling(self, rng):
        m = 800
        shared = rng.standard_normal((m, 1))
        group_a = [shared + 0.3 * rng.standard_normal((m, 1)) for _ in range(2)]
        group_b = [shared + 0.3 * rng.standard_normal((m, 1)) for _ in range(2)]
        result = decompose_multi_information(group_a + group_b, [[0, 1], [2, 3]], k=4)
        assert result.between_groups > 0.5
        assert all(w > 0.2 for w in result.within_groups)

    def test_normalized_contributions_sum_close_to_one_for_exact_estimator(self, rng):
        m = 600
        shared = rng.standard_normal((m, 1))
        variables = [shared + 0.5 * rng.standard_normal((m, 1)) for _ in range(4)]
        result = decompose_multi_information(variables, [[0, 1], [2, 3]], k=4)
        contributions = result.normalized_contributions()
        assert set(contributions) == {"between", "within_0", "within_1"}
        # With a consistent estimator the decomposition approximately
        # reconstructs the total (within estimator error).
        assert sum(contributions.values()) == pytest.approx(1.0, abs=0.35)

    def test_zero_total_gives_zero_contributions(self):
        result = decompose_multi_information(
            [np.zeros((50, 1)), np.ones((50, 1))],
            [[0], [1]],
            estimator=lambda vs: 0.0,
        )
        contributions = result.normalized_contributions()
        assert all(value == 0.0 for value in contributions.values())

    def test_group_validation(self, rng):
        variables = [rng.standard_normal((100, 1)) for _ in range(3)]
        with pytest.raises(ValueError):
            decompose_multi_information(variables, [[0, 1]], k=3)
