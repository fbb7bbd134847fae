"""Tests for repro.particles.types."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.particles.types import (
    InteractionParams,
    random_symmetric_matrix,
    type_counts_to_assignment,
)


class TestRandomSymmetricMatrix:
    def test_symmetry(self, rng):
        mat = random_symmetric_matrix(5, 0.0, 1.0, rng)
        np.testing.assert_allclose(mat, mat.T)

    def test_range(self, rng):
        mat = random_symmetric_matrix(6, 2.0, 8.0, rng)
        assert mat.min() >= 2.0
        assert mat.max() <= 8.0

    def test_invalid_inputs(self, rng):
        with pytest.raises(ValueError):
            random_symmetric_matrix(0, 0.0, 1.0, rng)
        with pytest.raises(ValueError):
            random_symmetric_matrix(2, 1.0, 0.0, rng)

    @given(st.integers(min_value=1, max_value=8))
    def test_shape_property(self, n_types):
        mat = random_symmetric_matrix(n_types, 0.0, 1.0, np.random.default_rng(0))
        assert mat.shape == (n_types, n_types)
        np.testing.assert_allclose(mat, mat.T)


class TestTypeCountsToAssignment:
    def test_basic_expansion(self):
        np.testing.assert_array_equal(type_counts_to_assignment([3, 2]), [0, 0, 0, 1, 1])

    def test_zero_count_type_skipped_in_assignment(self):
        assignment = type_counts_to_assignment([2, 0, 1])
        np.testing.assert_array_equal(assignment, [0, 0, 2])

    def test_rejects_empty_and_all_zero(self):
        with pytest.raises(ValueError):
            type_counts_to_assignment([])
        with pytest.raises(ValueError):
            type_counts_to_assignment([0, 0])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            type_counts_to_assignment([3, -1])


class TestInteractionParams:
    def test_single_type_shapes(self):
        params = InteractionParams.single_type(k=2.0, r=1.5)
        assert params.n_types == 1
        assert params.k[0, 0] == 2.0
        assert params.r[0, 0] == 1.5

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            InteractionParams(
                k=[[1.0, 2.0], [3.0, 1.0]],
                r=np.ones((2, 2)),
                sigma=np.ones((2, 2)),
                tau=np.ones((2, 2)),
            )

    def test_exactly_symmetric_matrices_skip_allclose(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("allclose called on an exactly symmetric matrix")

        monkeypatch.setattr(np, "allclose", refuse)
        k = random_symmetric_matrix(4, 1.0, 10.0, np.random.default_rng(3))
        params = InteractionParams(k=k, r=np.ones((4, 4)), sigma=np.ones((4, 4)), tau=np.ones((4, 4)))
        np.testing.assert_array_equal(params.k, k)

    @pytest.mark.parametrize(
        "skew, accepted",
        [(0.0, True), (1e-13, True), (1e-7, True), (1e-4, False), (1e-3, False)],
    )
    def test_asymmetry_inside_the_tolerance_is_still_accepted(self, skew, accepted, monkeypatch):
        # Off the exact branch, np.allclose(mat, mat.T, atol=1e-12) decides,
        # as it did before the exact check existed.
        calls = []
        allclose = np.allclose
        monkeypatch.setattr(np, "allclose", lambda *a, **kw: calls.append(1) or allclose(*a, **kw))
        k = np.array([[1.0, 2.0], [2.0 + skew, 1.0]])
        assert allclose(k, k.T, atol=1e-12) is accepted
        build = lambda: InteractionParams(k=k, r=np.ones((2, 2)), sigma=np.ones((2, 2)), tau=np.ones((2, 2)))
        if accepted:
            assert build().k[1, 0] == 2.0 + skew
        else:
            with pytest.raises(ValueError, match="k must be symmetric"):
                build()
        assert len(calls) == (0 if skew == 0.0 else 1)

    @pytest.mark.parametrize(
        "value, message", [(np.nan, "k must be symmetric"), (np.inf, "k must be finite")]
    )
    def test_non_finite_entries_keep_their_messages(self, value, message):
        # NaN is unequal to itself, so both checks refuse it as asymmetric; a
        # mirrored inf passes both and is refused as non-finite.
        k = np.array([[1.0, value], [value, 1.0]])
        with pytest.raises(ValueError, match=message):
            InteractionParams(k=k, r=np.ones((2, 2)), sigma=np.ones((2, 2)), tau=np.ones((2, 2)))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            InteractionParams(
                k=np.ones((2, 2)),
                r=np.ones((3, 3)),
                sigma=np.ones((2, 2)),
                tau=np.ones((2, 2)),
            )

    def test_rejects_nonpositive_sigma_tau(self):
        with pytest.raises(ValueError):
            InteractionParams.single_type(sigma=0.0)
        with pytest.raises(ValueError):
            InteractionParams.single_type(tau=-1.0)

    def test_rejects_negative_r(self):
        with pytest.raises(ValueError):
            InteractionParams.single_type(r=-0.5)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            InteractionParams(
                k=[[np.nan]], r=[[1.0]], sigma=[[1.0]], tau=[[1.0]]
            )

    def test_clustering_diagonal_smaller(self):
        params = InteractionParams.clustering(3, self_distance=1.0, cross_distance=3.0)
        assert np.all(np.diag(params.r) == 1.0)
        off_diag = params.r[~np.eye(3, dtype=bool)]
        assert np.all(off_diag == 3.0)

    def test_pair_matrices_shapes_and_values(self):
        params = InteractionParams.from_matrices(k=[[1.0, 2.0], [2.0, 3.0]], r=[[1.0, 4.0], [4.0, 2.0]])
        types = np.array([0, 1, 1])
        pair = params.pair_matrices(types)
        assert pair["k"].shape == (3, 3)
        assert pair["k"][0, 1] == 2.0
        assert pair["k"][1, 2] == 3.0
        assert pair["r"][0, 2] == 4.0
        assert pair["r"][0, 0] == 1.0

    def test_pair_matrices_rejects_bad_types(self):
        params = InteractionParams.single_type()
        with pytest.raises(ValueError):
            params.pair_matrices(np.array([0, 1]))

    def test_roundtrip_dict(self):
        params = InteractionParams.clustering(2)
        restored = InteractionParams.from_dict(params.to_dict())
        np.testing.assert_allclose(restored.k, params.k)
        np.testing.assert_allclose(restored.r, params.r)
        np.testing.assert_allclose(restored.sigma, params.sigma)
        np.testing.assert_allclose(restored.tau, params.tau)

    def test_frozen(self):
        params = InteractionParams.single_type()
        with pytest.raises(AttributeError):
            params.k = np.zeros((1, 1))  # type: ignore[misc]


class TestAssignmentDtype:
    def test_assignment_is_int64_on_every_platform(self):
        # dtype=int is int32 on Windows; the assignment flows into persisted
        # artifacts and hashed documents, so the dtype is pinned explicitly.
        assignment = type_counts_to_assignment([3, 2])
        assert assignment.dtype == np.int64

    def test_assignment_accepts_numpy_counts(self):
        assignment = type_counts_to_assignment(np.array([2, 0, 1], dtype=np.int32))
        assert assignment.dtype == np.int64
        np.testing.assert_array_equal(assignment, [0, 0, 2])
