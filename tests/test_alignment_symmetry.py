"""Tests for repro.alignment.symmetry."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro.alignment import symmetry
from repro.alignment.procrustes import RigidTransform
from repro.alignment.symmetry import (
    align_snapshot,
    center_configurations,
    select_reference,
)


def _snapshot_from_shape(rng, n_samples=6, n_per_type=6, n_types=2, jitter=0.0):
    """Build an ensemble snapshot whose samples are random isometries +
    same-type permutations of one base shape (plus optional jitter)."""
    types = np.repeat(np.arange(n_types), n_per_type)
    base = rng.uniform(-3, 3, size=(types.size, 2))
    samples = np.empty((n_samples, types.size, 2))
    for m in range(n_samples):
        perm = np.arange(types.size)
        for t in range(n_types):
            idx = np.nonzero(types == t)[0]
            perm[idx] = rng.permutation(idx)
        transform = RigidTransform.from_angle(
            rng.uniform(-np.pi, np.pi), rng.uniform(-5, 5, size=2)
        )
        samples[m] = transform.apply(base[perm]) + jitter * rng.standard_normal((types.size, 2))
    return samples, types, base


class TestCenterConfigurations:
    def test_single_configuration(self, rng):
        positions = rng.uniform(-3, 3, size=(10, 2))
        centered = center_configurations(positions)
        np.testing.assert_allclose(centered.mean(axis=0), 0.0, atol=1e-12)

    def test_batch(self, rng):
        batch = rng.uniform(-3, 3, size=(4, 10, 2))
        centered = center_configurations(batch)
        np.testing.assert_allclose(centered.mean(axis=1), 0.0, atol=1e-12)

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            center_configurations(np.zeros((5, 3)))


class TestSelectReference:
    def test_first_strategy(self, rng):
        snapshot, _types, _base = _snapshot_from_shape(rng)
        assert select_reference(snapshot, "first") == 0

    def test_medoid_in_range(self, rng):
        snapshot, _types, _base = _snapshot_from_shape(rng)
        idx = select_reference(snapshot, "medoid")
        assert 0 <= idx < snapshot.shape[0]

    def test_medoid_picks_typical_sample(self, rng):
        snapshot, _types, _base = _snapshot_from_shape(rng, n_samples=5, jitter=0.0)
        # Make sample 3 a gross outlier (blown up by a large scale factor).
        snapshot[3] *= 25.0
        assert select_reference(snapshot, "medoid") != 3

    @pytest.mark.parametrize("block_elements", [1, 7, 1000, None])
    @pytest.mark.parametrize("m, n", [(1, 5), (9, 4), (64, 50), (130, 20)])
    def test_blocked_sums_equal_the_whole_difference_array(self, rng, block_elements, m, n):
        # The reference selection once built the whole (m, m, n) array of
        # profile differences; its row blocks must give the same totals.
        radii = np.sort(rng.uniform(0.0, 5.0, size=(m, n)) ** 3, axis=1)
        radii[m // 2] = radii[0]  # an exact tie goes to the lower index
        whole = np.abs(radii[:, None, :] - radii[None, :, :]).sum(axis=-1).sum(axis=1)
        budget = symmetry.MEDOID_BLOCK_ELEMENTS if block_elements is None else block_elements
        with mock.patch.object(symmetry, "MEDOID_BLOCK_ELEMENTS", budget):
            blocked = symmetry._profile_distance_sums(radii)
        assert blocked.tobytes() == whole.tobytes()

    def test_unknown_strategy(self, rng):
        snapshot, _types, _base = _snapshot_from_shape(rng)
        with pytest.raises(ValueError):
            select_reference(snapshot, "random")


    @pytest.mark.parametrize("strategy", ["typical", "Medoid", ""])
    def test_every_entry_point_refuses_a_strategy_with_one_message(self, strategy):
        # One check serves the reference selection on both geometries and
        # the analysis config, which refuses the value before simulating.
        from repro.alignment.symmetry import select_reference_wrapped
        from repro.core.self_organization import AnalysisConfig
        from repro.particles.domain import get_domain

        snapshot = np.zeros((2, 3, 2))
        messages = set()
        for refuse in (
            lambda: select_reference(snapshot, strategy),
            lambda: select_reference_wrapped(snapshot, get_domain("periodic:8"), strategy),
            lambda: AnalysisConfig(reference_strategy=strategy),
        ):
            with pytest.raises(ValueError) as error:
                refuse()
            messages.add(str(error.value))
        assert messages == {f"unknown reference strategy {strategy!r}"}


class TestAlignSnapshot:
    def test_identical_shapes_collapse_after_reduction(self, rng):
        # All samples are isometries + permutations of one shape, so after the
        # symmetry reduction every sample must coincide with the reference.
        snapshot, types, _base = _snapshot_from_shape(rng, jitter=0.0)
        result = align_snapshot(snapshot, types)
        reference = result.reduced[0]
        for m in range(snapshot.shape[0]):
            np.testing.assert_allclose(result.reduced[m], result.reduced[0], atol=1e-4)
        assert np.all(result.rmse < 1e-4)
        assert reference.shape == (types.size, 2)

    def test_reduced_samples_are_centered(self, rng):
        snapshot, types, _base = _snapshot_from_shape(rng, jitter=0.05)
        result = align_snapshot(snapshot, types)
        np.testing.assert_allclose(result.reduced.mean(axis=1), 0.0, atol=1e-6)

    def test_type_layout_preserved(self, rng):
        # After permutation reduction, slot i must still hold a particle of
        # type types[i]: the per-slot positions of different samples must be
        # closer to same-type positions of the reference than implied by a
        # cross-type mix-up.  We verify indirectly: reduction of a pure-shape
        # ensemble reproduces the reference slots exactly (tested above), and
        # the permutation applied per sample is type-preserving by construction.
        snapshot, types, _base = _snapshot_from_shape(rng, jitter=0.0, n_types=3, n_per_type=4)
        result = align_snapshot(snapshot, types)
        assert result.reduced.shape == snapshot.shape

    def test_explicit_reference_index(self, rng):
        snapshot, types, _base = _snapshot_from_shape(rng)
        result = align_snapshot(snapshot, types, reference=2)
        assert result.reference_index == 2
        assert result.rmse[2] == 0.0

    @pytest.mark.parametrize("reference", [-1, 6, 7, np.int64(-1)])
    def test_reference_index_outside_the_snapshot_is_rejected(self, rng, reference):
        # -1 would otherwise pick the last sample and report the index that
        # marks an explicit reference configuration.
        snapshot, types, _base = _snapshot_from_shape(rng)
        with pytest.raises(ValueError, match=r"\[0, 6\)"):
            align_snapshot(snapshot, types, reference=reference)

    def test_explicit_reference_configuration(self, rng):
        snapshot, types, base = _snapshot_from_shape(rng, jitter=0.0)
        result = align_snapshot(snapshot, types, reference=base)
        assert result.reference_index == -1
        assert np.all(result.rmse < 1e-4)

    def test_validation(self, rng):
        snapshot, types, _base = _snapshot_from_shape(rng)
        with pytest.raises(ValueError):
            align_snapshot(snapshot[..., :1], types)
        with pytest.raises(ValueError):
            align_snapshot(snapshot, types[:-1])
