"""Tests for repro.alignment.torus and the wrapped-domain dispatch.

The headline contract (the PR's acceptance criterion): an ensemble whose
samples are rigid mod-L translations (and admissible flips) of one base
configuration aligns to near-zero residual under the torus reduction, while
the free-space Procrustes path — which sees a seam crossing as a large
deformation — does not.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.alignment import (
    TorusAligner,
    TorusTransform,
    align_snapshot,
    select_reference_wrapped,
)
from repro.alignment.torus import _optimal_axis_shift
from repro.particles.domain import get_domain


def _base_cloud(rng, domain, n_per_type=8, n_types=2):
    types = np.repeat(np.arange(n_types), n_per_type)
    extents = domain.extents
    base = np.column_stack(
        [
            rng.uniform(0.0, extents[0], size=types.size),
            rng.uniform(0.0, extents[1], size=types.size),
        ]
    )
    return base, types

def _type_preserving_permutation(rng, types):
    perm = np.arange(types.size)
    for t in np.unique(types):
        idx = np.nonzero(types == t)[0]
        perm[idx] = idx[rng.permutation(idx.size)]
    return perm


class TestOptimalAxisShift:
    def test_recovers_a_plain_shift(self):
        residuals = np.full(10, 1.25)
        assert _optimal_axis_shift(residuals, 8.0) == pytest.approx(1.25)

    def test_recovers_a_shift_through_the_seam(self):
        # Residuals clustered around -0.5 ≡ 7.5 mod 8: the circular structure
        # matters; a plain mean of the wrapped values would be badly off.
        residuals = np.array([7.4, 7.6, 7.5, 7.45, 7.55])
        shift = _optimal_axis_shift(residuals, 8.0)
        assert shift == pytest.approx(7.5)

    def test_beats_plain_mean_on_split_cluster(self):
        # Half the residuals just below the seam, half just above it.
        residuals = np.array([7.9, 7.95, 0.05, 0.1])
        shift = _optimal_axis_shift(residuals, 8.0)
        wrapped = np.mod(shift - residuals, 8.0)
        wrapped = np.minimum(wrapped, 8.0 - wrapped)
        assert np.max(wrapped) < 0.15  # the naive mean 4.0 would leave ~4

    def test_empty_residuals(self):
        assert _optimal_axis_shift(np.array([]), 5.0) == 0.0


class TestTorusTransform:
    def test_apply_flip_and_translate_wraps(self):
        domain = get_domain("periodic:8,4")
        transform = TorusTransform(flips=(True, False), translation=(3.0, 1.5))
        out = transform.apply(np.array([[1.0, 3.0]]), domain)
        # x: 8 - 1 = 7, + 3 = 10 -> wraps to 2; y: 3 + 1.5 = 4.5 -> wraps to 0.5.
        np.testing.assert_allclose(out, [[2.0, 0.5]])


class TestTorusAligner:
    @pytest.mark.parametrize("spec", ["periodic:8,4", "periodic:6", "channel:8,4"])
    def test_recovers_rigid_translation_exactly(self, rng, spec):
        domain = get_domain(spec)
        base, types = _base_cloud(rng, domain)
        shift = np.array(
            [
                rng.uniform(0.0, domain.extents[0]) if domain.periodic_axes[0] else 0.0,
                rng.uniform(0.0, domain.extents[1]) if domain.periodic_axes[1] else 0.0,
            ]
        )
        perm = _type_preserving_permutation(rng, types)
        source = domain.wrap(base[perm] + shift)
        result = TorusAligner(domain).align(source, base, types[perm])
        assert result.rmse < 1e-8

    def test_recovers_per_axis_flips(self, rng):
        domain = get_domain("periodic:8,4")
        base, types = _base_cloud(rng, domain)
        flipped = np.column_stack([8.0 - base[:, 0], base[:, 1]])
        source = domain.wrap(flipped + np.array([2.3, 0.7]))
        result = TorusAligner(domain).align(source, base, types)
        assert result.rmse < 1e-8
        assert result.transform.flips == (True, False)

    def test_reflecting_walls_pin_the_translation(self, rng):
        # On a channel, a y-shifted copy is NOT a symmetry image: the aligner
        # must not find a spurious zero residual.
        domain = get_domain("channel:8,4")
        base, types = _base_cloud(rng, domain)
        shifted_y = domain.wrap(base + np.array([0.0, 0.9]))
        result = TorusAligner(domain).align(shifted_y, base, types)
        assert result.transform.translation[1] == 0.0
        assert result.rmse > 0.05

    def test_noise_keeps_residual_near_noise_floor(self, rng):
        domain = get_domain("periodic:8,4")
        base, types = _base_cloud(rng, domain)
        noisy = domain.wrap(base + np.array([5.1, 2.6]) + 0.01 * rng.standard_normal(base.shape))
        result = TorusAligner(domain).align(noisy, base, types)
        assert result.rmse < 0.05

    def test_correspondence_is_type_preserving(self, rng):
        domain = get_domain("periodic:8,4")
        base, types = _base_cloud(rng, domain)
        perm = _type_preserving_permutation(rng, types)
        source = domain.wrap(base[perm] + np.array([3.0, 1.0]))
        result = TorusAligner(domain).align(source, base, types[perm])
        assert np.array_equal(np.sort(result.correspondence), np.arange(types.size))
        np.testing.assert_array_equal(types[perm], types[result.correspondence])

    def test_stack_holds_each_samples_own_registration(self, rng):
        domain = get_domain("periodic:8,4")
        base, types = _base_cloud(rng, domain)
        stack = np.stack([domain.wrap(base + np.array([s * 1.7, s * 0.9]) + 0.05 * rng.standard_normal(base.shape)) for s in range(3)])
        aligner = TorusAligner(domain)
        stacked = aligner.align(stack, base, types)
        assert stacked.aligned.shape == stack.shape and len(stacked.transform) == 3
        for s, source in enumerate(stack):
            single = aligner.align(source, base, types)
            np.testing.assert_array_equal(stacked.aligned[s], single.aligned)
            np.testing.assert_array_equal(stacked.correspondence[s], single.correspondence)
            assert stacked.rmse[s] == single.rmse
            assert stacked.transform[s] == single.transform
            assert (stacked.n_iterations[s], stacked.converged[s]) == (single.n_iterations, single.converged)
        empty = aligner.align(stack[:0], base, types)
        assert empty.aligned.shape == (0, types.size, 2) and empty.correspondence.shape == (0, types.size)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite_tolerance_rejected(self, value):
        with pytest.raises(ValueError, match="tolerance must be non-negative"):
            TorusAligner(get_domain("periodic:8"), tolerance=value)

    def test_rejects_free_domain_and_bad_shapes(self, rng):
        with pytest.raises(ValueError, match="bounded"):
            TorusAligner(get_domain("free"))
        domain = get_domain("periodic:8,4")
        aligner = TorusAligner(domain)
        with pytest.raises(ValueError, match="shape"):
            aligner.align(np.zeros((3, 2)), np.zeros((4, 2)), np.zeros(3, dtype=int))
        with pytest.raises(ValueError, match="types"):
            aligner.align(np.zeros((3, 2)), np.zeros((3, 2)), np.zeros(4, dtype=int))


class TestSelectReferenceWrapped:
    def test_first_strategy(self, rng):
        domain = get_domain("periodic:8,4")
        snap = rng.uniform(0.0, 4.0, size=(5, 10, 2))
        assert select_reference_wrapped(snap, domain, "first") == 0

    def test_medoid_is_translation_insensitive(self, rng):
        # All samples are mod-L translations of one shape -> their wrapped
        # radii profiles are identical, so any index is a valid medoid and
        # the computation must not crash near the seam.
        domain = get_domain("periodic:8,4")
        base, _ = _base_cloud(rng, domain)
        snap = np.stack(
            [domain.wrap(base + np.array([s * 1.7, s * 0.9])) for s in range(5)]
        )
        index = select_reference_wrapped(snap, domain, "medoid")
        assert 0 <= index < 5

    def test_unknown_strategy(self, rng):
        domain = get_domain("periodic:8,4")
        with pytest.raises(ValueError, match="unknown reference strategy"):
            select_reference_wrapped(np.zeros((2, 3, 2)), domain, "typical")


class TestWrappedSnapshotAlignment:
    def test_translated_ensemble_collapses_where_procrustes_does_not(self, rng):
        # The acceptance criterion: rigid mod-L translations of one base
        # shape align to ~zero residual under the torus reduction; the
        # free-space path leaves O(1) residuals on the same snapshot.
        domain = get_domain("periodic:8,4")
        base, types = _base_cloud(rng, domain)
        n_samples = 6
        snapshot = np.empty((n_samples, types.size, 2))
        for m in range(n_samples):
            shift = np.array(
                [rng.uniform(0.0, 8.0), rng.uniform(0.0, 4.0)]
            )
            perm = _type_preserving_permutation(rng, types)
            snapshot[m] = domain.wrap(base[perm] + shift)
        wrapped = align_snapshot(snapshot, types, domain=domain)
        assert np.all(wrapped.rmse < 1e-6)
        free = align_snapshot(snapshot, types)
        assert np.max(free.rmse) > 0.1

    def test_reduced_coordinates_stay_in_the_box(self, rng):
        domain = get_domain("channel:8,4")
        base, types = _base_cloud(rng, domain)
        snapshot = np.stack(
            [domain.wrap(base + np.array([s * 2.1, 0.0])) for s in range(4)]
        )
        alignment = align_snapshot(snapshot, types, domain=domain)
        assert np.all(alignment.reduced >= 0.0)
        assert np.all(alignment.reduced[..., 0] <= 8.0)
        assert np.all(alignment.reduced[..., 1] <= 4.0)

    def test_free_and_reflecting_domains_keep_the_free_path(self, rng):
        # Passing a domain without periodic axes must change nothing.
        snapshot = rng.uniform(-3.0, 3.0, size=(4, 12, 2))
        types = np.repeat([0, 1], 6)
        default = align_snapshot(snapshot, types)
        explicit_free = align_snapshot(snapshot, types, domain="free")
        np.testing.assert_array_equal(default.reduced, explicit_free.reduced)
        reflecting = align_snapshot(
            domain_snap := get_domain("reflecting:8,4").wrap(snapshot + 4.0),
            types,
            domain="reflecting:8,4",
        )
        free_on_same = align_snapshot(domain_snap, types)
        np.testing.assert_array_equal(reflecting.reduced, free_on_same.reduced)

    def test_single_sample_snapshot_is_its_own_reference(self, rng):
        domain = get_domain("periodic:8,4")
        base, types = _base_cloud(rng, domain)
        alignment = align_snapshot(base[None], types, domain=domain)
        assert alignment.reference_index == 0
        np.testing.assert_array_equal(alignment.reduced[0], domain.wrap(base))
        np.testing.assert_array_equal(alignment.rmse, [0.0])

    def test_explicit_reference_configuration(self, rng):
        domain = get_domain("periodic:8,4")
        base, types = _base_cloud(rng, domain)
        snapshot = np.stack([domain.wrap(base + np.array([1.0, 0.5]))])
        alignment = align_snapshot(snapshot, types, domain=domain, reference=base)
        assert alignment.reference_index == -1
        assert np.all(alignment.rmse < 1e-6)
