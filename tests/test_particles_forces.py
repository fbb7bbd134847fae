"""Tests for repro.particles.forces."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.particles.forces import (
    _DISTANCE_FLOOR,
    FORCE_SCALINGS,
    GaussianAdhesionForce,
    LinearAdhesionForce,
    drift_batch,
    get_force_scaling,
    net_force_norms,
    pair_interaction_weights,
    pairwise_distance_matrix,
    planar_pair_matrices,
)
from repro.particles.types import InteractionParams


class TestForceScalingFunctions:
    def test_f1_zero_at_preferred_distance(self):
        f1 = LinearAdhesionForce()
        value = f1(np.array([2.0]), 1.0, 2.0, 1.0, 1.0)
        np.testing.assert_allclose(value, 0.0, atol=1e-12)

    def test_f1_sign_structure(self):
        f1 = LinearAdhesionForce()
        # Below the preferred distance the scaling is negative (repulsion);
        # beyond it positive (attraction).
        assert f1(np.array([1.0]), 1.0, 2.0, 1.0, 1.0)[0] < 0
        assert f1(np.array([3.0]), 1.0, 2.0, 1.0, 1.0)[0] > 0

    def test_f1_saturates_at_k(self):
        f1 = LinearAdhesionForce()
        value = f1(np.array([1e9]), 3.0, 2.0, 1.0, 1.0)
        np.testing.assert_allclose(value, 3.0, rtol=1e-6)

    def test_f1_finite_at_zero_distance(self):
        f1 = LinearAdhesionForce()
        assert np.isfinite(f1(np.array([0.0]), 1.0, 2.0, 1.0, 1.0)).all()

    def test_f2_zero_at_origin_with_unit_sigma(self):
        f2 = GaussianAdhesionForce()
        np.testing.assert_allclose(f2(np.array([0.0]), 1.0, 1.0, 1.0, 2.0), 0.0, atol=1e-12)

    def test_f2_repulsive_everywhere_when_tau_exceeds_sigma(self):
        # With sigma = 1 (the paper's setting) and tau > 1 the repulsion term
        # decays slower, so F2 <= 0 at every distance: a purely repulsive,
        # finite-range interaction.
        f2 = GaussianAdhesionForce()
        x = np.linspace(0.0, 10.0, 200)
        assert np.all(f2(x, 2.0, 1.0, 1.0, 4.0) <= 1e-12)

    def test_f2_sign_change_when_sigma_exceeds_tau(self):
        f2 = GaussianAdhesionForce()
        x = np.linspace(0.01, 8.0, 400)
        values = f2(x, 1.0, 1.0, 2.0, 1.0)
        assert values.min() < 0 < values.max()

    def test_f2_vanishes_at_long_range(self):
        f2 = GaussianAdhesionForce()
        np.testing.assert_allclose(f2(np.array([50.0]), 5.0, 1.0, 1.0, 3.0), 0.0, atol=1e-12)

    def test_preferred_distance_f1_matches_r(self):
        f1 = LinearAdhesionForce()
        assert np.isclose(f1.preferred_distance(1.0, 2.5, 1.0, 1.0), 2.5, atol=1e-2)

    def test_registry_lookup(self):
        assert get_force_scaling("F1") is FORCE_SCALINGS["F1"]
        assert get_force_scaling("f2").name == "F2"
        assert get_force_scaling(FORCE_SCALINGS["F1"]) is FORCE_SCALINGS["F1"]

    def test_registry_unknown(self):
        with pytest.raises(KeyError):
            get_force_scaling("F3")


class TestForceInvariantProperties:
    """Property-based tests of the Eq. 7/8 invariants the paper relies on."""

    @given(
        k=st.floats(min_value=0.1, max_value=10.0),
        r=st.floats(min_value=0.1, max_value=8.0),
    )
    def test_f1_zero_crossing_exactly_at_r(self, k, r):
        # F1(r) = k (1 - r/r) is exactly zero in floating point, for every k, r.
        f1 = LinearAdhesionForce()
        assert f1(np.array([r]), k, r, 1.0, 1.0)[0] == 0.0
        # And the sign flips across the crossing: repulsive below, attractive above.
        assert f1(np.array([0.5 * r]), k, r, 1.0, 1.0)[0] < 0
        assert f1(np.array([2.0 * r]), k, r, 1.0, 1.0)[0] > 0

    @given(
        k=st.floats(min_value=0.1, max_value=10.0),
        tau=st.floats(min_value=1.5, max_value=10.0),
    )
    def test_f2_pure_repulsion_when_tau_exceeds_unit_sigma(self, k, tau):
        # The paper's setting: sigma = 1, tau > 1 makes the repulsion term
        # dominate at every distance, so F2 <= 0 everywhere.
        f2 = GaussianAdhesionForce()
        x = np.linspace(0.0, 12.0, 300)
        assert np.all(f2(x, k, 1.0, 1.0, tau) <= 1e-12)

    @given(
        k=st.floats(min_value=0.1, max_value=10.0),
        sigma=st.floats(min_value=2.0, max_value=6.0),
    )
    def test_f2_sign_structure_when_sigma_exceeds_tau(self, k, sigma):
        # sigma > tau: short-range repulsion, longer-range attraction — the
        # scaling must take both signs and decay to zero at long range.
        f2 = GaussianAdhesionForce()
        x = np.linspace(0.01, 12.0, 600)
        values = f2(x, k, 1.0, sigma, 1.0)
        assert values.min() < 0 < values.max()
        np.testing.assert_allclose(f2(np.array([60.0]), k, 1.0, sigma, 1.0), 0.0, atol=1e-12)

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        force=st.sampled_from(["F1", "F2"]),
        cutoff=st.one_of(st.none(), st.floats(min_value=0.5, max_value=5.0)),
    )
    def test_drift_antisymmetry_total_momentum_vanishes(self, seed, force, cutoff):
        # Symmetric parameters + antisymmetric Δz_ij make the pairwise drift
        # obey Newton's third law, so absent noise the total momentum is ~0.
        rng = np.random.default_rng(seed)
        params = InteractionParams.random(2, rng=rng)
        types = rng.integers(0, 2, size=10)
        positions = rng.uniform(-3, 3, size=(10, 2))
        drift = drift_batch(positions[None], types, params, force, cutoff=cutoff)[0]
        np.testing.assert_allclose(drift.sum(axis=0), 0.0, atol=1e-9)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_coincident_particles_are_safe(self, seed):
        # Two particles at the same point hit F1's r/x singularity; the
        # distance floor keeps the drift finite (and the Δz = 0 prefactor
        # makes the coincident pair contribute nothing).
        rng = np.random.default_rng(seed)
        params = InteractionParams.random(2, rng=rng)
        positions = rng.uniform(-3, 3, size=(6, 2))
        positions[1] = positions[0]
        types = rng.integers(0, 2, size=6)
        for force in ("F1", "F2"):
            drift = drift_batch(positions[None], types, params, force)[0]
            assert np.isfinite(drift).all()

    def test_distance_floor_bounds_f1(self):
        f1 = LinearAdhesionForce()
        at_zero = f1(np.array([0.0]), 1.0, 2.0, 1.0, 1.0)[0]
        at_floor = f1(np.array([_DISTANCE_FLOOR]), 1.0, 2.0, 1.0, 1.0)[0]
        assert at_zero == at_floor
        assert np.isfinite(at_zero)


class TestPairInteractionWeights:
    def test_matches_scaling_with_cutoff_mask(self):
        params = InteractionParams.clustering(2, self_distance=1.0, cross_distance=2.5, k=2.0)
        dist = np.array([0.5, 1.5, 4.0])
        ti = np.array([0, 0, 1])
        tj = np.array([0, 1, 1])
        weights = pair_interaction_weights(dist, ti, tj, params, "F1", cutoff=2.0)
        f1 = get_force_scaling("F1")
        expected = -f1(
            dist, params.k[ti, tj], params.r[ti, tj], params.sigma[ti, tj], params.tau[ti, tj]
        )
        expected[dist > 2.0] = 0.0
        np.testing.assert_array_equal(weights, expected)

    def test_no_cutoff_keeps_every_pair(self):
        params = InteractionParams.single_type(k=1.0, r=1.0)
        dist = np.array([0.5, 100.0])
        zero = np.zeros(2, dtype=int)
        weights = pair_interaction_weights(dist, zero, zero, params, "F1", cutoff=None)
        assert np.all(weights != 0.0)


class TestPairwiseDistances:
    def test_known_values(self):
        pos = np.array([[0.0, 0.0], [3.0, 4.0]])
        dist = pairwise_distance_matrix(pos)
        np.testing.assert_allclose(dist, [[0.0, 5.0], [5.0, 0.0]])

    def test_batch_shape(self):
        pos = np.zeros((4, 7, 2))
        assert pairwise_distance_matrix(pos).shape == (4, 7, 7)

    @given(st.integers(min_value=2, max_value=10))
    def test_symmetry_and_zero_diagonal(self, n):
        pos = np.random.default_rng(n).uniform(-5, 5, size=(n, 2))
        dist = pairwise_distance_matrix(pos)
        np.testing.assert_allclose(dist, dist.T, atol=1e-12)
        np.testing.assert_allclose(np.diag(dist), 0.0, atol=1e-12)


def _random_system(rng, n=8, n_types=2):
    params = InteractionParams.random(n_types, rng=rng)
    types = rng.integers(0, n_types, size=n)
    positions = rng.uniform(-3, 3, size=(n, 2))
    return positions, types, params


class TestDriftSingle:
    def test_two_particles_attract_beyond_preferred_distance(self):
        params = InteractionParams.single_type(k=1.0, r=1.0)
        positions = np.array([[0.0, 0.0], [3.0, 0.0]])
        types = np.zeros(2, dtype=int)
        drift = drift_batch(positions[None], types, params, "F1")[0]
        # particle 0 should be pushed towards +x, particle 1 towards -x
        assert drift[0, 0] > 0
        assert drift[1, 0] < 0
        np.testing.assert_allclose(drift[:, 1], 0.0, atol=1e-12)

    def test_two_particles_repel_below_preferred_distance(self):
        params = InteractionParams.single_type(k=1.0, r=2.0)
        positions = np.array([[0.0, 0.0], [1.0, 0.0]])
        types = np.zeros(2, dtype=int)
        drift = drift_batch(positions[None], types, params, "F1")[0]
        assert drift[0, 0] < 0
        assert drift[1, 0] > 0

    def test_momentum_conservation_for_symmetric_params(self, rng):
        positions, types, params = _random_system(rng)
        drift = drift_batch(positions[None], types, params, "F1")[0]
        # Newton's third law: pairwise forces cancel in the sum.
        np.testing.assert_allclose(drift.sum(axis=0), 0.0, atol=1e-9)

    def test_cutoff_removes_interactions(self):
        params = InteractionParams.single_type(k=1.0, r=1.0)
        positions = np.array([[0.0, 0.0], [10.0, 0.0]])
        types = np.zeros(2, dtype=int)
        drift = drift_batch(positions[None], types, params, "F1", cutoff=5.0)[0]
        np.testing.assert_allclose(drift, 0.0, atol=1e-12)

    def test_infinite_cutoff_equals_none(self, rng):
        positions, types, params = _random_system(rng)
        a = drift_batch(positions[None], types, params, "F2", cutoff=None)[0]
        b = drift_batch(positions[None], types, params, "F2", cutoff=np.inf)[0]
        np.testing.assert_allclose(a, b)

    def test_translation_invariance(self, rng):
        positions, types, params = _random_system(rng)
        shifted = positions + np.array([11.0, -4.0])
        a = drift_batch(positions[None], types, params, "F1")[0]
        b = drift_batch(shifted[None], types, params, "F1")[0]
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_rotation_equivariance(self, rng):
        positions, types, params = _random_system(rng)
        theta = 0.7
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        a = drift_batch((positions @ rot.T)[None], types, params, "F1")[0]
        b = drift_batch(positions[None], types, params, "F1")[0] @ rot.T
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_same_type_permutation_equivariance(self, rng):
        positions, types, params = _random_system(rng, n=8, n_types=2)
        # Permute two particles of the same type; the drift permutes the same way.
        same_type = np.nonzero(types == types[0])[0]
        if same_type.size < 2:
            pytest.skip("random draw produced fewer than 2 particles of type 0")
        i, j = same_type[:2]
        perm = np.arange(positions.shape[0])
        perm[[i, j]] = perm[[j, i]]
        a = drift_batch(positions[perm][None], types, params, "F1")[0]
        b = drift_batch(positions[None], types, params, "F1")[0][perm]
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_sparse_pairs_match_dense(self, rng):
        positions, types, params = _random_system(rng, n=12)
        cutoff = 2.5
        from repro.particles.engine import sparse_drift_batch
        from repro.particles.neighbors import BruteForceNeighbors

        dense = drift_batch(positions[None], types, params, "F1", cutoff=cutoff)[0]
        sparse = sparse_drift_batch(
            positions[None], types, params, "F1", cutoff, BruteForceNeighbors()
        )[0]
        np.testing.assert_array_equal(sparse, dense)

    def test_pair_matrices_can_be_reused(self, rng):
        positions, types, params = _random_system(rng)
        pair = planar_pair_matrices(params, types)
        a = drift_batch(positions[None], types, params, "F1", cutoff=2.0, pair=pair)[0]
        b = drift_batch(positions[None], types, params, "F1", cutoff=2.0)[0]
        np.testing.assert_array_equal(a, b)

    def test_shape_validation(self):
        params = InteractionParams.single_type()
        with pytest.raises(ValueError):
            drift_batch(np.zeros((1, 3, 3)), np.zeros(3, dtype=int), params, "F1")
        with pytest.raises(ValueError):
            drift_batch(np.zeros((1, 3, 2)), np.zeros(4, dtype=int), params, "F1")


class TestDriftBatch:
    def test_matches_single_per_sample(self, rng):
        params = InteractionParams.random(3, rng=rng)
        types = rng.integers(0, 3, size=9)
        batch = rng.uniform(-3, 3, size=(5, 9, 2))
        batched = drift_batch(batch, types, params, "F1", cutoff=4.0)
        for m in range(batch.shape[0]):
            single = drift_batch(batch[m][None], types, params, "F1", cutoff=4.0)[0]
            np.testing.assert_allclose(batched[m], single, atol=1e-9)

    def test_requires_batch_shape(self):
        params = InteractionParams.single_type()
        with pytest.raises(ValueError):
            drift_batch(np.zeros((3, 2)), np.zeros(3, dtype=int), params, "F1")

    def test_pair_matrices_can_be_reused(self, rng):
        params = InteractionParams.random(2, rng=rng)
        types = rng.integers(0, 2, size=6)
        batch = rng.uniform(-2, 2, size=(3, 6, 2))
        pair = planar_pair_matrices(params, types)
        a = drift_batch(batch, types, params, "F2", pair=pair)
        b = drift_batch(batch, types, params, "F2")
        np.testing.assert_allclose(a, b)


class TestNetForceNorms:
    def test_single_configuration(self):
        drift = np.array([[3.0, 4.0], [0.0, 0.0]])
        np.testing.assert_allclose(net_force_norms(drift), [5.0, 0.0])

    def test_batch_shape(self):
        drift = np.ones((4, 6, 2))
        assert net_force_norms(drift).shape == (4, 6)
