"""Tests for repro.particles.model (SimulationConfig and ParticleSystem)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.particles.model import ParticleSystem, SimulationConfig
from repro.particles.types import InteractionParams


@pytest.fixture
def config(two_type_params) -> SimulationConfig:
    return SimulationConfig(
        type_counts=(4, 4),
        params=two_type_params,
        force="F1",
        cutoff=None,
        dt=0.02,
        n_steps=10,
        init_radius=2.0,
    )


class TestSimulationConfig:
    def test_derived_properties(self, config):
        assert config.n_particles == 8
        assert config.n_types == 2
        np.testing.assert_array_equal(config.types, [0, 0, 0, 0, 1, 1, 1, 1])
        assert config.disc_radius == 2.0
        assert config.effective_cutoff == np.inf

    def test_default_disc_radius_from_density(self, two_type_params):
        config = SimulationConfig(type_counts=(10, 10), params=two_type_params)
        assert np.isclose(np.pi * config.disc_radius**2, 20.0)

    def test_type_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig(type_counts=(5,), params=InteractionParams.clustering(2))

    def test_invalid_values_rejected(self, two_type_params):
        with pytest.raises(ValueError):
            SimulationConfig(type_counts=(2, 2), params=two_type_params, dt=0.0)
        with pytest.raises(ValueError):
            SimulationConfig(type_counts=(2, 2), params=two_type_params, substeps=0)
        with pytest.raises(ValueError):
            SimulationConfig(type_counts=(2, 2), params=two_type_params, cutoff=-1.0)
        with pytest.raises(ValueError):
            SimulationConfig(type_counts=(2, 2), params=two_type_params, noise_variance=-0.1)
        with pytest.raises(ValueError):
            SimulationConfig(type_counts=(0, 0), params=two_type_params)

    def test_nan_cutoff_rejected(self, two_type_params):
        # Every engine reads a non-finite cut-off as "unconstrained", so a
        # NaN would silently run without one (and be hashed as NaN).
        with pytest.raises(ValueError, match="NaN"):
            SimulationConfig(type_counts=(2, 2), params=two_type_params, cutoff=float("nan"))

    @pytest.mark.parametrize("cutoff", [None, float("inf")])
    def test_unconstrained_cutoffs_accepted(self, two_type_params, cutoff):
        config = SimulationConfig(type_counts=(2, 2), params=two_type_params, cutoff=cutoff)
        assert config.effective_cutoff == float("inf")

    def test_unknown_force_rejected_eagerly(self, two_type_params):
        with pytest.raises(KeyError):
            SimulationConfig(type_counts=(2, 2), params=two_type_params, force="F9")

    def test_with_updates(self, config):
        updated = config.with_updates(n_steps=99)
        assert updated.n_steps == 99
        assert config.n_steps == 10

    def test_dict_roundtrip(self, config):
        restored = SimulationConfig.from_dict(config.to_dict())
        assert restored.type_counts == config.type_counts
        assert restored.force == config.force
        assert restored.dt == config.dt
        np.testing.assert_allclose(restored.params.r, config.params.r)


class TestParticleSystem:
    def test_initial_positions_inside_disc(self, config):
        system = ParticleSystem(config, rng=0)
        radii = np.linalg.norm(system.positions, axis=1)
        assert radii.max() <= config.disc_radius + 1e-12

    def test_explicit_initial_positions(self, config):
        initial = np.zeros((8, 2))
        system = ParticleSystem(config, rng=0, initial_positions=initial)
        np.testing.assert_array_equal(system.positions, initial)
        assert system.positions is not initial  # defensive copy

    def test_initial_positions_shape_checked(self, config):
        with pytest.raises(ValueError):
            ParticleSystem(config, initial_positions=np.zeros((3, 2)))

    def test_step_advances_counter_and_positions(self, config):
        system = ParticleSystem(config, rng=1)
        before = system.positions.copy()
        system.step()
        assert system.step_count == 1
        assert not np.allclose(system.positions, before)

    def test_run_records_trajectory(self, config):
        system = ParticleSystem(config, rng=2)
        trajectory = system.run(5)
        assert trajectory.n_steps == 6  # initial frame + 5 steps
        assert trajectory.n_particles == 8
        assert trajectory.dt == pytest.approx(config.dt * config.substeps)

    def test_run_without_recording(self, config):
        trajectory = ParticleSystem(config, rng=3).run(4, record=False)
        assert trajectory.n_steps == 1

    def test_reproducibility(self, config):
        a = ParticleSystem(config, rng=7).run(5).positions
        b = ParticleSystem(config, rng=7).run(5).positions
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self, config):
        a = ParticleSystem(config, rng=1).run(5).positions
        b = ParticleSystem(config, rng=2).run(5).positions
        assert not np.allclose(a, b)

    def test_two_particles_reach_preferred_distance(self):
        params = InteractionParams.single_type(k=2.0, r=1.5)
        config = SimulationConfig(
            type_counts=(2,),
            params=params,
            force="F1",
            dt=0.05,
            n_steps=300,
            noise_variance=0.0,
            init_radius=0.5,
        )
        system = ParticleSystem(config, rng=4)
        trajectory = system.run()
        final_distance = np.linalg.norm(trajectory.final()[0] - trajectory.final()[1])
        assert np.isclose(final_distance, 1.5, atol=0.05)

    def test_equilibrium_detected_for_noiseless_pair(self):
        params = InteractionParams.single_type(k=2.0, r=1.0)
        config = SimulationConfig(
            type_counts=(2,),
            params=params,
            force="F1",
            dt=0.05,
            n_steps=400,
            noise_variance=0.0,
            init_radius=0.5,
            equilibrium_threshold=1e-3,
            equilibrium_patience=3,
        )
        system = ParticleSystem(config, rng=5)
        trajectory = system.run(stop_at_equilibrium=True)
        assert system.at_equilibrium
        assert trajectory.n_steps < 401

    def test_sparse_backend_matches_dense(self, two_type_params):
        base = dict(
            type_counts=(5, 5),
            params=two_type_params,
            force="F1",
            cutoff=2.0,
            dt=0.02,
            n_steps=5,
            noise_variance=0.0,
            init_radius=2.0,
        )
        dense_cfg = SimulationConfig(**base, engine="dense")
        sparse_cfg = SimulationConfig(**base, engine="sparse")
        initial = ParticleSystem(dense_cfg, rng=0).positions
        dense = ParticleSystem(dense_cfg, rng=0, initial_positions=initial).run().positions
        sparse = ParticleSystem(sparse_cfg, rng=0, initial_positions=initial).run().positions
        np.testing.assert_allclose(dense, sparse, atol=1e-10)

    def test_max_drift_norm_clips(self, two_type_params):
        config = SimulationConfig(
            type_counts=(5, 5),
            params=two_type_params,
            force="F1",
            max_drift_norm=0.1,
            init_radius=1.0,
        )
        system = ParticleSystem(config, rng=0)
        norms = np.linalg.norm(system.drift(), axis=1)
        assert norms.max() <= 0.1 + 1e-9

    def test_force_history_grows_with_steps(self, config):
        system = ParticleSystem(config, rng=0)
        system.run(4)
        assert system.force_history.shape == (4,)
