"""Tests for repro.particles.ensemble."""

from __future__ import annotations

import numpy as np
import pytest

from repro.particles.ensemble import EnsembleSimulator, simulate_ensemble
from repro.particles.model import ParticleSystem, SimulationConfig
from repro.particles.trajectory import EnsembleTrajectory


class TestEnsembleSimulator:
    def test_output_shape(self, small_config):
        ensemble = EnsembleSimulator(small_config, 5, seed=0).run()
        assert isinstance(ensemble, EnsembleTrajectory)
        assert ensemble.positions.shape == (small_config.n_steps + 1, 5, 12, 2)
        assert ensemble.dt == pytest.approx(small_config.dt * small_config.substeps)

    def test_reproducible_for_same_seed(self, small_config):
        a = EnsembleSimulator(small_config, 4, seed=11).run()
        b = EnsembleSimulator(small_config, 4, seed=11).run()
        np.testing.assert_array_equal(a.positions, b.positions)

    def test_different_seeds_differ(self, small_config):
        a = EnsembleSimulator(small_config, 4, seed=1).run()
        b = EnsembleSimulator(small_config, 4, seed=2).run()
        assert not np.allclose(a.positions, b.positions)

    def test_samples_are_independent(self, small_config):
        ensemble = EnsembleSimulator(small_config, 3, seed=0).run()
        assert not np.allclose(ensemble.positions[:, 0], ensemble.positions[:, 1])

    def test_initial_frame_inside_disc(self, small_config):
        ensemble = EnsembleSimulator(small_config, 4, seed=0).run()
        radii = np.linalg.norm(ensemble.positions[0], axis=-1)
        assert radii.max() <= small_config.disc_radius + 1e-12

    def test_stats_populated(self, small_config):
        simulator = EnsembleSimulator(small_config, 4, seed=0)
        assert simulator.last_stats is None
        simulator.run()
        stats = simulator.last_stats
        assert stats is not None
        assert stats.mean_force_norm.shape == (small_config.n_steps + 1,)
        assert 0.0 <= stats.fraction_at_equilibrium <= 1.0

    def test_batching_does_not_change_results(self, small_config):
        # Force a tiny memory budget so the ensemble is split into many batches;
        # the batch layout is part of the seeding contract, so compare within
        # the same budget across parallelism settings instead.
        simulator_small = EnsembleSimulator(small_config, 6, seed=3, bytes_budget=20_000)
        serial = simulator_small.run(n_jobs=1)
        simulator_small2 = EnsembleSimulator(small_config, 6, seed=3, bytes_budget=20_000)
        parallel = simulator_small2.run(n_jobs=2)
        np.testing.assert_allclose(serial.positions, parallel.positions)

    def test_invalid_sample_count(self, small_config):
        with pytest.raises(ValueError):
            EnsembleSimulator(small_config, 0)

    @pytest.mark.parametrize("engine", ["dense", "sparse"])
    @pytest.mark.parametrize("integrator", ["euler-maruyama", "heun"])
    @pytest.mark.parametrize("domain", ["free", "periodic:6"])
    def test_dynamics_match_particle_system_statistics(
        self, two_type_params, engine, integrator, domain
    ):
        # Single runs and ensembles step through the same function: with the
        # same initial state and noise stream (noise on) they agree bitwise.
        config = SimulationConfig(
            type_counts=(4, 4),
            params=two_type_params,
            force="F1",
            cutoff=2.5,
            domain=domain,
            dt=0.02,
            substeps=2,
            n_steps=8,
            init_radius=2.0,
            integrator=integrator,
            engine=engine,
            max_drift_norm=20.0,
        )
        initial = EnsembleSimulator(config, 1).initial_snapshot(np.random.default_rng(5))[0]
        single = ParticleSystem(config, rng=np.random.default_rng(7), initial_positions=initial)
        trajectory = single.run()
        frames, force_norms = EnsembleSimulator(config, 1)._run_batch(
            initial[None], np.random.default_rng(7)
        )
        np.testing.assert_array_equal(trajectory.positions, frames[:, 0])
        np.testing.assert_array_equal(single.force_history, force_norms[1:, 0])


class TestSimulateEnsembleWrapper:
    def test_matches_simulator(self, small_config):
        direct = EnsembleSimulator(small_config, 3, seed=9).run()
        wrapped = simulate_ensemble(small_config, 3, seed=9)
        np.testing.assert_array_equal(direct.positions, wrapped.positions)
