"""Tests for repro.particles.ensemble."""

from __future__ import annotations

import numpy as np
import pytest

from repro.parallel.batch import max_batch_for_budget
from repro.particles.engine import engine_for_config
from repro.particles.ensemble import EnsembleSimulator
from repro.particles.forces import net_force_norms
from repro.particles.model import SimulationConfig, _clip_drift
from repro.particles.trajectory import EnsembleTrajectory
from repro.particles.types import InteractionParams


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

    @pytest.mark.parametrize("engine", ["dense", "sparse", "auto"])
    @pytest.mark.parametrize("integrator", ["euler-maruyama", "heun"])
    @pytest.mark.parametrize("domain", ["free", "periodic:6"])
    def test_force_norms_are_the_drift_at_every_recorded_frame(
        self, two_type_params, engine, integrator, domain
    ):
        # Each recorded step's diagnostic drift starts the next step; the
        # stats must still equal the clipped drift evaluated afresh at every
        # recorded frame, bit for bit.
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
        simulator = EnsembleSimulator(config, 3, seed=5)
        frames = simulator.run().positions
        fresh = engine_for_config(config)

        def summed_norms(frame):
            drift = _clip_drift(fresh.drift_batch(frame), config.max_drift_norm)
            return net_force_norms(drift).sum(axis=-1)

        norms = np.stack([summed_norms(frame) for frame in frames])
        np.testing.assert_array_equal(simulator.last_stats.mean_force_norm, norms.mean(axis=1))
        quiet = norms[-1] < config.equilibrium_threshold
        assert simulator.last_stats.fraction_at_equilibrium == float(quiet.mean())


class TestSimulateBatch:
    """The one batch function builds its engine, draws its start and steps it."""

    def test_construction_builds_no_engine(self, small_config, built_engines):
        EnsembleSimulator(small_config, 6, seed=0)
        assert built_engines == []

    @pytest.mark.parametrize("batch_size", [6, 3, 2, 1])
    def test_every_run_builds_one_engine_per_batch(self, small_config, built_engines, batch_size):
        budget = batch_size * 4 * small_config.n_particles**2 * 2 * 8
        assert max_batch_for_budget(small_config.n_particles, bytes_budget=budget) == batch_size
        simulator = EnsembleSimulator(small_config, 6, seed=0, bytes_budget=budget)
        first = simulator.run()
        n_batches = 6 // batch_size
        assert len(built_engines) == n_batches
        second = simulator.run()
        assert len(built_engines) == 2 * n_batches
        assert len({id(engine) for engine in built_engines}) == 2 * n_batches
        np.testing.assert_array_equal(first.positions, second.positions)

    @pytest.mark.parametrize("preferred", [1.0, 1.5, 2.5])
    def test_two_noiseless_particles_settle_at_their_preferred_distance(self, preferred):
        params = InteractionParams.single_type(k=2.0, r=preferred)
        config = SimulationConfig(
            type_counts=(2,),
            params=params,
            force="F1",
            dt=0.05,
            n_steps=300,
            noise_variance=0.0,
            init_radius=0.5,
        )
        final = EnsembleSimulator(config, 4, seed=4).run().positions[-1]
        distances = np.linalg.norm(final[:, 0] - final[:, 1], axis=-1)
        np.testing.assert_allclose(distances, preferred, atol=0.05)

    def test_a_settled_noiseless_pair_counts_as_in_equilibrium(self):
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
        )
        simulator = EnsembleSimulator(config, 4, seed=5)
        simulator.run()
        stats = simulator.last_stats
        assert stats.mean_force_norm[0] > config.equilibrium_threshold
        assert stats.fraction_at_equilibrium == 1.0

    def test_max_drift_norm_clips_the_ensemble_drift(self, two_type_params):
        base = SimulationConfig(
            type_counts=(5, 5),
            params=two_type_params,
            force="F1",
            dt=0.02,
            n_steps=3,
            noise_variance=0.0,
            init_radius=1.0,
        )
        clipped = base.with_updates(max_drift_norm=0.1)
        # Noiseless Euler: every step moves each particle by dt times its drift.
        free_steps = np.linalg.norm(
            np.diff(EnsembleSimulator(base, 4, seed=0).run().positions, axis=0), axis=-1
        )
        simulator = EnsembleSimulator(clipped, 4, seed=0)
        steps = np.linalg.norm(np.diff(simulator.run().positions, axis=0), axis=-1)
        assert free_steps.max() > clipped.dt * 0.1
        assert steps.max() <= clipped.dt * 0.1 * (1 + 1e-12)
        capped = clipped.n_particles * 0.1 * (1 + 1e-12)
        assert np.all(simulator.last_stats.mean_force_norm <= capped)
