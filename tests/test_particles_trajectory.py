"""Tests for repro.particles.trajectory."""

from __future__ import annotations

import numpy as np
import pytest

from repro.particles.trajectory import EnsembleTrajectory, Trajectory


@pytest.fixture
def trajectory(rng) -> Trajectory:
    positions = rng.normal(size=(12, 5, 2))
    types = np.array([0, 0, 1, 1, 1])
    return Trajectory(positions=positions, types=types, dt=0.1)


@pytest.fixture
def ensemble(rng) -> EnsembleTrajectory:
    positions = rng.normal(size=(6, 4, 5, 2))
    types = np.array([0, 0, 1, 1, 2])
    return EnsembleTrajectory(positions=positions, types=types, dt=0.5)


class TestTrajectory:
    def test_basic_properties(self, trajectory):
        assert trajectory.n_steps == 12
        assert trajectory.n_particles == 5
        assert trajectory.n_types == 2
        np.testing.assert_allclose(trajectory.times, np.arange(12) * 0.1)

    def test_frame_and_final(self, trajectory):
        np.testing.assert_array_equal(trajectory.frame(3), trajectory.positions[3])
        np.testing.assert_array_equal(trajectory.final(), trajectory.positions[-1])

    def test_iteration(self, trajectory):
        frames = list(trajectory)
        assert len(frames) == 12
        np.testing.assert_array_equal(frames[0], trajectory.positions[0])

    def test_validation(self):
        with pytest.raises(ValueError):
            Trajectory(positions=np.zeros((3, 4, 3)), types=np.zeros(4, dtype=int))
        with pytest.raises(ValueError):
            Trajectory(positions=np.zeros((3, 4, 2)), types=np.zeros(5, dtype=int))
        with pytest.raises(ValueError):
            Trajectory(positions=np.zeros((3, 4, 2)), types=np.zeros(4, dtype=int), dt=0.0)

    def test_save_load_roundtrip(self, trajectory, tmp_path):
        path = tmp_path / "traj.npz"
        trajectory.save(path)
        loaded = Trajectory.load(path)
        np.testing.assert_allclose(loaded.positions, trajectory.positions)
        np.testing.assert_array_equal(loaded.types, trajectory.types)
        assert loaded.dt == trajectory.dt


class TestEnsembleTrajectory:
    def test_basic_properties(self, ensemble):
        assert ensemble.n_steps == 6
        assert ensemble.n_samples == 4
        assert ensemble.n_particles == 5
        assert ensemble.n_types == 3

    def test_snapshot_shape(self, ensemble):
        assert ensemble.snapshot(2).shape == (4, 5, 2)

    def test_sample_extraction(self, ensemble):
        sample = ensemble.sample(1)
        assert isinstance(sample, Trajectory)
        np.testing.assert_array_equal(sample.positions, ensemble.positions[:, 1])

    def test_validation(self):
        with pytest.raises(ValueError):
            EnsembleTrajectory(positions=np.zeros((2, 3, 4, 3)), types=np.zeros(4, dtype=int))
        with pytest.raises(ValueError):
            EnsembleTrajectory(positions=np.zeros((2, 3, 4, 2)), types=np.zeros(3, dtype=int))

    def test_save_load_roundtrip(self, ensemble, tmp_path):
        path = tmp_path / "ensemble.npz"
        ensemble.save(path)
        loaded = EnsembleTrajectory.load(path)
        np.testing.assert_allclose(loaded.positions, ensemble.positions)
        np.testing.assert_array_equal(loaded.types, ensemble.types)
        assert loaded.dt == ensemble.dt
