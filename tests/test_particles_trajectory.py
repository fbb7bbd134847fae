"""Tests for repro.particles.trajectory."""

from __future__ import annotations

import numpy as np
import pytest

from repro.particles.trajectory import EnsembleTrajectory


@pytest.fixture
def ensemble(rng) -> EnsembleTrajectory:
    positions = rng.normal(size=(6, 4, 5, 2))
    types = np.array([0, 0, 1, 1, 2])
    return EnsembleTrajectory(positions=positions, types=types, dt=0.5)


class TestEnsembleTrajectory:
    def test_basic_properties(self, ensemble):
        assert ensemble.n_steps == 6
        assert ensemble.n_samples == 4
        assert ensemble.n_particles == 5
        assert ensemble.n_types == 3
        np.testing.assert_allclose(ensemble.times, np.arange(6) * 0.5)

    def test_snapshot_shape(self, ensemble):
        assert ensemble.snapshot(2).shape == (4, 5, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            EnsembleTrajectory(positions=np.zeros((2, 3, 4, 3)), types=np.zeros(4, dtype=int))
        with pytest.raises(ValueError):
            EnsembleTrajectory(positions=np.zeros((2, 3, 4, 2)), types=np.zeros(3, dtype=int))
        with pytest.raises(ValueError, match="non-negative"):
            EnsembleTrajectory(positions=np.zeros((2, 3, 4, 2)), types=np.array([0, 1, -1, 0]))
        with pytest.raises(ValueError, match="dt"):
            EnsembleTrajectory(
                positions=np.zeros((2, 3, 4, 2)), types=np.zeros(4, dtype=int), dt=0.0
            )

    def test_types_are_stored_as_int64(self):
        # Persisted into .npz archives, so never the platform's ``int``.
        single = EnsembleTrajectory(
            positions=np.zeros((3, 1, 4, 2)), types=np.zeros(4, dtype=np.int32)
        )
        assert single.n_samples == 1
        assert single.types.dtype == np.int64

    def test_save_load_roundtrip(self, ensemble, tmp_path):
        path = tmp_path / "ensemble.npz"
        ensemble.save(path)
        loaded = EnsembleTrajectory.load(path)
        np.testing.assert_allclose(loaded.positions, ensemble.positions)
        np.testing.assert_array_equal(loaded.types, ensemble.types)
        assert loaded.dt == ensemble.dt
