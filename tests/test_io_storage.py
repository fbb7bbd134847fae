"""Tests for repro.io.storage."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pipeline import run_experiment
from repro.io.storage import load_measurement, save_measurement


@pytest.fixture(scope="module")
def experiment_result():
    from repro.core.self_organization import AnalysisConfig
    from repro.particles.model import SimulationConfig
    from repro.particles.types import InteractionParams

    params = InteractionParams.clustering(2, self_distance=1.0, cross_distance=2.0)
    config = SimulationConfig(
        type_counts=(5, 5), params=params, force="F1", dt=0.02, n_steps=10, init_radius=2.5
    )
    return run_experiment(
        config,
        12,
        analysis_config=AnalysisConfig(
            step_stride=5, k_neighbors=3, compute_entropies=True, compute_decomposition=True
        ),
        seed=0,
    )


class TestMeasurementRoundtrip:
    def test_save_and_load(self, experiment_result, tmp_path):
        path = save_measurement(tmp_path / "measurement.json", experiment_result.measurement)
        loaded = load_measurement(path)
        np.testing.assert_allclose(
            loaded.multi_information, experiment_result.measurement.multi_information
        )
        np.testing.assert_array_equal(loaded.steps, experiment_result.measurement.steps)
        np.testing.assert_allclose(
            loaded.joint_entropy, experiment_result.measurement.joint_entropy
        )
        assert loaded.observer_mode == experiment_result.measurement.observer_mode
        assert loaded.metadata["n_samples"] == 12

    def test_creates_parent_directories(self, experiment_result, tmp_path):
        path = save_measurement(
            tmp_path / "deep" / "nested" / "m.json", experiment_result.measurement
        )
        assert path.exists()

    def test_every_optional_series_survives_the_round_trip(self, experiment_result, tmp_path):
        original = experiment_result.measurement
        loaded = load_measurement(save_measurement(tmp_path / "m.json", original))
        np.testing.assert_allclose(loaded.marginal_entropy_sum, original.marginal_entropy_sum)
        np.testing.assert_allclose(loaded.joint_entropy, original.joint_entropy)
        np.testing.assert_allclose(loaded.alignment_rmse, original.alignment_rmse)
        np.testing.assert_allclose(loaded.times, original.times)
        assert loaded.n_observers == original.n_observers
        assert loaded.metadata == original.metadata

    def test_decompositions_survive_the_round_trip(self, experiment_result, tmp_path):
        original = experiment_result.measurement
        assert original.decompositions, "fixture must compute a decomposition"
        loaded = load_measurement(save_measurement(tmp_path / "m.json", original))
        assert loaded.decompositions is not None
        assert len(loaded.decompositions) == len(original.decompositions)
        for dec_loaded, dec_original in zip(loaded.decompositions, original.decompositions):
            assert dec_loaded == dec_original  # frozen dataclass of floats/tuples
        # The derived series APIs work on the loaded result too.
        for key, series in original.decomposition_series().items():
            np.testing.assert_allclose(loaded.decomposition_series()[key], series)
        for key, series in original.normalized_decomposition_series().items():
            np.testing.assert_allclose(loaded.normalized_decomposition_series()[key], series)

    def test_legacy_payloads_keep_the_flattened_decomposition(self, experiment_result, tmp_path):
        import json

        # Files written before the lossless round-trip carry only the
        # flattened "decomposition" series; the loader must keep exposing it
        # through metadata (the old API surface).
        path = save_measurement(tmp_path / "m.json", experiment_result.measurement)
        payload = json.loads(path.read_text())
        payload.pop("decompositions")
        legacy_series = payload["decomposition"]
        path.write_text(json.dumps(payload))
        loaded = load_measurement(path)
        assert loaded.decompositions is None
        assert loaded.metadata["decomposition"] == legacy_series

    def test_optional_series_stay_absent_when_not_computed(self, tmp_path, small_config):
        result = run_experiment(small_config, 8, seed=0)
        loaded = load_measurement(save_measurement(tmp_path / "m.json", result.measurement))
        assert loaded.marginal_entropy_sum is None
        assert loaded.joint_entropy is None
        assert loaded.decompositions is None

