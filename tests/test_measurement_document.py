"""The measurement document ``repro run`` writes, and its round-trip.

``repro run`` writes ``SelfOrganizationResult.to_dict()`` through
:func:`repro.viz.save_json`; :meth:`SelfOrganizationResult.from_dict` reads
every series back, including the per-step decomposition objects.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.pipeline import run_experiment
from repro.core.self_organization import SelfOrganizationResult
from repro.viz import save_json


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


def _round_trip(measurement: SelfOrganizationResult, path) -> SelfOrganizationResult:
    return SelfOrganizationResult.from_dict(json.loads(save_json(path, measurement.to_dict()).read_text()))


class TestMeasurementRoundtrip:
    def test_document_bytes(self, experiment_result, tmp_path):
        # The layout of the documents written before `repro run` used save_json.
        path = save_json(tmp_path / "measurement.json", experiment_result.measurement.to_dict())
        expected = json.dumps(experiment_result.measurement.to_dict(), indent=2, sort_keys=True)
        assert path.read_text() == expected

    def test_save_and_load(self, experiment_result, tmp_path):
        loaded = _round_trip(experiment_result.measurement, tmp_path / "measurement.json")
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
        path = save_json(
            tmp_path / "deep" / "nested" / "m.json", experiment_result.measurement.to_dict()
        )
        assert path.exists()

    def test_every_optional_series_survives_the_round_trip(self, experiment_result, tmp_path):
        original = experiment_result.measurement
        loaded = _round_trip(original, tmp_path / "m.json")
        np.testing.assert_allclose(loaded.marginal_entropy_sum, original.marginal_entropy_sum)
        np.testing.assert_allclose(loaded.joint_entropy, original.joint_entropy)
        np.testing.assert_allclose(loaded.alignment_rmse, original.alignment_rmse)
        np.testing.assert_allclose(loaded.times, original.times)
        assert loaded.n_observers == original.n_observers
        assert loaded.metadata == original.metadata

    def test_decompositions_survive_the_round_trip(self, experiment_result, tmp_path):
        original = experiment_result.measurement
        assert original.decompositions, "fixture must compute a decomposition"
        loaded = _round_trip(original, tmp_path / "m.json")
        assert loaded.decompositions is not None
        assert len(loaded.decompositions) == len(original.decompositions)
        for dec_loaded, dec_original in zip(loaded.decompositions, original.decompositions):
            assert dec_loaded == dec_original  # frozen dataclass of floats/tuples
        # The derived series APIs work on the loaded result too.
        for key, series in original.decomposition_series().items():
            np.testing.assert_allclose(loaded.decomposition_series()[key], series)
        for key, series in original.normalized_decomposition_series().items():
            np.testing.assert_allclose(loaded.normalized_decomposition_series()[key], series)

    def test_optional_series_stay_absent_when_not_computed(self, tmp_path, small_config):
        result = run_experiment(small_config, 8, seed=0)
        loaded = _round_trip(result.measurement, tmp_path / "m.json")
        assert loaded.marginal_entropy_sum is None
        assert loaded.joint_entropy is None
        assert loaded.decompositions is None
