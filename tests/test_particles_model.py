"""Tests for repro.particles.model (SimulationConfig)."""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

from repro.particles.model import RETIRED_HASH_FIELDS, SimulationConfig
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

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("equilibrium_threshold", 0.0, "threshold must be positive"),
            ("equilibrium_threshold", -1e-3, "threshold must be positive"),
        ],
    )
    def test_equilibrium_criterion_checked_at_construction(
        self, two_type_params, field, value, message
    ):
        with pytest.raises(ValueError, match=message):
            SimulationConfig(type_counts=(2, 2), params=two_type_params, **{field: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "field, message",
        [
            ("dt", "dt must be positive"),
            ("noise_variance", "noise_variance must be non-negative"),
            ("init_radius", "init_radius must be positive"),
            ("max_drift_norm", "max_drift_norm must be positive"),
            ("equilibrium_threshold", "equilibrium_threshold must be positive"),
        ],
    )
    def test_nonfinite_values_rejected(self, two_type_params, field, message, value):
        # Each used to construct and enter the content hash as a bare NaN or
        # Infinity token.
        with pytest.raises(ValueError, match=message):
            SimulationConfig(type_counts=(2, 2), params=two_type_params, **{field: value})

    def test_nan_cutoff_rejected(self, two_type_params):
        # Every engine reads a non-finite cut-off as "unconstrained", so a
        # NaN would silently run without one (and be hashed as NaN).
        with pytest.raises(ValueError, match="NaN"):
            SimulationConfig(type_counts=(2, 2), params=two_type_params, cutoff=float("nan"))

    @pytest.mark.parametrize("cutoff", [None, float("inf")])
    def test_unconstrained_cutoffs_accepted(self, two_type_params, cutoff):
        config = SimulationConfig(type_counts=(2, 2), params=two_type_params, cutoff=cutoff)
        assert config.cutoff == cutoff

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

    @pytest.mark.parametrize("patience", [5, 0, 3])
    def test_retired_equilibrium_patience_is_dropped_from_older_documents(
        self, config, patience
    ):
        # Documents written while the field existed carry it (at 5 unless a
        # caller changed it); they load, and the key is gone from the result.
        document = {**config.to_dict(), "equilibrium_patience": patience}
        restored = SimulationConfig.from_dict(document)
        assert restored.to_dict() == config.to_dict()
        assert "equilibrium_patience" not in restored.to_dict()

    def test_retired_fields_are_not_fields(self, config):
        assert len(fields(SimulationConfig)) == 14
        assert not set(RETIRED_HASH_FIELDS) & {field.name for field in fields(SimulationConfig)}
        assert not set(RETIRED_HASH_FIELDS) & set(config.to_dict())
        with pytest.raises(TypeError):
            SimulationConfig(
                type_counts=(2, 2), params=config.params, equilibrium_patience=5
            )
