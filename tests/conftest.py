"""Shared fixtures and hypothesis configuration for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import repro.particles.ensemble as ensemble_module
from repro.core.self_organization import AnalysisConfig
from repro.particles.engine import engine_for_config
from repro.particles.model import SimulationConfig
from repro.particles.types import InteractionParams

# Property-based tests exercise numerical kernels whose runtime varies a lot
# between examples; disable the per-example deadline and keep example counts
# moderate so the whole suite stays fast.  The nightly CI job selects the
# "nightly" profile (REPRO_HYPOTHESIS_PROFILE=nightly) to fuzz much harder
# than any per-push run would tolerate.
settings.register_profile(
    "repro",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "nightly",
    deadline=None,
    max_examples=400,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("REPRO_HYPOTHESIS_PROFILE", "repro"))


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def two_type_params() -> InteractionParams:
    """Small two-type parameter set with same-type clustering."""
    return InteractionParams.clustering(2, self_distance=1.0, cross_distance=2.5, k=2.0)


@pytest.fixture
def small_config(two_type_params: InteractionParams) -> SimulationConfig:
    """A cheap simulation configuration used across integration-style tests."""
    return SimulationConfig(
        type_counts=(6, 6),
        params=two_type_params,
        force="F1",
        cutoff=None,
        dt=0.02,
        substeps=2,
        n_steps=15,
        init_radius=3.0,
    )


@pytest.fixture
def fast_analysis() -> AnalysisConfig:
    """Analysis configuration that keeps per-test runtime small."""
    return AnalysisConfig(step_stride=5, k_neighbors=3)


@pytest.fixture
def built_engines(monkeypatch) -> list:
    """Every drift engine the ensemble simulator builds, in order.

    Records the engines of in-process batches only: a process pool's
    workers build theirs in their own memory.
    """
    engines: list = []

    def recording_engine_for_config(config):
        engines.append(engine_for_config(config))
        return engines[-1]

    monkeypatch.setattr(ensemble_module, "engine_for_config", recording_engine_for_config)
    return engines
