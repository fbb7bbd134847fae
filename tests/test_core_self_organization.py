"""Tests for repro.core.self_organization."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.observers import ObserverMode
from repro.core.self_organization import (
    AnalysisConfig,
    SelfOrganizationAnalysis,
    SelfOrganizationResult,
)
from repro.particles.ensemble import EnsembleSimulator
from repro.particles.trajectory import EnsembleTrajectory


@pytest.fixture(scope="module")
def organized_ensemble():
    """A small ensemble that visibly organises (two-type clustering dynamics)."""
    from repro.particles.model import SimulationConfig
    from repro.particles.types import InteractionParams

    params = InteractionParams.clustering(2, self_distance=1.0, cross_distance=2.5, k=2.0)
    config = SimulationConfig(
        type_counts=(6, 6),
        params=params,
        force="F1",
        dt=0.02,
        substeps=3,
        n_steps=20,
        init_radius=3.0,
    )
    return EnsembleSimulator(config, 40, seed=0).run()


@pytest.fixture
def random_ensemble(rng) -> EnsembleTrajectory:
    """Pure i.i.d. noise at every step: the canonical non-self-organising system."""
    types = np.array([0, 0, 0, 1, 1, 1])
    positions = rng.uniform(-2, 2, size=(6, 40, types.size, 2))
    return EnsembleTrajectory(positions=positions, types=types, dt=1.0)


class TestAnalysisConfig:
    def test_defaults_follow_paper(self):
        config = AnalysisConfig()
        assert config.k_neighbors == 4
        assert config.observer_mode is ObserverMode.AUTO

    def test_validation(self):
        with pytest.raises(ValueError):
            AnalysisConfig(k_neighbors=0)
        with pytest.raises(ValueError):
            AnalysisConfig(step_stride=0)
        with pytest.raises(ValueError):
            AnalysisConfig(n_clusters=0)
        with pytest.raises(ValueError):
            AnalysisConfig(observer_mode="bogus")

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("estimator_variant", "ksg3", "unknown variant 'ksg3'"),
            ("reference_strategy", "medoidd", "unknown reference strategy 'medoidd'"),
            ("icp_max_iterations", 0, "max_iterations must be positive"),
            ("icp_tolerance", -1.0, "tolerance must be non-negative"),
        ],
    )
    def test_rejects_at_construction_what_the_pipeline_rejects(self, field, value, message):
        # These used to construct, hash and simulate, and fail only inside
        # the analysis.
        with pytest.raises(ValueError, match=message):
            AnalysisConfig(**{field: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite_icp_tolerance_rejected(self, value):
        with pytest.raises(ValueError, match="tolerance must be non-negative"):
            AnalysisConfig(icp_tolerance=value)

    @pytest.mark.parametrize("variant", ["paper", "ksg1", "ksg2"])
    @pytest.mark.parametrize("strategy", ["medoid", "first"])
    def test_accepts_every_estimator_variant_and_reference_strategy(self, variant, strategy):
        AnalysisConfig(estimator_variant=variant, reference_strategy=strategy, icp_tolerance=0.0)

    def test_icp_factory_uses_config(self):
        config = AnalysisConfig(icp_max_iterations=7, icp_tolerance=1e-3)
        icp = config.icp()
        assert icp.max_iterations == 7
        assert icp.tolerance == 1e-3


class TestAnalysisSteps:
    def test_includes_first_and_last(self):
        analysis = SelfOrganizationAnalysis(AnalysisConfig(step_stride=7))
        steps = analysis.analysis_steps(20)
        assert steps[0] == 0
        assert steps[-1] == 19

    def test_stride_one_covers_everything(self):
        analysis = SelfOrganizationAnalysis(AnalysisConfig(step_stride=1))
        np.testing.assert_array_equal(analysis.analysis_steps(5), [0, 1, 2, 3, 4])

    def test_invalid_length(self):
        analysis = SelfOrganizationAnalysis()
        with pytest.raises(ValueError):
            analysis.analysis_steps(0)


class TestAnalyze:
    def test_result_shapes(self, organized_ensemble):
        config = AnalysisConfig(step_stride=5, k_neighbors=3)
        result = SelfOrganizationAnalysis(config).analyze(organized_ensemble)
        assert isinstance(result, SelfOrganizationResult)
        assert result.steps.shape == result.multi_information.shape
        assert result.times.shape == result.steps.shape
        assert result.alignment_rmse.shape == result.steps.shape
        assert result.n_observers == organized_ensemble.n_particles
        assert result.metadata["n_samples"] == organized_ensemble.n_samples

    def test_organizing_system_shows_increase(self, organized_ensemble):
        config = AnalysisConfig(step_stride=5, k_neighbors=3)
        result = SelfOrganizationAnalysis(config).analyze(organized_ensemble)
        assert result.delta_multi_information > 0.5
        assert result.is_self_organizing()

    def test_random_system_shows_no_systematic_increase(self, random_ensemble):
        config = AnalysisConfig(step_stride=2, k_neighbors=3)
        result = SelfOrganizationAnalysis(config).analyze(random_ensemble)
        # i.i.d. re-draws at every step: the estimate fluctuates around a
        # constant level, so the increase stays small compared to the
        # organising system's.
        assert abs(result.delta_multi_information) < 1.5

    def test_entropy_series_optional(self, organized_ensemble):
        with_entropy = SelfOrganizationAnalysis(
            AnalysisConfig(step_stride=10, compute_entropies=True, k_neighbors=3)
        ).analyze(organized_ensemble)
        without_entropy = SelfOrganizationAnalysis(
            AnalysisConfig(step_stride=10, k_neighbors=3)
        ).analyze(organized_ensemble)
        assert with_entropy.joint_entropy is not None
        assert with_entropy.marginal_entropy_sum is not None
        assert without_entropy.joint_entropy is None

    def test_decomposition_series(self, organized_ensemble):
        config = AnalysisConfig(step_stride=10, compute_decomposition=True, k_neighbors=3)
        result = SelfOrganizationAnalysis(config).analyze(organized_ensemble)
        series = result.decomposition_series()
        assert set(series) == {"between", "within_0", "within_1"}
        normalized = result.normalized_decomposition_series()
        assert set(normalized) == {"between", "within_0", "within_1"}
        assert all(len(v) == result.steps.size for v in series.values())

    def test_decomposition_requires_flag(self, organized_ensemble):
        result = SelfOrganizationAnalysis(AnalysisConfig(step_stride=10, k_neighbors=3)).analyze(
            organized_ensemble
        )
        with pytest.raises(ValueError):
            result.decomposition_series()

    def test_cluster_observer_mode(self, organized_ensemble):
        config = AnalysisConfig(
            step_stride=10, observer_mode="clusters", n_clusters=2, k_neighbors=3
        )
        result = SelfOrganizationAnalysis(config).analyze(organized_ensemble)
        assert result.observer_mode == "clusters"
        assert result.n_observers == 4

    def test_to_dict_roundtrip_fields(self, organized_ensemble):
        config = AnalysisConfig(step_stride=10, compute_entropies=True, k_neighbors=3)
        result = SelfOrganizationAnalysis(config).analyze(organized_ensemble)
        payload = result.to_dict()
        assert "multi_information" in payload
        assert "joint_entropy" in payload
        assert payload["delta_multi_information"] == pytest.approx(result.delta_multi_information)


class TestWrappedDomainAnalysis:
    def test_domain_threads_to_the_torus_alignment(self, rng):
        # An ensemble whose samples are rigid mod-L translations of one base
        # shape: the wrapped reduction collapses it (near-zero residuals);
        # the free-space path on the same data cannot.
        from repro.particles.domain import get_domain

        domain = get_domain("periodic:8,4")
        types = np.repeat([0, 1], 6)
        base = np.column_stack(
            [rng.uniform(0.0, 8.0, size=12), rng.uniform(0.0, 4.0, size=12)]
        )
        n_steps, n_samples = 2, 8
        positions = np.empty((n_steps, n_samples, 12, 2))
        for t in range(n_steps):
            for m in range(n_samples):
                shift = np.array([rng.uniform(0.0, 8.0), rng.uniform(0.0, 4.0)])
                positions[t, m] = domain.wrap(base + shift)
        ensemble = EnsembleTrajectory(positions=positions, types=types, dt=1.0)
        config = AnalysisConfig(compute_entropies=False, compute_decomposition=False)
        wrapped = SelfOrganizationAnalysis(config).analyze(ensemble, domain=domain)
        assert np.all(wrapped.alignment_rmse < 1e-6)
        free = SelfOrganizationAnalysis(config).analyze(ensemble)
        assert np.max(free.alignment_rmse) > 0.1

    def test_channel_domain_keeps_residuals_finite(self, rng):
        from repro.particles.domain import get_domain

        domain = get_domain("channel:8,4")
        positions = domain.wrap(rng.uniform(0.0, 4.0, size=(2, 6, 8, 2)))
        ensemble = EnsembleTrajectory(
            positions=positions, types=np.repeat([0, 1], 4), dt=1.0
        )
        result = SelfOrganizationAnalysis(AnalysisConfig()).analyze(ensemble, domain=domain)
        assert result.steps.size == 2
        # Reduced-domain coordinates stay wrapped, so residuals are finite.
        assert np.all(np.isfinite(result.alignment_rmse))
