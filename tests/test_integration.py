"""Integration tests: the paper's qualitative findings at miniature scale.

Each test exercises the full stack (simulation → alignment → estimation) on a
configuration small enough to run in seconds while still reproducing the
qualitative statement of the corresponding result section.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.shape_stats import detect_concentric_rings, type_segregation_index
from repro.core.pipeline import run_experiment
from repro.core.self_organization import AnalysisConfig
from repro.particles.ensemble import EnsembleSimulator
from repro.particles.engine import AdaptiveDriftEngine, collective_radius, resolve_engine
from repro.particles.model import SimulationConfig
from repro.particles.types import InteractionParams


@pytest.mark.slow
class TestAdhesionSorting:
    """Differential adhesion sorts types (the Fig. 1 / Fig. 12 phenomenology)."""

    def test_segregation_increases(self):
        params = InteractionParams.clustering(2, self_distance=1.0, cross_distance=2.5, k=2.0)
        config = SimulationConfig(
            type_counts=(8, 8), params=params, force="F1", dt=0.02, substeps=3, n_steps=25,
            init_radius=3.0,
        )
        ensemble = EnsembleSimulator(config, 10, seed=0).run()
        initial = np.mean(
            [type_segregation_index(ensemble.positions[0, m], ensemble.types) for m in range(10)]
        )
        final = np.mean(
            [type_segregation_index(ensemble.positions[-1, m], ensemble.types) for m in range(10)]
        )
        assert final > initial + 0.15


@pytest.mark.slow
class TestMultiInformationIncrease:
    """§6: interacting multi-type collectives show increasing multi-information."""

    def test_clustering_dynamics_self_organize(self):
        params = InteractionParams.clustering(3, self_distance=1.0, cross_distance=2.5, k=2.0)
        config = SimulationConfig(
            type_counts=(5, 5, 5), params=params, force="F1", dt=0.02, substeps=3, n_steps=25,
            init_radius=3.0,
        )
        result = run_experiment(
            config, 48, analysis_config=AnalysisConfig(step_stride=8, k_neighbors=3), seed=1
        )
        assert result.delta_multi_information > 0.5

    def test_noninteracting_particles_do_not_self_organize(self):
        # Zero interaction strength: pure diffusion from the initial disc.
        params = InteractionParams.from_matrices(
            k=np.zeros((2, 2)), r=np.ones((2, 2))
        )
        config = SimulationConfig(
            type_counts=(6, 6), params=params, force="F1", dt=0.02, substeps=3, n_steps=25,
            init_radius=3.0,
        )
        result = run_experiment(
            config, 48, analysis_config=AnalysisConfig(step_stride=8, k_neighbors=3), seed=2
        )
        # Free diffusion cannot build correlations between particles; allow a
        # small tolerance for estimator fluctuations.
        assert result.delta_multi_information < 1.0


@pytest.mark.slow
class TestSingleTypeF1Rings:
    """§6/Fig. 7: single-type F1 collectives form concentric rings."""

    def test_double_ring_structure_forms(self):
        params = InteractionParams.single_type(k=1.0, r=2.5)
        config = SimulationConfig(
            type_counts=(20,), params=params, force="F1", dt=0.02, substeps=5, n_steps=60,
            init_radius=3.0, noise_variance=0.01,
        )
        ensemble = EnsembleSimulator(config, 4, seed=3).run()
        reports = [detect_concentric_rings(ensemble.positions[-1, m]) for m in range(4)]
        assert any(report.n_rings >= 2 for report in reports)


class TestEngineDeterminism:
    """Engine choice must never change a seeded run — bit for bit.

    The sparse kernel accumulates neighbour pairs in lexicographic order,
    which reproduces the dense kernel's summation order exactly; any future
    refactor that silently breaks this contract fails here.
    """

    def _config(self, engine: str) -> SimulationConfig:
        params = InteractionParams.clustering(2, self_distance=1.0, cross_distance=2.5, k=2.0)
        return SimulationConfig(
            type_counts=(6, 6),
            params=params,
            force="F1",
            cutoff=2.0,
            dt=0.02,
            substeps=2,
            n_steps=10,
            init_radius=3.0,
            engine=engine,
        )

    def test_dense_and_sparse_ensembles_bit_identical(self):
        dense = EnsembleSimulator(self._config("dense"), 6, seed=9).run()
        sparse = EnsembleSimulator(self._config("sparse"), 6, seed=9).run()
        np.testing.assert_array_equal(dense.positions, sparse.positions)

    def test_dense_and_sparse_single_runs_bit_identical(self):
        # A single run is an ensemble of one.
        dense = EnsembleSimulator(self._config("dense"), 1, seed=7).run()
        sparse = EnsembleSimulator(self._config("sparse"), 1, seed=7).run()
        np.testing.assert_array_equal(dense.positions, sparse.positions)


class TestAdaptiveAutoDeterminism:
    """Adaptive ``"auto"`` switching engines mid-run changes nothing but speed.

    A strongly attracting collective contracts from an 8-unit disc to well
    under the cut-off radius, so the adaptive engine starts sparse and drops
    to dense mid-run; the trajectory must equal the dense-forced and
    sparse-forced runs bit for bit.
    """

    def _config(self, engine: str, **overrides) -> SimulationConfig:
        params = InteractionParams.clustering(
            2, self_distance=0.5, cross_distance=0.5, k=0.05
        )
        base = dict(
            type_counts=(100, 100),
            params=params,
            force="F1",
            cutoff=6.0,
            dt=0.05,
            substeps=1,
            n_steps=12,
            init_radius=8.0,
            noise_variance=0.01,
            engine=engine,
        )
        base.update(overrides)
        return SimulationConfig(**base)

    def test_single_run_switches_mid_run(self, built_engines):
        config = self._config("auto")
        assert config.resolved_engine == "sparse"  # from the initial 8-unit disc
        EnsembleSimulator(config, 1, seed=11).run()
        [engine] = built_engines
        assert isinstance(engine, AdaptiveDriftEngine)
        assert engine.resolved == "dense"  # contracted below the cut-off

    def test_single_run_matches_both_forced_engines(self):
        trajectories = {
            engine: EnsembleSimulator(self._config(engine), 1, seed=11).run().positions
            for engine in ("auto", "dense", "sparse")
        }
        np.testing.assert_array_equal(trajectories["auto"], trajectories["dense"])
        np.testing.assert_array_equal(trajectories["auto"], trajectories["sparse"])

    def test_ensemble_matches_both_forced_engines(self):
        ensembles = {
            engine: EnsembleSimulator(self._config(engine), 3, seed=21).run().positions
            for engine in ("auto", "dense", "sparse")
        }
        np.testing.assert_array_equal(ensembles["auto"], ensembles["dense"])
        np.testing.assert_array_equal(ensembles["auto"], ensembles["sparse"])

    @pytest.mark.parametrize("n_samples", [1, 2])
    def test_choice_follows_the_bounding_box_at_every_step(self, built_engines, n_samples):
        # Read from an observer: after every recorded step the running
        # batch's engine holds the choice for the live bounding box (over
        # every sample of the batch).
        config = self._config("auto")
        choices = []

        class Probe:
            def on_step(self, step, positions):
                [engine] = built_engines
                expected = config.resolved_engine if step == 0 else resolve_engine(
                    "auto", n_particles=200, cutoff=6.0,
                    domain_radius=collective_radius(positions),
                )
                assert engine.resolved == expected, step
                choices.append(expected)

        simulator = EnsembleSimulator(config, n_samples, seed=11)
        simulator.add_observer(Probe())
        simulator.run()
        assert len(choices) == config.n_steps + 1
        assert choices[0] == "sparse" and choices[-1] == "dense"


@pytest.mark.slow
class TestCutoffLimitsSelfOrganization:
    """§6.1/Fig. 9: a small cut-off radius limits the achievable organization."""

    def test_long_range_beats_short_range(self):
        rng = np.random.default_rng(0)
        from repro.particles.types import random_symmetric_matrix

        r = random_symmetric_matrix(4, 2.0, 5.0, rng)
        params = InteractionParams.from_matrices(k=np.ones((4, 4)), r=r)
        base = dict(
            type_counts=(3, 3, 3, 3),
            params=params,
            force="F1",
            dt=0.02,
            substeps=3,
            n_steps=25,
            init_radius=3.0,
        )
        analysis = AnalysisConfig(step_stride=8, k_neighbors=3)
        short = run_experiment(
            SimulationConfig(**base, cutoff=1.5), 48, analysis_config=analysis, seed=4
        )
        long = run_experiment(
            SimulationConfig(**base, cutoff=None), 48, analysis_config=analysis, seed=4
        )
        assert long.delta_multi_information > short.delta_multi_information
