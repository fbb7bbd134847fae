"""End-to-end experiment runner: simulate an ensemble, measure self-organization.

This is the entry point the examples and the benchmark harness use.  One call
to :func:`run_experiment` corresponds to one curve of the paper's figures:
a particle model specification (:class:`~repro.particles.model.SimulationConfig`),
an ensemble size, and a measurement configuration
(:class:`~repro.core.self_organization.AnalysisConfig`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.self_organization import (
    AnalysisConfig,
    SelfOrganizationAnalysis,
    SelfOrganizationResult,
)
from repro.particles.ensemble import EnsembleSimulator
from repro.particles.model import SimulationConfig
from repro.particles.trajectory import EnsembleTrajectory

__all__ = ["ExperimentResult", "run_experiment", "run_simulation_only"]


@dataclass
class ExperimentResult:
    """Everything produced by one experiment run.

    Attributes
    ----------
    simulation_config / analysis_config / n_samples / seed:
        The full specification needed to re-run the experiment.
    measurement:
        The multi-information (and optional entropy / decomposition) series.
    mean_force_norm:
        Ensemble-mean summed force norm per recorded step (equilibration
        diagnostic).
    fraction_at_equilibrium:
        Fraction of samples satisfying the force criterion at the final step.
    ensemble:
        The raw trajectory, kept only when requested (large).
    wall_time_seconds:
        Breakdown of simulation vs measurement runtime.
    """

    simulation_config: SimulationConfig
    analysis_config: AnalysisConfig
    n_samples: int
    seed: int | None
    measurement: SelfOrganizationResult
    mean_force_norm: np.ndarray
    fraction_at_equilibrium: float
    ensemble: EnsembleTrajectory | None = None
    wall_time_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def delta_multi_information(self) -> float:
        """Increase of multi-information over the run (ΔI)."""
        return self.measurement.delta_multi_information

    def summary(self) -> dict[str, Any]:
        """Compact JSON-serialisable summary used by the benchmark harness."""
        return {
            "n_samples": self.n_samples,
            "n_particles": self.simulation_config.n_particles,
            "n_types": self.simulation_config.n_types,
            "force": self.simulation_config.force,
            "cutoff": self.simulation_config.cutoff,
            "engine": self.simulation_config.engine,
            "resolved_engine": self.simulation_config.resolved_engine,
            "n_steps": self.simulation_config.n_steps,
            "seed": self.seed,
            "initial_multi_information": self.measurement.initial_multi_information,
            "final_multi_information": self.measurement.final_multi_information,
            "delta_multi_information": self.delta_multi_information,
            "fraction_at_equilibrium": self.fraction_at_equilibrium,
            "observer_mode": self.measurement.observer_mode,
            "n_observers": self.measurement.n_observers,
            "wall_time_seconds": dict(self.wall_time_seconds),
        }


def run_simulation_only(
    simulation_config: SimulationConfig,
    n_samples: int,
    *,
    seed: int | None = None,
    n_jobs: int | None = None,
) -> tuple[EnsembleTrajectory, EnsembleSimulator]:
    """Simulate an ensemble without measuring it (used by shape-only figures)."""
    simulator = EnsembleSimulator(simulation_config, n_samples, seed=seed)
    ensemble = simulator.run(n_jobs=n_jobs)
    return ensemble, simulator


def run_experiment(
    simulation_config: SimulationConfig,
    n_samples: int,
    *,
    analysis_config: AnalysisConfig | None = None,
    seed: int | None = None,
    n_jobs: int | None = None,
    keep_ensemble: bool = False,
) -> ExperimentResult:
    """Simulate an ensemble and measure its self-organization.

    Parameters
    ----------
    simulation_config:
        The particle model and run length.
    n_samples:
        Ensemble size ``m`` (paper: 500–1000).
    analysis_config:
        Measurement configuration; defaults to :class:`AnalysisConfig()`.
    seed:
        Seed of the simulation's random streams (the analysis has its own
        seed inside ``analysis_config``).
    n_jobs:
        Process-pool width for the simulation batches (``None`` = serial).
    keep_ensemble:
        Attach the raw trajectory to the result (memory-heavy; off by default).
    """
    analysis_config = analysis_config or AnalysisConfig()

    t0 = time.perf_counter()
    ensemble, simulator = run_simulation_only(
        simulation_config, n_samples, seed=seed, n_jobs=n_jobs
    )
    t1 = time.perf_counter()
    measurement = SelfOrganizationAnalysis(analysis_config).analyze(
        ensemble, domain=simulation_config.resolved_domain
    )
    t2 = time.perf_counter()

    stats = simulator.last_stats
    assert stats is not None
    return ExperimentResult(
        simulation_config=simulation_config,
        analysis_config=analysis_config,
        n_samples=n_samples,
        seed=seed,
        measurement=measurement,
        mean_force_norm=stats.mean_force_norm,
        fraction_at_equilibrium=stats.fraction_at_equilibrium,
        ensemble=ensemble if keep_ensemble else None,
        wall_time_seconds={
            "simulation": t1 - t0,
            "measurement": t2 - t1,
            "total": t2 - t0,
        },
    )
