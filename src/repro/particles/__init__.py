"""Particle-model substrate: types, forces, integration, ensembles.

This subpackage implements the interacting particle model of Harder & Polani
(2012), §4.1/§5.1 — the "physics" on top of which self-organization is
measured.  The public surface is re-exported here.
"""

from repro.particles.types import InteractionParams, random_symmetric_matrix, type_counts_to_assignment
from repro.particles.domain import (
    DOMAINS,
    ChannelDomain,
    Domain,
    FreeDomain,
    PeriodicDomain,
    ReflectingDomain,
    get_domain,
)
from repro.particles.forces import (
    FORCE_SCALINGS,
    DriftWorkspace,
    ForceScaling,
    GaussianAdhesionForce,
    LinearAdhesionForce,
    drift_batch,
    get_force_scaling,
    net_force_norms,
    pairwise_distance_matrix,
)
from repro.particles.neighbors import BruteForceNeighbors, CellListNeighbors, NeighborSearch
from repro.particles.engine import (
    DRIFT_ENGINES,
    AdaptiveDriftEngine,
    DenseDriftEngine,
    DriftEngine,
    SparseDriftEngine,
    collective_radius,
    engine_for_config,
    make_engine,
    resolve_engine,
    sparse_drift_batch,
)
from repro.particles.init_conditions import (
    default_disc_radius,
    uniform_box_ensemble,
    uniform_disc_ensemble,
)
from repro.particles.integrators import (
    DEFAULT_NOISE_VARIANCE,
    EulerMaruyama,
    Integrator,
    StochasticHeun,
    get_integrator,
)
from repro.particles.equilibrium import EquilibriumDetector, total_force_norm
from repro.particles.trajectory import EnsembleTrajectory, Trajectory
from repro.particles.model import ParticleSystem, SimulationConfig, initial_ensemble_for
from repro.particles.ensemble import EnsembleRunStats, EnsembleSimulator, simulate_ensemble

__all__ = [
    "InteractionParams",
    "random_symmetric_matrix",
    "type_counts_to_assignment",
    "ChannelDomain",
    "Domain",
    "FreeDomain",
    "PeriodicDomain",
    "ReflectingDomain",
    "DOMAINS",
    "get_domain",
    "ForceScaling",
    "LinearAdhesionForce",
    "GaussianAdhesionForce",
    "FORCE_SCALINGS",
    "get_force_scaling",
    "drift_batch",
    "DriftWorkspace",
    "net_force_norms",
    "pairwise_distance_matrix",
    "NeighborSearch",
    "BruteForceNeighbors",
    "CellListNeighbors",
    "DRIFT_ENGINES",
    "DriftEngine",
    "DenseDriftEngine",
    "SparseDriftEngine",
    "AdaptiveDriftEngine",
    "collective_radius",
    "resolve_engine",
    "make_engine",
    "engine_for_config",
    "sparse_drift_batch",
    "uniform_disc_ensemble",
    "uniform_box_ensemble",
    "default_disc_radius",
    "Integrator",
    "EulerMaruyama",
    "StochasticHeun",
    "get_integrator",
    "DEFAULT_NOISE_VARIANCE",
    "EquilibriumDetector",
    "total_force_norm",
    "Trajectory",
    "EnsembleTrajectory",
    "ParticleSystem",
    "SimulationConfig",
    "EnsembleSimulator",
    "EnsembleRunStats",
    "initial_ensemble_for",
    "simulate_ensemble",
]
