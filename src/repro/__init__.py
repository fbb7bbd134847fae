"""repro — reproduction of Harder & Polani (2012), "Self-organizing particle systems".

The package implements, from scratch on top of NumPy/SciPy:

* the adhesion-like interacting particle model (Eqs. 6–8) and its ensemble
  simulation (:mod:`repro.particles`),
* the shape-symmetry reduction — translation, rotation and same-type
  permutation removal via a type-aware ICP (:mod:`repro.alignment`),
* the information-theoretic estimators, most importantly the KSG
  multi-information estimator of Eqs. 18–20, plus KDE/binned baselines and
  the coarse-grained decomposition (:mod:`repro.infotheory`),
* the k-means cluster-mean observer reduction for large collectives
  (:mod:`repro.cluster`),
* the measurement pipeline and the registry of every figure experiment
  (:mod:`repro.core`), and
* shape statistics, text visualisation and persistence helpers
  (:mod:`repro.analysis`, :mod:`repro.viz`, :mod:`repro.io`).

Quickstart
----------
>>> from repro import (
...     SimulationConfig, InteractionParams, run_experiment, AnalysisConfig,
... )
>>> params = InteractionParams.clustering(2, self_distance=1.0, cross_distance=2.5)
>>> config = SimulationConfig(type_counts=(10, 10), params=params, force="F1",
...                           n_steps=40, dt=0.02, init_radius=3.0)
>>> result = run_experiment(config, n_samples=32, seed=0)
>>> result.delta_multi_information  # doctest: +SKIP
2.1
"""

from repro.version import __version__

from repro.particles import (
    ChannelDomain,
    Domain,
    EnsembleSimulator,
    EnsembleTrajectory,
    FreeDomain,
    InteractionParams,
    PeriodicDomain,
    ReflectingDomain,
    SimulationConfig,
    get_domain,
)
from repro.alignment import TypeAwareICP, align_snapshot
from repro.infotheory import (
    decompose_multi_information,
    kde_multi_information,
    histogram_multi_information,
    ksg_multi_information,
)
from repro.cluster import kmeans, coarse_grain_snapshot
from repro.core import (
    AnalysisConfig,
    ExperimentPlan,
    ExperimentResult,
    ExperimentSpec,
    RunUnit,
    SelfOrganizationAnalysis,
    SelfOrganizationResult,
    all_figure_plans,
    chain,
    figure_plan,
    grid,
    run_experiment,
    single,
)
from repro.io import RunStore, open_store

__all__ = [
    "__version__",
    "InteractionParams",
    "SimulationConfig",
    "ChannelDomain",
    "Domain",
    "FreeDomain",
    "PeriodicDomain",
    "ReflectingDomain",
    "get_domain",
    "EnsembleTrajectory",
    "EnsembleSimulator",
    "TypeAwareICP",
    "align_snapshot",
    "ksg_multi_information",
    "kde_multi_information",
    "histogram_multi_information",
    "decompose_multi_information",
    "kmeans",
    "coarse_grain_snapshot",
    "AnalysisConfig",
    "SelfOrganizationAnalysis",
    "SelfOrganizationResult",
    "ExperimentResult",
    "ExperimentSpec",
    "run_experiment",
    "ExperimentPlan",
    "RunUnit",
    "RunStore",
    "open_store",
    "single",
    "chain",
    "grid",
    "figure_plan",
    "all_figure_plans",
]
