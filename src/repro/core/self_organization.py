"""Measuring self-organization of particle ensembles.

Self-organization is defined (§3.1) as an increase over time of the
multi-information between observer variables.  The full measurement pipeline
for one experiment is:

1. simulate an ensemble of ``m`` independent runs
   (:class:`repro.particles.ensemble.EnsembleSimulator`),
2. at each analysed time step, factor out translations, rotations and
   same-type permutations (:func:`repro.alignment.symmetry.align_snapshot`),
3. extract observer variables — per-particle positions, or k-means cluster
   means for large collectives (:func:`repro.core.observers.build_observers`),
4. estimate the multi-information with the KSG estimator
   (:func:`repro.infotheory.ksg.ksg_multi_information`), and optionally the
   joint/marginal entropies and the per-type decomposition.

:class:`SelfOrganizationAnalysis` performs steps 2–4 on an existing ensemble.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.alignment.icp import TypeAwareICP
from repro.alignment.symmetry import _validate_reference_strategy, align_snapshot
from repro.core.observers import ObserverMode, ObserverSet, build_observers
from repro.infotheory.decomposition import DecompositionResult, decompose_multi_information
from repro.infotheory.knn import kozachenko_leonenko_entropy
from repro.infotheory.ksg import _validate_variant, ksg_multi_information
from repro.parallel.rng import spawn_generator
from repro.particles.trajectory import EnsembleTrajectory

__all__ = ["AnalysisConfig", "SelfOrganizationResult", "SelfOrganizationAnalysis"]


@dataclass(frozen=True)
class AnalysisConfig:
    """Configuration of the measurement pipeline (independent of the dynamics).

    Parameters
    ----------
    k_neighbors:
        Neighbour order of the KSG estimator (paper: 5 in methods, 4 in the
        experiment section).
    estimator_variant:
        ``"ksg2"`` (default, the calibrated KSG algorithm 2), ``"ksg1"``, or
        ``"paper"`` (the literal Eq. 18/20 transcription, which carries a
        positive offset); see :mod:`repro.infotheory.ksg`.
    observer_mode:
        Per-particle observers, cluster-mean observers, or automatic choice
        based on collective size.
    n_clusters:
        Clusters per type in the cluster-mean mode.
    step_stride:
        Analyse every ``step_stride``-th recorded frame (the first and last
        frames are always included).  Alignment + estimation dominate the
        cost, so this is the main runtime lever.
    reference_strategy:
        Reference-sample choice for the per-step alignment ("medoid"/"first").
    compute_entropies:
        Also estimate the joint entropy and the sum of marginal entropies
        (Kozachenko–Leonenko), used for the entropy-evolution discussion.
    compute_decomposition:
        Also compute the per-type decomposition (Fig. 11) at every analysed
        step.  Ignored when the collective has a single type.
    icp_max_iterations / icp_tolerance:
        Parameters of the type-aware ICP registration.
    seed:
        Seed for the (small) stochastic parts of the analysis, i.e. k-means
        restarts in the cluster-mean mode.
    estimator_backend:
        ``"dense"`` (default), ``"kdtree"`` or ``"auto"`` — the estimator
        backend forwarded to every KSG / entropy call (see
        :mod:`repro.infotheory.ksg`).  The default stays dense so existing
        stored results keep their exact values; non-default backends change
        values within the backends' float-tolerance contract and therefore
        *do* enter the run-unit content hash.
    workers:
        Thread count for the tree backend's cKDTree queries (scipy
        semantics: ``-1`` = all cores).  Pure throughput knob — it never
        changes any result and is excluded from the content hash.
    """

    k_neighbors: int = 4
    estimator_variant: str = "ksg2"
    observer_mode: ObserverMode | str = ObserverMode.AUTO
    n_clusters: int = 4
    step_stride: int = 1
    reference_strategy: str = "medoid"
    compute_entropies: bool = False
    compute_decomposition: bool = False
    icp_max_iterations: int = 30
    icp_tolerance: float = 1e-5
    seed: int = 0
    estimator_backend: str = "dense"
    workers: int = 1

    def __post_init__(self) -> None:
        if self.k_neighbors < 1:
            raise ValueError("k_neighbors must be >= 1")
        if self.step_stride < 1:
            raise ValueError("step_stride must be >= 1")
        if self.n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        # The estimator, the reference selection and the ICP check these only
        # once the ensemble has been simulated; fail at construction instead,
        # with the same messages.
        _validate_variant(self.estimator_variant)
        _validate_reference_strategy(self.reference_strategy)
        self.icp()
        if self.estimator_backend not in ("dense", "kdtree", "auto"):
            raise ValueError(
                f"estimator_backend must be 'dense', 'kdtree' or 'auto', "
                f"got {self.estimator_backend!r}"
            )
        if self.workers == 0 or self.workers < -1:
            raise ValueError(f"workers must be a positive int or -1 (all cores), got {self.workers}")
        object.__setattr__(self, "observer_mode", ObserverMode(self.observer_mode))

    def icp(self) -> TypeAwareICP:
        """Construct the ICP engine described by this config."""
        return TypeAwareICP(max_iterations=self.icp_max_iterations, tolerance=self.icp_tolerance)

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable representation (used by the run-unit content hash).

        The two post-PR-4 fields are omitted at their defaults so every
        pre-existing document (and its content hash) round-trips byte-for-byte:
        ``estimator_backend`` only appears when it can change values, and
        ``workers`` — serialised for config fidelity — is additionally
        stripped by the content hash itself (cosmetic field).
        """
        data: dict[str, Any] = {
            "k_neighbors": self.k_neighbors,
            "estimator_variant": self.estimator_variant,
            "observer_mode": ObserverMode(self.observer_mode).value,
            "n_clusters": self.n_clusters,
            "step_stride": self.step_stride,
            "reference_strategy": self.reference_strategy,
            "compute_entropies": self.compute_entropies,
            "compute_decomposition": self.compute_decomposition,
            "icp_max_iterations": self.icp_max_iterations,
            "icp_tolerance": self.icp_tolerance,
            "seed": self.seed,
        }
        if self.estimator_backend != "dense":
            data["estimator_backend"] = self.estimator_backend
        if self.workers != 1:
            data["workers"] = self.workers
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "AnalysisConfig":
        """Inverse of :meth:`to_dict`."""
        return cls(**dict(data))


@dataclass
class SelfOrganizationResult:
    """Time series produced by the measurement pipeline.

    All information quantities are in bits.  ``steps`` holds the indices of
    the analysed frames (0 = initial state); companion arrays are aligned
    with it.
    """

    steps: np.ndarray
    times: np.ndarray
    multi_information: np.ndarray
    marginal_entropy_sum: np.ndarray | None = None
    joint_entropy: np.ndarray | None = None
    decompositions: list[DecompositionResult] | None = None
    alignment_rmse: np.ndarray | None = None
    observer_mode: str = ObserverMode.PARTICLES.value
    n_observers: int = 0
    metadata: dict[str, Any] = field(default_factory=dict)

    @property
    def initial_multi_information(self) -> float:
        """Estimate at the initial (random disc) state."""
        return float(self.multi_information[0])

    @property
    def final_multi_information(self) -> float:
        """Estimate at the last analysed step."""
        return float(self.multi_information[-1])

    @property
    def delta_multi_information(self) -> float:
        """Increase of multi-information over the run (the paper's ΔI, Fig. 8)."""
        return self.final_multi_information - self.initial_multi_information

    def is_self_organizing(self, threshold: float = 0.0) -> bool:
        """Whether the multi-information increased by more than ``threshold`` bits."""
        return self.delta_multi_information > threshold

    def decomposition_series(self) -> dict[str, np.ndarray]:
        """Per-term decomposition time series (raw bits), keyed like Fig. 11's legend."""
        if not self.decompositions:
            raise ValueError("decomposition was not computed; set compute_decomposition=True")
        n_groups = len(self.decompositions[0].within_groups)
        series: dict[str, list[float]] = {"between": []}
        for j in range(n_groups):
            series[f"within_{j}"] = []
        for dec in self.decompositions:
            series["between"].append(dec.between_groups)
            for j in range(n_groups):
                series[f"within_{j}"].append(dec.within_groups[j])
        return {key: np.asarray(vals) for key, vals in series.items()}

    def normalized_decomposition_series(self) -> dict[str, np.ndarray]:
        """Decomposition terms normalised by the total at each step (Fig. 11)."""
        if not self.decompositions:
            raise ValueError("decomposition was not computed; set compute_decomposition=True")
        keys = list(self.decompositions[0].normalized_contributions().keys())
        out: dict[str, list[float]] = {key: [] for key in keys}
        for dec in self.decompositions:
            contributions = dec.normalized_contributions()
            for key in keys:
                out[key].append(contributions[key])
        return {key: np.asarray(vals) for key, vals in out.items()}

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable summary (series included, decompositions flattened)."""
        payload: dict[str, Any] = {
            "steps": self.steps.tolist(),
            "times": self.times.tolist(),
            "multi_information": self.multi_information.tolist(),
            "observer_mode": self.observer_mode,
            "n_observers": self.n_observers,
            "delta_multi_information": self.delta_multi_information,
            "metadata": dict(self.metadata),
        }
        if self.marginal_entropy_sum is not None:
            payload["marginal_entropy_sum"] = self.marginal_entropy_sum.tolist()
        if self.joint_entropy is not None:
            payload["joint_entropy"] = self.joint_entropy.tolist()
        if self.alignment_rmse is not None:
            payload["alignment_rmse"] = self.alignment_rmse.tolist()
        if self.decompositions:
            payload["decomposition"] = {
                key: values.tolist() for key, values in self.decomposition_series().items()
            }
            # Full per-step decomposition objects, so save -> load round-trips
            # losslessly (the flattened "decomposition" series above is kept
            # for plotting consumers).
            payload["decompositions"] = [dec.to_dict() for dec in self.decompositions]
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "SelfOrganizationResult":
        """Inverse of :meth:`to_dict`: restore every series, including decompositions."""
        from repro.infotheory.decomposition import DecompositionResult

        def optional(name: str) -> np.ndarray | None:
            return np.asarray(payload[name], dtype=float) if name in payload else None

        decompositions = None
        if payload.get("decompositions"):
            decompositions = [DecompositionResult.from_dict(d) for d in payload["decompositions"]]
        return cls(
            steps=np.asarray(payload["steps"], dtype=int),
            times=np.asarray(payload["times"], dtype=float),
            multi_information=np.asarray(payload["multi_information"], dtype=float),
            marginal_entropy_sum=optional("marginal_entropy_sum"),
            joint_entropy=optional("joint_entropy"),
            decompositions=decompositions,
            alignment_rmse=optional("alignment_rmse"),
            observer_mode=payload.get("observer_mode", ObserverMode.PARTICLES.value),
            n_observers=int(payload.get("n_observers", 0)),
            metadata=dict(payload.get("metadata", {})),
        )


class SelfOrganizationAnalysis:
    """Applies the alignment + estimation pipeline to ensemble trajectories."""

    def __init__(self, config: AnalysisConfig | None = None) -> None:
        self.config = config or AnalysisConfig()

    def analysis_steps(self, n_steps: int) -> np.ndarray:
        """Frame indices that will be analysed for a trajectory with ``n_steps`` frames."""
        if n_steps <= 0:
            raise ValueError("n_steps must be positive")
        stride = self.config.step_stride
        steps = list(range(0, n_steps, stride))
        if steps[-1] != n_steps - 1:
            steps.append(n_steps - 1)
        return np.asarray(steps, dtype=int)

    def observers_at_step(
        self, ensemble: EnsembleTrajectory, step: int, *, domain=None
    ) -> tuple[ObserverSet, np.ndarray]:
        """Symmetry-reduce one frame and build its observers.

        Returns the observer set and the per-sample alignment residuals.
        When ``domain`` names a bounded domain with periodic axes, the
        reduction uses the torus-aware aligner instead of free-space ICP.
        """
        config = self.config
        alignment = align_snapshot(
            ensemble.snapshot(step),
            ensemble.types,
            icp=config.icp(),
            reference_strategy=config.reference_strategy,
            domain=domain,
        )
        observers = build_observers(
            alignment.reduced,
            ensemble.types,
            mode=config.observer_mode,
            n_clusters=config.n_clusters,
            rng=spawn_generator(config.seed, step),
        )
        return observers, alignment.rmse

    def analyze(self, ensemble: EnsembleTrajectory, *, domain=None) -> SelfOrganizationResult:
        """Run the measurement pipeline over an ensemble trajectory.

        ``domain`` (a :class:`~repro.particles.domain.Domain` or spec string)
        selects the symmetry group for the reduction step: wrapped domains
        align under translations mod L and per-axis flips rather than the
        free-plane ``ISO+(2)``.
        """
        config = self.config
        steps = self.analysis_steps(ensemble.n_steps)
        n_analysis = steps.size

        multi_information = np.empty(n_analysis)
        marginal_entropy = np.full(n_analysis, np.nan) if config.compute_entropies else None
        joint_entropy = np.full(n_analysis, np.nan) if config.compute_entropies else None
        rmse = np.empty(n_analysis)
        decompositions: list[DecompositionResult] | None = (
            [] if config.compute_decomposition and ensemble.n_types > 1 else None
        )
        observer_mode = ObserverMode.PARTICLES
        n_observers = 0

        def estimate(variables):
            return ksg_multi_information(
                variables,
                k=config.k_neighbors,
                variant=config.estimator_variant,
                backend=config.estimator_backend,
                workers=config.workers,
            )

        for index, step in enumerate(steps):
            observers, step_rmse = self.observers_at_step(ensemble, int(step), domain=domain)
            observer_mode = observers.mode
            n_observers = observers.n_observers
            rmse[index] = float(step_rmse.mean())
            values = observers.values

            if decompositions is not None:
                # The decomposition's total is this frame's multi-information.
                decompositions.append(
                    decompose_multi_information(values, observers.type_groups(), estimator=estimate)
                )
                multi_information[index] = decompositions[-1].total
            else:
                multi_information[index] = estimate(values)
            if config.compute_entropies:
                joint = values.reshape(values.shape[0], -1)
                joint_entropy[index] = kozachenko_leonenko_entropy(
                    joint,
                    k=config.k_neighbors,
                    backend=config.estimator_backend,
                    workers=config.workers,
                )
                marginal_entropy[index] = float(
                    sum(
                        kozachenko_leonenko_entropy(
                            values[:, i, :],
                            k=config.k_neighbors,
                            backend=config.estimator_backend,
                            workers=config.workers,
                        )
                        for i in range(values.shape[1])
                    )
                )

        return SelfOrganizationResult(
            steps=steps,
            times=steps * ensemble.dt,
            multi_information=multi_information,
            marginal_entropy_sum=marginal_entropy,
            joint_entropy=joint_entropy,
            decompositions=decompositions,
            alignment_rmse=rmse,
            observer_mode=observer_mode.value,
            n_observers=n_observers,
            metadata={
                "n_samples": ensemble.n_samples,
                "n_particles": ensemble.n_particles,
                "n_types": ensemble.n_types,
                "k_neighbors": config.k_neighbors,
                "estimator_variant": config.estimator_variant,
            },
        )

