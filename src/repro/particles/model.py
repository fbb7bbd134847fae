"""The particle model: its configuration and its stepping rule.

This module wires the substrates together: interaction parameters
(:mod:`repro.particles.types`), the drift engines
(:mod:`repro.particles.engine`) and a stochastic integrator
(:mod:`repro.particles.integrators`).  :class:`SimulationConfig` specifies
one experiment, :func:`initial_ensemble_for` draws its starting
configurations and :func:`advance` takes one recorded time step.

The simulator is :class:`repro.particles.ensemble.EnsembleSimulator`: the
paper takes every statistic across an ensemble of runs, and a single run is
an ensemble of one (``EnsembleSimulator(config, 1, seed=...)``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Any, Mapping

import numpy as np

from repro.particles.domain import Domain, get_domain
from repro.particles.engine import (
    AdaptiveDriftEngine,
    DriftEngine,
    heuristic_domain_radius,
    resolve_engine,
)
from repro.particles.forces import get_force_scaling, net_force_norms
from repro.particles.init_conditions import (
    default_disc_radius,
    uniform_box_ensemble,
    uniform_disc_ensemble,
)
from repro.particles.integrators import DEFAULT_NOISE_VARIANCE, DriftFn, Integrator, get_integrator
from repro.particles.types import InteractionParams, type_counts_to_assignment

__all__ = ["SimulationConfig", "initial_ensemble_for", "RETIRED_HASH_FIELDS"]

#: Former ``SimulationConfig`` fields at the values every stored unit carried.
#: :func:`repro.core.plan.unit_content_hash` still hashes them, so existing
#: run stores keep their hits, and :meth:`SimulationConfig.from_dict` drops
#: them (at any value) from documents written while they existed.
RETIRED_HASH_FIELDS: Mapping[str, Any] = MappingProxyType(
    {"neighbor_backend": "kdtree", "auto_reresolve_every": 25, "equilibrium_patience": 5}
)


@dataclass(frozen=True)
class SimulationConfig:
    """Full specification of one particle experiment (shared by all samples).

    Parameters
    ----------
    type_counts:
        Number of particles of each type; the total is the collective size
        ``n`` and the length is the number of types ``l``.
    params:
        Symmetric interaction matrices (must have ``l`` types).
    force:
        ``"F1"`` (Eq. 7) or ``"F2"`` (Eq. 8).
    cutoff:
        Interaction radius ``r_c``; ``None`` or ``inf`` disables the cut-off.
    domain:
        Simulation domain spec: ``"free"`` (the paper's unbounded plane,
        default), ``"periodic:<L>"`` (square torus ``[0, L)²`` with
        minimum-image interactions) or ``"reflecting:<L>"`` (closed box with
        reflecting walls).  A :class:`~repro.particles.domain.Domain`
        instance is accepted and normalised to its canonical spec string.
        Bounded domains draw their initial configurations uniformly in the
        box (the disc radius is ignored) and confine positions after every
        integration step; on the torus a finite cut-off must satisfy
        ``r_c <= L/2`` (minimum-image convention).
    dt:
        Integration step size.  The paper reports results per *time step*;
        one recorded step corresponds to ``substeps`` integration steps of
        size ``dt``.
    substeps:
        Integration sub-steps per recorded time step (≥ 1).  Allows small,
        stable ``dt`` while keeping the paper's "250 time steps" semantics.
    n_steps:
        Number of recorded time steps (``t_max``); the stored trajectory has
        ``n_steps + 1`` frames including the initial state.
    noise_variance:
        Variance of the additive Gaussian noise ``w`` (paper: 0.05).
    init_radius:
        Radius of the initial uniform disc; ``None`` derives it from the
        particle count at unit density.
    integrator:
        ``"euler-maruyama"`` (paper) or ``"heun"``.
    engine:
        Drift-evaluation engine — ``"dense"`` (all-pairs kernel),
        ``"sparse"`` (cell-list neighbour pairs, segment-summed) or
        ``"auto"`` (sparse for large collectives with a genuinely pruning
        cut-off; on the free plane it is re-checked at every recorded step
        against the current bounding box, so a contracting collective
        switches kernels mid-run;
        see :func:`repro.particles.engine.resolve_engine`,
        :class:`repro.particles.engine.AdaptiveDriftEngine` and the
        "Choosing an engine" section of :mod:`repro.particles.engine`).
        For finite positions the engines agree bit-for-bit, so the choice
        never changes a trajectory — only how fast it is computed.
    max_drift_norm:
        Optional per-particle cap on the drift magnitude, guarding against
        the ``F1`` singularity when two particles nearly coincide.
    equilibrium_threshold:
        Upper bound on a sample's summed force norm that counts as quiet
        (the paper's equilibrium criterion, §4.1).  Every run takes the full
        ``n_steps``, so that every sample has the same number of frames;
        the criterion is only reported, as the fraction of samples below
        the threshold at the final step
        (:attr:`~repro.particles.ensemble.EnsembleRunStats.fraction_at_equilibrium`).
    """

    type_counts: tuple[int, ...]
    params: InteractionParams
    force: str = "F2"
    cutoff: float | None = None
    domain: str = "free"
    dt: float = 0.05
    substeps: int = 1
    n_steps: int = 250
    noise_variance: float = DEFAULT_NOISE_VARIANCE
    init_radius: float | None = None
    integrator: str = "euler-maruyama"
    engine: str = "auto"
    max_drift_norm: float | None = None
    equilibrium_threshold: float = 1e-2

    def __post_init__(self) -> None:
        counts = tuple(int(c) for c in self.type_counts)
        object.__setattr__(self, "type_counts", counts)
        if len(counts) == 0 or any(c < 0 for c in counts) or sum(counts) == 0:
            raise ValueError("type_counts must contain non-negative counts summing to > 0")
        if len(counts) != self.params.n_types:
            raise ValueError(
                f"type_counts has {len(counts)} types but params has {self.params.n_types}"
            )
        # Chained comparisons also reject NaN and ±inf, which would otherwise
        # enter the content hash as bare NaN / Infinity tokens.
        if not 0 < self.dt < np.inf:
            raise ValueError("dt must be positive")
        if self.substeps <= 0:
            raise ValueError("substeps must be positive")
        if self.n_steps < 0:
            raise ValueError("n_steps must be non-negative")
        if not 0 <= self.noise_variance < np.inf:
            raise ValueError("noise_variance must be non-negative")
        if self.cutoff is not None and not self.cutoff > 0:
            # `not > 0` also rejects NaN, which every engine would otherwise
            # read as "no cut-off" and the hashed payload would carry.
            raise ValueError(
                "cutoff must be positive, not NaN "
                "(use None or inf for unconstrained interactions)"
            )
        if self.init_radius is not None and not 0 < self.init_radius < np.inf:
            raise ValueError("init_radius must be positive")
        if self.max_drift_norm is not None and not 0 < self.max_drift_norm < np.inf:
            raise ValueError("max_drift_norm must be positive")
        # Resolve names eagerly so configuration errors surface at construction.
        get_force_scaling(self.force)
        get_integrator(self.integrator)
        if not 0 < self.equilibrium_threshold < np.inf:
            raise ValueError("equilibrium_threshold must be positive")
        resolve_engine(self.engine, n_particles=sum(counts), cutoff=self.cutoff)
        # Normalise the domain to its canonical spec string (a Domain
        # instance is accepted) and check it against the cut-off.
        domain = get_domain(self.domain)
        domain.validate_cutoff(self.cutoff)
        object.__setattr__(self, "domain", domain.spec)

    # ------------------------------------------------------------------ #
    @property
    def n_particles(self) -> int:
        """Total collective size ``n``."""
        return int(sum(self.type_counts))

    @property
    def n_types(self) -> int:
        """Number of types ``l``."""
        return len(self.type_counts)

    @property
    def types(self) -> np.ndarray:
        """Per-particle type assignment (fixed for the whole experiment)."""
        return type_counts_to_assignment(self.type_counts)

    @property
    def disc_radius(self) -> float:
        """Radius of the initial uniform disc (free domain only)."""
        if self.init_radius is not None:
            return float(self.init_radius)
        return default_disc_radius(self.n_particles)

    @property
    def resolved_domain(self) -> Domain:
        """The :class:`~repro.particles.domain.Domain` instance this config selects."""
        return get_domain(self.domain)

    @property
    def domain_radius(self) -> float:
        """Characteristic radius of the configuration's geometry.

        ``box / 2`` on bounded domains, the initial disc radius on the free
        plane — what the ``"auto"`` engine heuristic compares the cut-off
        against (see :func:`repro.particles.engine.heuristic_domain_radius`,
        the single definition of the bounded-domain rule).
        """
        return heuristic_domain_radius(self.resolved_domain, self.disc_radius)

    @property
    def resolved_engine(self) -> str:
        """The concrete engine (``"dense"``/``"sparse"``) ``"auto"`` resolves to."""
        return resolve_engine(
            self.engine,
            n_particles=self.n_particles,
            cutoff=self.cutoff,
            domain_radius=self.domain_radius,
        )

    def with_updates(self, **changes: Any) -> "SimulationConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable representation (used by the experiment registry).

        The ``domain`` key is *omitted* when it is the default free plane:
        this representation feeds the content hash of
        :func:`repro.core.plan.unit_content_hash`, and omit-when-default
        keeps every pre-existing free-space hash (and therefore every warm
        :class:`~repro.io.artifacts.RunStore`) byte-for-byte valid.
        """
        payload = {
            "type_counts": list(self.type_counts),
            "params": self.params.to_dict(),
            "force": self.force,
            "cutoff": None if self.cutoff is None else float(self.cutoff),
            "dt": self.dt,
            "substeps": self.substeps,
            "n_steps": self.n_steps,
            "noise_variance": self.noise_variance,
            "init_radius": self.init_radius,
            "integrator": self.integrator,
            "engine": self.engine,
            "max_drift_norm": self.max_drift_norm,
            "equilibrium_threshold": self.equilibrium_threshold,
        }
        if self.domain != "free":
            payload["domain"] = self.domain
        return payload

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SimulationConfig":
        """Inverse of :meth:`to_dict` (a missing ``domain`` key means free space).

        The :data:`RETIRED_HASH_FIELDS` keys of older documents are dropped,
        whatever their value; any other unknown key is rejected.
        """
        payload = {key: value for key, value in data.items() if key not in RETIRED_HASH_FIELDS}
        payload["type_counts"] = tuple(payload["type_counts"])
        payload["params"] = InteractionParams.from_dict(payload["params"])
        return cls(**payload)


def initial_ensemble_for(config: SimulationConfig, n_samples: int, rng) -> np.ndarray:
    """Draw ``n_samples`` initial configurations for this config's domain.

    The free plane keeps the paper's independent uniform discs; bounded
    domains (periodic torus, reflecting box, channel — square or
    anisotropic) draw every sample uniformly in the box — the box sides, not
    the particle count, then control the density.  Shape ``(m, n, 2)``; a
    single run draws a batch of one.
    """
    domain = config.resolved_domain
    if domain.bounded:
        return uniform_box_ensemble(n_samples, config.n_particles, domain.box, rng)
    return uniform_disc_ensemble(n_samples, config.n_particles, config.disc_radius, rng)


def _clip_drift(drift: np.ndarray, max_norm: float | None) -> np.ndarray:
    """Scale down per-particle drift vectors that exceed ``max_norm``."""
    if max_norm is None:
        return drift
    norms = net_force_norms(drift)
    factor = np.ones_like(norms)
    too_fast = norms > max_norm
    factor[too_fast] = max_norm / norms[too_fast]
    return drift * factor[..., None]


def advance(
    positions: np.ndarray,
    drift_here: np.ndarray,
    drift: DriftFn,
    integrator: Integrator,
    rng: np.random.Generator,
    config: SimulationConfig,
    domain: Domain,
    engine: DriftEngine,
) -> tuple[np.ndarray, np.ndarray]:
    """Advance an ensemble snapshot by one recorded time step.

    ``positions`` is the ``(m, n, 2)`` snapshot, ``drift_here`` is
    ``drift(positions)`` and ``drift`` evaluates a snapshot; returns
    ``(positions, drift)`` at the new step.  The step runs
    ``config.substeps`` integrator steps, each starting from the drift
    evaluated at the end of the one before; the last of these, the drift at
    the new positions, is the equilibrium diagnostic, returned so the caller
    starts the next step from it.  An adaptive ``"auto"`` engine then
    re-checks dense vs sparse against the new positions; the switch never
    changes a drift, so the returned one stays valid.  This is the one
    stepping loop: every batch of
    :class:`~repro.particles.ensemble.EnsembleSimulator` steps through here.
    """
    for _ in range(config.substeps):
        positions = integrator.step(positions, drift_here, drift, config.dt, rng, domain)
        drift_here = drift(positions)
    if isinstance(engine, AdaptiveDriftEngine):
        # Bit-identical kernels make this switch invisible in the
        # trajectory; it only tracks the contracting bounding box.
        engine.reresolve(positions)
    return positions, drift_here
