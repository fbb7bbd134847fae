"""The particle system: configuration and single-run simulation.

This module wires the substrates together for one simulation run: interaction
parameters (:mod:`repro.particles.types`), the drift engines
(:mod:`repro.particles.engine`), a stochastic integrator
(:mod:`repro.particles.integrators`) and the equilibrium criterion
(:mod:`repro.particles.equilibrium`).

Ensembles of runs — the unit of analysis in the paper — are handled by
:class:`repro.particles.ensemble.EnsembleSimulator`, which shares the
:class:`SimulationConfig` defined here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Any, Mapping

import numpy as np

from repro.parallel.rng import as_generator
from repro.particles.domain import Domain, get_domain
from repro.particles.engine import (
    AdaptiveDriftEngine,
    DriftEngine,
    engine_for_config,
    heuristic_domain_radius,
    resolve_engine,
)
from repro.particles.equilibrium import EquilibriumDetector
from repro.particles.forces import get_force_scaling, net_force_norms
from repro.particles.init_conditions import (
    default_disc_radius,
    uniform_box_ensemble,
    uniform_disc_ensemble,
)
from repro.particles.integrators import DEFAULT_NOISE_VARIANCE, DriftFn, Integrator, get_integrator
from repro.particles.trajectory import Trajectory
from repro.particles.types import InteractionParams, type_counts_to_assignment

__all__ = ["SimulationConfig", "ParticleSystem", "initial_ensemble_for", "RETIRED_HASH_FIELDS"]

#: Former ``SimulationConfig`` fields at the values every stored unit carried.
#: :func:`repro.core.plan.unit_content_hash` still hashes them, so existing
#: run stores keep their hits, and :meth:`SimulationConfig.from_dict` drops
#: them (at any value) from documents written while they existed.
RETIRED_HASH_FIELDS: Mapping[str, Any] = MappingProxyType(
    {"neighbor_backend": "kdtree", "auto_reresolve_every": 25}
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
        Both single runs and ensembles honour this choice, and for finite
        positions the engines agree bit-for-bit, so it never changes a
        trajectory — only how fast it is computed.
    max_drift_norm:
        Optional per-particle cap on the drift magnitude, guarding against
        the ``F1`` singularity when two particles nearly coincide.
    equilibrium_threshold / equilibrium_patience:
        Parameters of the paper's stopping criterion.  The criterion is
        always *evaluated*; whether it stops the run early is decided by the
        caller (ensembles always run the full ``n_steps`` so that every
        sample has the same number of frames).
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
    equilibrium_patience: int = 5

    def __post_init__(self) -> None:
        counts = tuple(int(c) for c in self.type_counts)
        object.__setattr__(self, "type_counts", counts)
        if len(counts) == 0 or any(c < 0 for c in counts) or sum(counts) == 0:
            raise ValueError("type_counts must contain non-negative counts summing to > 0")
        if len(counts) != self.params.n_types:
            raise ValueError(
                f"type_counts has {len(counts)} types but params has {self.params.n_types}"
            )
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.substeps <= 0:
            raise ValueError("substeps must be positive")
        if self.n_steps < 0:
            raise ValueError("n_steps must be non-negative")
        if self.noise_variance < 0:
            raise ValueError("noise_variance must be non-negative")
        if self.cutoff is not None and not self.cutoff > 0:
            # `not > 0` also rejects NaN, which every engine would otherwise
            # read as "no cut-off" and the hashed payload would carry.
            raise ValueError(
                "cutoff must be positive, not NaN "
                "(use None or inf for unconstrained interactions)"
            )
        if self.init_radius is not None and self.init_radius <= 0:
            raise ValueError("init_radius must be positive")
        if self.max_drift_norm is not None and self.max_drift_norm <= 0:
            raise ValueError("max_drift_norm must be positive")
        # Resolve names eagerly so configuration errors surface at construction.
        get_force_scaling(self.force)
        get_integrator(self.integrator)
        # Ensembles never build a detector, so check its parameters here.
        EquilibriumDetector(self.equilibrium_threshold, self.equilibrium_patience)
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
            "equilibrium_patience": self.equilibrium_patience,
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
    """Advance by one recorded time step; returns ``(positions, drift)``.

    Shape-agnostic: ``positions`` is one configuration ``(n, 2)`` or an
    ensemble snapshot ``(m, n, 2)``, ``drift_here`` is ``drift(positions)``
    and ``drift`` evaluates that shape.  The step runs ``config.substeps``
    integrator steps, each starting from the drift evaluated at the end of
    the one before; the last of these, the drift at the new positions, is
    the equilibrium diagnostic, returned so the caller can start the next
    step from it.  An adaptive ``"auto"`` engine then re-checks dense vs
    sparse against the new positions; the switch never changes a drift, so
    the returned one stays valid.  Single runs and ensembles both step
    through here.
    """
    for _ in range(config.substeps):
        positions = integrator.step(positions, drift_here, drift, config.dt, rng, domain)
        drift_here = drift(positions)
    if isinstance(engine, AdaptiveDriftEngine):
        # Bit-identical kernels make this switch invisible in the
        # trajectory; it only tracks the contracting bounding box.
        engine.reresolve(positions)
    return positions, drift_here


class ParticleSystem:
    """A single simulation run of the particle model.

    The system owns its positions, advances them step by step, tracks the
    equilibrium criterion and can record a full :class:`Trajectory`.  The
    drift is evaluated through the engine the configuration selects
    (:func:`repro.particles.engine.engine_for_config`): dense all-pairs for
    small or unconstrained collectives, a sparse neighbour-pair kernel for
    large ones with a pruning cut-off.
    """

    def __init__(
        self,
        config: SimulationConfig,
        *,
        rng: np.random.Generator | int | None = None,
        initial_positions: np.ndarray | None = None,
    ) -> None:
        self.config = config
        self.rng = as_generator(rng)
        self.types = config.types
        self._domain = config.resolved_domain
        self._integrator = get_integrator(config.integrator, noise_variance=config.noise_variance)
        self._engine = engine_for_config(config)
        self._equilibrium = EquilibriumDetector(
            threshold=config.equilibrium_threshold, patience=config.equilibrium_patience
        )
        if initial_positions is None:
            self.positions = initial_ensemble_for(config, 1, self.rng)[0]
        else:
            initial_positions = np.asarray(initial_positions, dtype=float)
            if initial_positions.shape != (config.n_particles, 2):
                raise ValueError(
                    f"initial_positions must have shape ({config.n_particles}, 2), "
                    f"got {initial_positions.shape}"
                )
            # Externally supplied states are mapped onto the domain's
            # canonical coordinates (identity on the free plane).
            self.positions = self._domain.wrap(initial_positions.copy())
        self._step_count = 0
        self._observers: list = []

    # ------------------------------------------------------------------ #
    @property
    def n_particles(self) -> int:
        return self.config.n_particles

    @property
    def at_equilibrium(self) -> bool:
        """Whether the paper's stopping criterion has been met."""
        return self._equilibrium.quiet_steps >= self.config.equilibrium_patience

    @property
    def engine(self):
        """The resolved :class:`~repro.particles.engine.DriftEngine` of this run."""
        return self._engine

    def add_observer(self, observer) -> None:
        """Attach a step observer: any object with ``on_step(step, positions)``.

        :meth:`run` calls ``on_step`` for every *recorded* frame, after the
        frame has been stored; ``step`` counts recorded steps, so a fresh
        system's initial frame arrives as step 0.  ``positions`` is a
        read-only ``(n, 2)`` view: copy it to keep it beyond the call.  An
        observer must not draw from the system's generator or mutate its
        state; then it watches the trajectory without perturbing it: the
        produced trajectory stays bit-identical to an unobserved run, and an
        empty observer list costs nothing.
        """
        self._observers.append(observer)

    def remove_observer(self, observer) -> None:
        """Detach a previously attached step observer."""
        self._observers.remove(observer)

    def _notify_observers(self, step: int, frame: np.ndarray) -> None:
        view = frame.view()
        view.flags.writeable = False
        for observer in self._observers:
            observer.on_step(step, view)

    def drift(self, positions: np.ndarray | None = None) -> np.ndarray:
        """Deterministic drift at the given (default: current) positions."""
        pos = self.positions if positions is None else np.asarray(positions, dtype=float)
        return _clip_drift(self._engine.drift(pos), self.config.max_drift_norm)

    def step(self) -> np.ndarray:
        """Advance by one recorded time step (``config.substeps`` integration steps).

        The drift at the current positions is evaluated afresh: callers may
        reassign :attr:`positions` between steps, so the previous step's
        diagnostic is not reused here (ensembles reuse it).
        """
        self._step_count += 1
        self.positions, drift = advance(
            self.positions, self.drift(), self.drift, self._integrator, self.rng,
            self.config, self._domain, self._engine,
        )
        self._equilibrium.update(drift)
        return self.positions

    def run(
        self,
        n_steps: int | None = None,
        *,
        stop_at_equilibrium: bool = False,
        record: bool = True,
    ) -> Trajectory:
        """Run the simulation and return the recorded trajectory.

        Parameters
        ----------
        n_steps:
            Number of recorded steps; defaults to ``config.n_steps``.
        stop_at_equilibrium:
            Stop early once the equilibrium criterion is satisfied.  The
            returned trajectory then contains only the frames actually taken.
        record:
            When False, only the final frame is kept (single-frame
            trajectory) — useful for equilibrium-shape studies.
        """
        total = self.config.n_steps if n_steps is None else int(n_steps)
        if total < 0:
            raise ValueError("n_steps must be non-negative")
        frames = [self.positions.copy()]
        if record and self._observers:
            self._notify_observers(self._step_count, frames[0])
        for _ in range(total):
            self.step()
            if record:
                frames.append(self.positions.copy())
                if self._observers:
                    self._notify_observers(self._step_count, frames[-1])
            if stop_at_equilibrium and self.at_equilibrium:
                break
        if not record:
            frames = [self.positions.copy()]
        return Trajectory(
            positions=np.stack(frames, axis=0),
            types=self.types,
            dt=self.config.dt * self.config.substeps,
        )
