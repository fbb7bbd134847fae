"""Ensemble simulation: many independent runs of the same experiment.

The paper's statistics are taken *across samples*: each experiment runs the
same particle model ``m = 500–1000`` times from independent initial discs and
noise realisations, and the multi-information at time ``t`` is estimated from
the ``m`` configurations observed at that step (§5.1).  A single run is an
ensemble of one: ``EnsembleSimulator(config, 1, seed=...)``.

Samples are split into batches bounded by a memory budget, and every batch
runs through one function, :func:`_simulate_batch`: it builds the batch's
drift engine, draws its initial configurations and advances all of its
samples simultaneously with batched kernels of shape ``(m, n, 2)`` — dense
all-pairs or sparse neighbour-pair, whichever the configuration's drift
engine selects.  On the sparse path the neighbour query itself is batched:
the cell list hashes the whole snapshot in one vectorised query, leaving
zero per-sample Python in the hot loop, and the adaptive ``"auto"`` engine
re-checks its dense/sparse choice at every recorded step as the collectives
contract.  With ``n_jobs`` the batches are distributed over a process pool,
which helps on many-core machines when ``m`` is large and the per-batch work
is substantial; the result is the same for the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.parallel.batch import batch_slices, max_batch_for_budget
from repro.parallel.pool import parallel_starmap
from repro.parallel.rng import seed_streams
from repro.particles.engine import engine_for_config
from repro.particles.forces import net_force_norms
from repro.particles.integrators import get_integrator
from repro.particles.model import SimulationConfig, _clip_drift, advance, initial_ensemble_for
from repro.particles.trajectory import EnsembleTrajectory

__all__ = ["EnsembleSimulator", "EnsembleRunStats"]


@dataclass(frozen=True)
class EnsembleRunStats:
    """Diagnostics accumulated during an ensemble run.

    Attributes
    ----------
    mean_force_norm:
        Mean (over samples) of the summed per-particle force norms at every
        recorded step — the quantity the equilibrium criterion thresholds.
    fraction_at_equilibrium:
        Fraction of samples whose force norm was below the configured
        threshold at the final recorded step.
    """

    mean_force_norm: np.ndarray
    fraction_at_equilibrium: float


class EnsembleSimulator:
    """Run ``n_samples`` independent realisations of a :class:`SimulationConfig`."""

    def __init__(
        self,
        config: SimulationConfig,
        n_samples: int,
        *,
        seed: int | None = None,
        bytes_budget: int = 256 * 1024 * 1024,
    ) -> None:
        if n_samples <= 0:
            raise ValueError("n_samples must be positive")
        self.config = config
        self.n_samples = int(n_samples)
        self.seed = seed
        self.bytes_budget = int(bytes_budget)
        self.types = config.types
        self._last_stats: EnsembleRunStats | None = None
        self._observers: list = []

    # ------------------------------------------------------------------ #
    @property
    def last_stats(self) -> EnsembleRunStats | None:
        """Diagnostics of the most recent :meth:`run` call (None before any run)."""
        return self._last_stats

    def add_observer(self, observer) -> None:
        """Attach a step observer: any object with ``on_step(step, positions)``.

        :meth:`run` calls ``on_step`` for every recorded ensemble frame, the
        initial one as step 0, after the frame has been stored.
        ``positions`` is a read-only ``(m, n, 2)`` view: copy it to keep it
        beyond the call.  An observer must not draw from the simulator's
        random streams or mutate its state; then it streams metrics from a
        live run without perturbing it: the produced trajectory stays
        bit-identical to an unobserved run, and an empty observer list costs
        nothing.  :class:`~repro.monitor.live.InformationMonitor` is the
        canonical observer.

        Observed runs execute in-process (no process pool) and require the
        ensemble to fit one memory batch, so each notification carries the
        *full* ensemble snapshot; :meth:`run` raises otherwise (raise
        ``bytes_budget`` or lower ``n_samples``).
        """
        self._observers.append(observer)

    def remove_observer(self, observer) -> None:
        """Detach a previously attached step observer."""
        self._observers.remove(observer)

    def run(self, *, n_jobs: int | None = None) -> EnsembleTrajectory:
        """Simulate the full ensemble and return its trajectory.

        Samples are split into batches that respect the memory budget; with
        ``n_jobs > 1`` the batches are distributed over a process pool.  The
        per-batch random streams are derived from the simulator seed, so the
        result is identical regardless of parallelism (though it does depend
        on the batch layout, i.e. on ``bytes_budget``).
        """
        config = self.config
        batch_size = max_batch_for_budget(config.n_particles, bytes_budget=self.bytes_budget)
        slices = batch_slices(self.n_samples, batch_size)
        # One stream per batch for the initial conditions, one for the
        # dynamics noise; derived from a single SeedSequence family.
        streams = seed_streams(self.seed, 2 * len(slices))
        batches = [
            (config, sl.stop - sl.start, streams[2 * index], streams[2 * index + 1])
            for index, sl in enumerate(slices)
        ]

        if self._observers:
            # Observed runs execute in-process: a pool worker would receive
            # a pickled copy of each observer and notify that instead.  One
            # batch is required so every notification carries the full
            # ensemble snapshot.  The same seed streams are consumed, so the
            # result is bit-identical to an unobserved run.
            if len(batches) > 1:
                raise ValueError(
                    f"step observers need the whole ensemble in one batch, but "
                    f"{self.n_samples} sample(s) split into {len(batches)} batches "
                    f"under bytes_budget={self.bytes_budget}; raise bytes_budget "
                    f"or lower n_samples"
                )
            results = [_simulate_batch(*batches[0], observers=self._observers)]
        else:
            results = parallel_starmap(_simulate_batch, batches, n_jobs=n_jobs)

        frames = np.concatenate([frames for frames, _ in results], axis=1)
        force_norms = np.concatenate([norms for _, norms in results], axis=1)
        final_quiet = force_norms[-1] < config.equilibrium_threshold
        self._last_stats = EnsembleRunStats(
            mean_force_norm=force_norms.mean(axis=1),
            fraction_at_equilibrium=float(final_quiet.mean()),
        )
        return EnsembleTrajectory(
            positions=frames, types=self.types, dt=config.dt * config.substeps
        )


def _simulate_batch(
    config: SimulationConfig,
    n_samples: int,
    init_rng: np.random.Generator,
    dyn_rng: np.random.Generator,
    observers=(),
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate one batch of ``n_samples`` for the full run.

    Builds the batch's own drift engine (so an adaptive ``"auto"`` engine
    starts from the configuration's initial choice in every batch, pooled
    or not), draws the initial configurations from ``init_rng`` and steps
    them through :func:`~repro.particles.model.advance` with the noise of
    ``dyn_rng``, notifying ``observers`` of every recorded frame.  Module
    level so the process pool can pickle it.  Returns ``(frames,
    force_norms)`` of shapes ``(n_steps + 1, n_samples, n, 2)`` and
    ``(n_steps + 1, n_samples)``.
    """
    engine = engine_for_config(config)
    domain = config.resolved_domain
    integrator = get_integrator(config.integrator, noise_variance=config.noise_variance)

    def drift(positions: np.ndarray) -> np.ndarray:
        return _clip_drift(engine.drift_batch(positions), config.max_drift_norm)

    def notify(step: int, frame: np.ndarray) -> None:
        if observers:
            view = frame.view()
            view.flags.writeable = False
            for observer in observers:
                observer.on_step(step, view)

    positions = initial_ensemble_for(config, n_samples, init_rng)
    frames = [positions.copy()]
    drift_here = drift(positions)
    force_norms = [net_force_norms(drift_here).sum(axis=-1)]
    notify(0, frames[0])
    for step in range(1, config.n_steps + 1):
        # The last diagnostic is the drift at these positions: reuse it.
        positions, drift_here = advance(
            positions, drift_here, drift, integrator, dyn_rng, config, domain, engine
        )
        frames.append(positions.copy())
        force_norms.append(net_force_norms(drift_here).sum(axis=-1))
        notify(step, frames[-1])
    return np.stack(frames, axis=0), np.stack(force_norms, axis=0)
