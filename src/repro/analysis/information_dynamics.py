"""Per-particle information dynamics over time (the paper's §7.3 programme).

The paper's future work proposes measuring information *transfer* between
individual particles during the organization process.  This module implements
that analysis on top of :mod:`repro.infotheory.transfer`:

* :func:`particle_series` extracts a single particle's trajectory across all
  ensemble samples in the form the estimators expect — note that this uses
  the **raw** ensemble (identity of a particle preserved over time), not the
  permutation-reduced representation, exactly as §5.2 cautions.
* :func:`pairwise_transfer_entropy` estimates the directed transfer-entropy
  matrix between a set of particles.
* :func:`pairwise_lagged_mutual_information` is its unconditioned (cheaper)
  screening counterpart.
* :func:`net_information_flow` summarises directedness (outgoing minus
  incoming transfer) per particle.

Shared-embedding plan
---------------------
A naive pairwise analysis calls :func:`~repro.infotheory.transfer
.transfer_entropy` once per ordered pair, and every call re-derives the
target's ``embed_history`` blocks and rebuilds their distance structures from
scratch — n² times what is needed.  The pairwise functions here instead
compute, **once per particle**, the flattened (future, past, aligned-source)
embeddings and, **once per matrix row**, the target-side distance structures
(the dense squared blocks ``q_AC = max(q_future, q_past)`` and ``q_past``,
or the tree-backed (A, C)/(C) count indexes), then sweep the row's sources
against them.  The per-pair arithmetic is routed through the same estimator
kernels as the naive path, so the resulting matrices are bit-identical to
the per-pair loop — the plan is pure reuse, not an approximation.

``backend="dense" | "kdtree" | "auto"`` selects the estimator backend (see
:mod:`repro.infotheory.transfer`); ``"auto"`` resolves once from the pooled
sample count and applies to every pair.  ``n_jobs`` fans the matrix rows out
through :func:`repro.parallel.pool.parallel_starmap`; row order (and hence
the result) is deterministic for any job count.  ``workers`` threads the
tree backend's cKDTree queries *inside* each row task (scipy semantics) —
the two parallelism axes compose and neither changes any value.
"""

from __future__ import annotations

import numpy as np

from repro.infotheory.knn import (
    EuclideanBallCounter,
    ProductMetricTree,
    resolve_estimator_backend,
)
from repro.infotheory.ksg import (
    _counts_from_squared,
    _ksg1_tree_counts,
    _ksg_tree_counts,
    _ksg_value_from_counts,
    _squared_distances,
    _validate_variant,
)
from repro.infotheory.transfer import (
    _cmi_value_from_counts,
    _cmi_workspace,
    _dense_cmi_counts,
    embed_history,
)
from repro.parallel.pool import effective_n_jobs, parallel_starmap
from repro.particles.trajectory import EnsembleTrajectory

__all__ = [
    "particle_series",
    "pairwise_transfer_entropy",
    "pairwise_lagged_mutual_information",
    "net_information_flow",
]

#: Measured dense/kdtree crossover of the *pairwise TE* plan (against the
#: distance-matrix rows the dense count kernel replaced).  The shared
#: dense path amortises its distance matrices across a whole matrix row, so
#: the tree backend overtakes it much later than in a standalone
#: ``transfer_entropy`` call (where the crossover is
#: ``repro.infotheory.knn.KDTREE_MIN_SAMPLES``).  Against the triangle
#: kernel (three particles, k = 4, one worker), dense time over tree time is
#: 0.28–0.37 at m = 512–1024, 0.63 at 2048, 0.81 at 3072 and 1.15 at 4096
#: (1.1–1.2 at 2048–3072 before it), so the crossover is now near 4096.
TE_PAIRWISE_KDTREE_MIN_SAMPLES = 3072

#: Measured dense/kdtree crossover of the pairwise lagged-MI plan: the
#: amortised dense matrices push it above the standalone KSG1 crossover
#: (``repro.infotheory.ksg.KSG1_KDTREE_MIN_SAMPLES``), but the
#: list-free marginal counts keep it far below the pairwise-TE one.  Against
#: the triangle kernel (four particles, k = 4, one worker), dense time over
#: tree time is 0.68 at m = 256, 0.89 at 512, 1.05 at 640, 1.16 at 768 and
#: 1.49 at 1024 (1.8 at 512 and 2.15 at 640 before it).  Neither pairwise
#: constant moved (``"auto"`` is hashed as the string).
MI_PAIRWISE_KDTREE_MIN_SAMPLES = 640


def particle_series(ensemble: EnsembleTrajectory, particle: int) -> np.ndarray:
    """Trajectories of one particle across samples, shape ``(n_samples, n_steps, 2)``.

    The ensemble axis plays the role of independent realisations for the
    transfer-entropy estimators.
    """
    if not 0 <= particle < ensemble.n_particles:
        raise ValueError(f"particle index {particle} out of range [0, {ensemble.n_particles})")
    # positions are stored as (n_steps, n_samples, n_particles, 2)
    return np.ascontiguousarray(ensemble.positions[:, :, particle, :].transpose(1, 0, 2))


def _selected_particles(
    ensemble: EnsembleTrajectory, particles: list[int] | np.ndarray | None
) -> np.ndarray:
    if particles is None:
        particles = np.arange(ensemble.n_particles)
    return np.asarray(particles, dtype=int)


def _validate_window_args(
    ensemble: EnsembleTrajectory, *, step_stride: int, history: int | None = None, lag: int | None = None
) -> int:
    """Validate thinning/embedding arguments; returns the thinned step count."""
    if step_stride < 1:
        raise ValueError(f"step_stride must be >= 1, got {step_stride}")
    n_thinned = len(range(0, ensemble.n_steps, step_stride))
    if history is not None:
        if history < 1:
            raise ValueError(f"history must be >= 1, got {history}")
        if n_thinned <= history:
            raise ValueError(
                f"history={history} requires at least {history + 1} time steps, but the "
                f"trajectory keeps only {n_thinned} of {ensemble.n_steps} recorded steps "
                f"after thinning with step_stride={step_stride}"
            )
    if lag is not None:
        if lag < 0:
            raise ValueError(f"lag must be non-negative, got {lag}")
        if n_thinned <= lag:
            raise ValueError(
                f"lag={lag} requires at least {lag + 1} time steps, but the trajectory "
                f"keeps only {n_thinned} of {ensemble.n_steps} recorded steps after "
                f"thinning with step_stride={step_stride}"
            )
    return n_thinned


def _self_pair_indices(particles: np.ndarray, i_index: int) -> tuple[int, ...]:
    """Column indices whose particle id equals row ``i_index``'s particle.

    The matrix diagonal is zero by convention, and that convention is by
    particle *identity*: a selection with repeated indices must not report
    self-transfer between the duplicate entries.
    """
    return tuple(np.flatnonzero(particles == particles[i_index]))


def _te_row(
    skip_indices: tuple[int, ...],
    future_i: np.ndarray,
    past_i: np.ndarray,
    aligned_blocks: list[np.ndarray],
    k: int,
    backend: str,
    workers: int = 1,
    cross_row_cache: dict | None = None,
) -> np.ndarray:
    """One row of the transfer-entropy matrix: every source j against target i.

    The target-side structures (the dense ``q_AC`` and ``q_C`` squared
    blocks, or the (A, C) tree and C counter of the tree backend) are built
    once and reused across the row's sources.  ``cross_row_cache`` (serial
    mode only) additionally shares the per-source squared distances across
    rows.
    """
    n = len(aligned_blocks)
    row = np.zeros(n)
    sources = [j_index for j_index in range(n) if j_index not in skip_indices]
    if not sources:
        return row
    if backend == "dense":
        work = _cmi_workspace(future_i, past_i)
        for j_index in sources:
            if cross_row_cache is None:
                q_source = _squared_distances(aligned_blocks[j_index], work[1])
            else:
                q_source = cross_row_cache.get(j_index)
                if q_source is None:
                    q_source = cross_row_cache.setdefault(
                        j_index, _squared_distances(aligned_blocks[j_index])
                    )
            row[j_index] = _cmi_value_from_counts(*_dense_cmi_counts(work, q_source, k), k)
    else:
        # The (A, C) = (future, past) tree and the conditioning-ball counter
        # depend only on the target, so one of each serves the whole row.
        ac_tree = ProductMetricTree([future_i, past_i], workers=workers)
        c_counter = EuclideanBallCounter(past_i, workers=workers)
        for j_index in sources:
            source = aligned_blocks[j_index]
            counters = [ac_tree, ProductMetricTree([source, past_i], workers=workers), c_counter]
            counts = _ksg1_tree_counts([future_i, source, past_i], k, counters, workers=workers)
            row[j_index] = _cmi_value_from_counts(*counts, k)
    return row


def _mi_row(
    skip_indices: tuple[int, ...],
    target_i: np.ndarray,
    source_blocks: list[np.ndarray],
    k: int,
    backend: str,
    variant: str = "ksg1",
    workers: int = 1,
    cross_row_cache: dict | None = None,
) -> np.ndarray:
    """One row of the lagged-MI matrix: every source j against target i."""
    n = len(source_blocks)
    row = np.zeros(n)
    sources = [j_index for j_index in range(n) if j_index not in skip_indices]
    if not sources:
        return row
    if backend == "dense":
        # The estimator's own dense kernel on a (source, target) workspace of
        # squared distances: the target slot is filled once per row, the
        # source slot per pair (from the cross-row cache in serial mode).
        m = target_i.shape[0]
        work = np.empty((2, m, m))
        _squared_distances(target_i, work[1])
        for j_index in sources:
            if cross_row_cache is None:
                _squared_distances(source_blocks[j_index], work[0])
            else:
                q_source = cross_row_cache.get(j_index)
                if q_source is None:
                    q_source = cross_row_cache.setdefault(
                        j_index, _squared_distances(source_blocks[j_index])
                    )
                work[0] = q_source
            counts = _counts_from_squared([work], np.maximum(work[0], work[1]), k, variant)
            row[j_index] = _ksg_value_from_counts(counts, k, m, variant)
    else:
        # The target-side counter serves the whole row; source counters are
        # shared across rows through the cache in serial mode.  Counters
        # answer both the strict (ksg1/paper) and inclusive (ksg2) counts,
        # so one cache serves every variant.
        target_counter = EuclideanBallCounter(target_i, workers=workers)
        for j_index in sources:
            if cross_row_cache is None:
                source_counter = EuclideanBallCounter(source_blocks[j_index], workers=workers)
            else:
                source_counter = cross_row_cache.get(j_index)
                if source_counter is None:
                    source_counter = cross_row_cache.setdefault(
                        j_index, EuclideanBallCounter(source_blocks[j_index], workers=workers)
                    )
            counts = _ksg_tree_counts(
                [source_blocks[j_index], target_i],
                k,
                variant,
                [source_counter, target_counter],
                workers=workers,
            )
            row[j_index] = _ksg_value_from_counts(counts, k, target_i.shape[0], variant)
    return row


def _fan_out_rows(row_func, rows: list[tuple], *, n_jobs: int | None) -> np.ndarray:
    """Run one task per matrix row: serially (sharing a cross-row cache) or pooled.

    Each row's task carries its full argument tuple (the pickled embeddings
    cost milliseconds against a fan-out of seconds); :func:`parallel_starmap`
    keeps row order, so the matrix is bit-identical across modes.
    """
    if effective_n_jobs(n_jobs) == 1 or len(rows) == 1:
        cross_row_cache: dict = {}
        return np.stack([row_func(*args, cross_row_cache) for args in rows])
    return np.stack(parallel_starmap(row_func, rows, n_jobs=n_jobs))


def pairwise_transfer_entropy(
    ensemble: EnsembleTrajectory,
    particles: list[int] | np.ndarray | None = None,
    *,
    history: int = 1,
    k: int = 4,
    step_stride: int = 1,
    backend: str = "auto",
    n_jobs: int | None = None,
    workers: int = 1,
) -> np.ndarray:
    """Directed transfer-entropy matrix between the selected particles (bits).

    Entry ``[i, j]`` is ``T_{particle_j → particle_i}`` (information the past
    of ``j`` adds about the next step of ``i`` beyond ``i``'s own past).  The
    diagonal is zero by convention.  ``step_stride`` thins the trajectories to
    control cost; ``backend``, ``n_jobs`` and ``workers`` select the
    estimator backend, the row fan-out width and the per-row tree-query
    thread count (see the module docstring) — none of them changes the
    values beyond floating-point backend tolerance.
    """
    particles = _selected_particles(ensemble, particles)
    _validate_window_args(ensemble, step_stride=step_stride, history=history)
    futures, pasts, aligneds = [], [], []
    for p in particles:
        series = particle_series(ensemble, int(p))[:, ::step_stride, :]
        future, past, aligned = embed_history(series, history)
        d = series.shape[2]
        futures.append(future.reshape(-1, d))
        pasts.append(past.reshape(-1, history * d))
        aligneds.append(aligned.reshape(-1, d))
    if particles.size == 0:
        return np.zeros((0, 0))
    resolved = resolve_estimator_backend(
        backend, n_samples=futures[0].shape[0], min_samples=TE_PAIRWISE_KDTREE_MIN_SAMPLES
    )
    rows = [
        (_self_pair_indices(particles, i), futures[i], pasts[i], aligneds, k, resolved, workers)
        for i in range(particles.size)
    ]
    return _fan_out_rows(_te_row, rows, n_jobs=n_jobs)


def pairwise_lagged_mutual_information(
    ensemble: EnsembleTrajectory,
    particles: list[int] | np.ndarray | None = None,
    *,
    lag: int = 1,
    k: int = 4,
    step_stride: int = 1,
    backend: str = "auto",
    n_jobs: int | None = None,
    variant: str = "ksg1",
    workers: int = 1,
) -> np.ndarray:
    """Matrix of lagged mutual informations between the selected particles (bits).

    Entry ``[i, j]`` is ``I(particle_j at t ; particle_i at t + lag)`` — the
    unconditioned precursor of the transfer entropy, useful as a cheaper
    screening quantity.  ``variant`` selects the KSG estimator variant
    (default algorithm 1, the cheapest screen; ``"ksg2"`` gives the
    calibrated pipeline estimator); ``backend``/``n_jobs``/``workers`` as in
    :func:`pairwise_transfer_entropy`.
    """
    _validate_variant(variant)
    particles = _selected_particles(ensemble, particles)
    _validate_window_args(ensemble, step_stride=step_stride, lag=lag)
    sources, targets = [], []
    for p in particles:
        series = particle_series(ensemble, int(p))[:, ::step_stride, :]
        n_thinned = series.shape[1]
        d = series.shape[2]
        sources.append(series[:, : n_thinned - lag, :].reshape(-1, d))
        targets.append(series[:, lag:, :].reshape(-1, d))
    if particles.size == 0:
        return np.zeros((0, 0))
    resolved = resolve_estimator_backend(
        backend, n_samples=sources[0].shape[0], min_samples=MI_PAIRWISE_KDTREE_MIN_SAMPLES
    )
    rows = [
        (_self_pair_indices(particles, i), targets[i], sources, k, resolved, variant, workers)
        for i in range(particles.size)
    ]
    return _fan_out_rows(_mi_row, rows, n_jobs=n_jobs)


def net_information_flow(transfer_matrix: np.ndarray) -> np.ndarray:
    """Outgoing minus incoming transfer entropy per particle.

    Positive values mark particles that act predominantly as information
    sources during the organization process, negative values mark sinks.
    """
    transfer_matrix = np.asarray(transfer_matrix, dtype=float)
    if transfer_matrix.ndim != 2 or transfer_matrix.shape[0] != transfer_matrix.shape[1]:
        raise ValueError("transfer_matrix must be square")
    outgoing = transfer_matrix.sum(axis=0)  # column j: j -> others
    incoming = transfer_matrix.sum(axis=1)  # row i: others -> i
    return outgoing - incoming
