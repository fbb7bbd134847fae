"""Factoring out the shape symmetries of a particle ensemble.

The observable shape of a configuration is invariant under the group
``F = ISO+(2) × S*_n`` of planar rotations, translations and permutations of
same-type particles (§4.2).  To measure multi-information between observer
variables, every ensemble snapshot is mapped to a symmetry-reduced
representative ``w`` (§5.2):

1. **translation** — express every sample relative to its centroid,
2. **rotation** — align every sample to a common reference sample with the
   type-aware ICP,
3. **permutation** — reorder each sample's particles so that index ``i``
   refers to "the same" particle across samples, via the one-to-one
   type-preserving correspondence found by the ICP.

The correspondence is established *across samples at a fixed time step*;
identity of a particle across time is deliberately lost (§5.2).

:func:`align_snapshot` hands every sample but the reference to the aligner
in **one call** and writes the reordered results back with one scatter.  The
free-space :class:`~repro.alignment.icp.TypeAwareICP` runs its descents for
the whole stack in lockstep: one same-type nearest-neighbour search per
iteration over every sample (brute force, none for a single-particle type),
one stacked Kabsch solve, a per-sample convergence mask that freezes each
sample where its own descent stops, and one more descent for every rotated
start of the samples whose first fit missed ``good_enough_rmse``.  The
reduced coordinates are bitwise those of aligning the samples one at a time.

On a wrapped domain (any periodic axis: torus or channel) the free-space
group is the wrong one — there are no continuous rotations, translations act
modulo L on the periodic axes only, and centroids are not well defined mod L
— so passing ``domain=`` to :func:`align_snapshot` swaps in the
:class:`~repro.alignment.torus.TorusAligner`: samples stay in wrapped box
coordinates (instead of being centred) and are registered by mod-L
translation plus the admissible per-axis flips.  It takes the same stack and
registers its samples one after another.  Free and reflecting domains keep
the free-space path unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.alignment.icp import TypeAwareICP
from repro.alignment.torus import TorusAligner
from repro.particles.domain import Domain, get_domain

__all__ = [
    "center_configurations",
    "select_reference",
    "select_reference_wrapped",
    "align_snapshot",
    "SnapshotAlignment",
]


def center_configurations(positions: np.ndarray) -> np.ndarray:
    """Subtract the centroid of each configuration.

    Accepts a single configuration ``(n, 2)`` or any batch ``(..., n, 2)``;
    the centroid is taken over the particle axis.
    """
    positions = np.asarray(positions, dtype=float)
    if positions.ndim < 2 or positions.shape[-1] != 2:
        raise ValueError("positions must have shape (..., n, 2)")
    return positions - positions.mean(axis=-2, keepdims=True)


def _medoid_index(snapshot: np.ndarray, strategy: str, offsets) -> int:
    """Reference selection shared by both geometries.

    ``offsets`` maps the ``(m, n, 2)`` snapshot to every particle's offset
    from its sample's centroid; the medoid is the sample whose sorted radial
    profile has the smallest summed distance to all other samples' profiles.
    """
    snapshot = np.asarray(snapshot, dtype=float)
    if snapshot.ndim != 3 or snapshot.shape[-1] != 2:
        raise ValueError("snapshot must have shape (n_samples, n_particles, 2)")
    if strategy == "first":
        return 0
    if strategy != "medoid":
        raise ValueError(f"unknown reference strategy {strategy!r}")
    delta = offsets(snapshot)
    radii = np.sort(np.sqrt(np.einsum("mik,mik->mi", delta, delta)), axis=1)
    pairwise = np.abs(radii[:, None, :] - radii[None, :, :]).sum(axis=-1)
    return int(pairwise.sum(axis=1).argmin())


def select_reference(snapshot: np.ndarray, strategy: str = "medoid") -> int:
    """Choose the reference sample all others are aligned to.

    Strategies
    ----------
    ``"first"``
        Sample 0 (cheapest; what a streaming implementation would do).
    ``"medoid"``
        The sample whose centred configuration minimises the summed distance
        of its sorted radial profile to all other samples' profiles — a cheap
        rotation/permutation-insensitive proxy for "the most typical shape",
        which makes the subsequent ICP alignments smaller on average.
    """
    return _medoid_index(snapshot, strategy, center_configurations)


def select_reference_wrapped(
    snapshot: np.ndarray, domain: Domain, strategy: str = "medoid"
) -> int:
    """Reference selection on a wrapped domain (the mod-L medoid proxy).

    The free-space medoid compares sorted distance-to-centroid profiles, but
    a centroid is not well defined modulo L.  The wrapped analogue uses the
    per-axis *circular* mean on periodic axes (plain mean on reflecting
    ones) and measures radii with the domain's minimum-image metric — the
    profiles are invariant under the symmetries the torus aligner factors
    out, so the choice is as transformation-insensitive as the free-space
    one.
    """

    def offsets(snapshot: np.ndarray) -> np.ndarray:
        wrapped = domain.wrap(snapshot)
        centroids = np.empty((snapshot.shape[0], 2))
        for axis in range(2):
            column = wrapped[:, :, axis]
            side = domain.extents[axis]
            if domain.periodic_axes[axis]:
                angle = column * (2.0 * np.pi / side)
                mean_angle = np.arctan2(np.sin(angle).mean(axis=1), np.cos(angle).mean(axis=1))
                centroids[:, axis] = np.mod(mean_angle, 2.0 * np.pi) * (side / (2.0 * np.pi))
            else:
                centroids[:, axis] = column.mean(axis=1)
        return domain.displacement(wrapped, centroids[:, None, :])

    return _medoid_index(snapshot, strategy, offsets)


@dataclass(frozen=True)
class SnapshotAlignment:
    """Symmetry-reduced ensemble snapshot at one time step.

    Attributes
    ----------
    reduced:
        ``(n_samples, n_particles, 2)`` aligned, permutation-reduced
        coordinates (the ``w`` samples of the paper).
    reference_index:
        Which sample served as the alignment reference (``-1`` when an
        explicit reference configuration was given).
    rmse:
        Per-sample ICP residual against the reference.
    """

    reduced: np.ndarray
    reference_index: int
    rmse: np.ndarray


def align_snapshot(
    snapshot: np.ndarray,
    types: np.ndarray,
    *,
    icp: TypeAwareICP | None = None,
    reference: int | np.ndarray | None = None,
    reference_strategy: str = "medoid",
    domain: "Domain | str | None" = None,
) -> SnapshotAlignment:
    """Reduce one ensemble snapshot to its symmetry-factored representation.

    Parameters
    ----------
    snapshot:
        ``(n_samples, n_particles, 2)`` raw simulation output at one step.
    types:
        ``(n_particles,)`` shared type assignment.
    icp:
        Registration engine (defaults to :class:`TypeAwareICP` defaults).  On
        a wrapped domain its ``max_iterations``/``tolerance`` parameterise
        the torus aligner instead.
    reference:
        Either the index of the reference sample (in ``[0, n_samples)``), an
        explicit reference configuration of shape ``(n_particles, 2)``, or
        ``None`` to pick one with ``reference_strategy``.
    domain:
        The simulation domain the snapshot was produced on.  Any domain with
        a periodic axis switches to the mod-L torus reduction: samples are
        wrapped into box coordinates instead of centred (centroids are not
        well defined mod L) and registered by the
        :class:`~repro.alignment.torus.TorusAligner`.  Free/reflecting
        domains — and the default ``None`` — keep the free-space ``ISO+(2)``
        path unchanged.
    """
    snapshot = np.asarray(snapshot, dtype=float)
    types = np.asarray(types, dtype=int)
    if snapshot.ndim != 3 or snapshot.shape[-1] != 2:
        raise ValueError("snapshot must have shape (n_samples, n_particles, 2)")
    if types.shape != (snapshot.shape[1],):
        raise ValueError("types must have shape (n_particles,)")
    resolved = get_domain(domain)
    if resolved.bounded and any(resolved.periodic_axes):
        aligner = TorusAligner(
            domain=resolved,
            max_iterations=icp.max_iterations if icp is not None else 50,
            tolerance=icp.tolerance if icp is not None else 1e-6,
        )
        canonical = resolved.wrap
        samples = canonical(snapshot)
        if reference is None:
            reference = select_reference_wrapped(samples, resolved, reference_strategy)
    else:
        aligner = icp or TypeAwareICP()
        canonical = center_configurations
        samples = canonical(snapshot)
        if reference is None:
            reference = select_reference(samples, reference_strategy)

    n_samples = snapshot.shape[0]
    if isinstance(reference, (int, np.integer)):
        reference_index = int(reference)
        if not 0 <= reference_index < n_samples:
            raise ValueError(f"reference index {reference_index} is outside [0, {n_samples})")
        reference_config = samples[reference_index]
    else:
        reference_index = -1
        reference_config = canonical(np.asarray(reference, dtype=float))

    others = np.flatnonzero(np.arange(n_samples) != reference_index)
    result = aligner.align(samples[others], reference_config, types)
    reduced = np.empty_like(samples)
    # Reorder so that slot i of every reduced sample corresponds to reference
    # particle i: particle j of aligned sample s is stored at slot
    # correspondence[s, j].
    reduced[others[:, None], result.correspondence] = result.aligned
    rmse = np.zeros(n_samples)
    rmse[others] = result.rmse
    if reference_index >= 0:
        reduced[reference_index] = reference_config
    return SnapshotAlignment(reduced=reduced, reference_index=reference_index, rmse=rmse)
