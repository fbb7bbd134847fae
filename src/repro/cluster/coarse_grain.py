"""Cluster-mean coarse-graining of particle observers (§5.3.1).

For collectives larger than ~60 particles the paper replaces the ``n``
per-particle observers with ``l · k`` cluster-mean observers: the particles of
each type are clustered with k-means and the cluster means
``Ŵ_1, …, Ŵ_{l·k}`` become the observer variables.  The multi-information of
these derived variables approximates (from below, modulo clustering
artefacts) the multi-information of the full observer set.

The subtlety is correspondence *across samples*: "cluster 2 of type 1" has to
denote comparable parts of the shape in every ensemble sample, otherwise the
estimator sees permutation noise.  Samples are assumed to be symmetry-reduced
(aligned) already; within each type, every sample's cluster centres are then
matched one-to-one to the centres of a reference sample with the assignment
correspondence, exactly as individual particles are matched during the
permutation reduction.

Clustering makes one call per type: every (sample, restart) fit of the type
runs in lockstep in :mod:`repro.cluster.kmeans`'s batched kernel, bitwise
equal to one ``kmeans`` call per sample, generator state included.  The
matching to the reference sample (one small assignment problem per sample)
loops over samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from repro.cluster.kmeans import _kmeans_stack
from repro.parallel.rng import as_generator

__all__ = ["CoarseGrainedObservers", "coarse_grain_snapshot", "clusters_per_type"]


def clusters_per_type(n_particles_of_type: int, requested: int) -> int:
    """Clamp the requested cluster count to the number of particles available."""
    if requested <= 0:
        raise ValueError("requested cluster count must be positive")
    return int(min(requested, n_particles_of_type))


@dataclass(frozen=True)
class CoarseGrainedObservers:
    """Cluster-mean observer variables derived from one ensemble snapshot.

    Attributes
    ----------
    means:
        ``(n_samples, n_observers, 2)`` cluster-mean coordinates; the observer
        axis enumerates (type 0 cluster 0, type 0 cluster 1, …, type 1
        cluster 0, …).
    observer_types:
        ``(n_observers,)`` type of each coarse observer.
    n_clusters_per_type:
        How many clusters each type contributed.
    """

    means: np.ndarray
    observer_types: np.ndarray
    n_clusters_per_type: tuple[int, ...]

    @property
    def n_observers(self) -> int:
        return int(self.means.shape[1])


def _match_to_reference(centers: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Permutation aligning ``centers`` to ``reference`` (minimal squared distance)."""
    delta = centers[:, None, :] - reference[None, :, :]
    cost = np.einsum("ijk,ijk->ij", delta, delta)
    rows, cols = linear_sum_assignment(cost)
    perm = np.empty(centers.shape[0], dtype=int)
    perm[cols] = rows
    return perm


def coarse_grain_snapshot(
    snapshot: np.ndarray,
    types: np.ndarray,
    n_clusters: int,
    *,
    rng: np.random.Generator | int | None = None,
    reference_sample: int = 0,
    n_init: int = 2,
) -> CoarseGrainedObservers:
    """Compute cluster-mean observers for an aligned ensemble snapshot.

    Parameters
    ----------
    snapshot:
        ``(n_samples, n_particles, 2)`` symmetry-reduced configurations.
    types:
        ``(n_particles,)`` type assignment shared by all samples.
    n_clusters:
        Requested clusters per type (clamped to the type's particle count).
    reference_sample:
        Sample whose cluster centres define the canonical observer ordering.
    n_init:
        k-means++ restarts per sample and type; the lowest inertia wins.

    Raises ``ValueError`` if any position is NaN or infinite.
    """
    snapshot = np.asarray(snapshot, dtype=float)
    types = np.asarray(types, dtype=int)
    if snapshot.ndim != 3 or snapshot.shape[-1] != 2:
        raise ValueError("snapshot must have shape (n_samples, n_particles, 2)")
    if types.shape != (snapshot.shape[1],):
        raise ValueError("types must have shape (n_particles,)")
    if not 0 <= reference_sample < snapshot.shape[0]:
        raise ValueError("reference_sample out of range")
    if not np.isfinite(snapshot).all():
        raise ValueError("snapshot must be finite (no NaN or infinite positions)")
    rng = as_generator(rng)

    unique_types = np.unique(types)
    per_type_counts: list[int] = []
    observer_types: list[int] = []
    blocks: list[np.ndarray] = []  # each (n_samples, k_t, 2)

    for type_id in unique_types:
        idx = np.nonzero(types == type_id)[0]
        k_t = clusters_per_type(idx.size, n_clusters)
        per_type_counts.append(k_t)
        observer_types.extend([int(type_id)] * k_t)

        centers_per_sample = _kmeans_stack(snapshot[:, idx], k_t, rng, n_init=n_init)[0]
        reference_centers = centers_per_sample[reference_sample]
        for m in range(snapshot.shape[0]):
            if m == reference_sample:
                continue
            perm = _match_to_reference(centers_per_sample[m], reference_centers)
            centers_per_sample[m] = centers_per_sample[m][perm]
        blocks.append(centers_per_sample)

    means = np.concatenate(blocks, axis=1)
    return CoarseGrainedObservers(
        means=means,
        observer_types=np.asarray(observer_types, dtype=int),
        n_clusters_per_type=tuple(per_type_counts),
    )
