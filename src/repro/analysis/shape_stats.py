"""Geometric shape statistics of particle configurations.

These quantities support the qualitative figures of the paper: the regular
disc/grid equilibria of Fig. 3, the shape categories of Fig. 6, the
concentric-ring structure of Figs. 5/7 and the layered/enclosed morphologies
of Fig. 12.  They are deliberately simple, deterministic descriptors so that
the benchmark harness can report numbers instead of pictures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.particles.forces import pairwise_distance_matrix

__all__ = [
    "radius_of_gyration",
    "nearest_neighbor_distances",
    "radial_profile",
    "detect_concentric_rings",
    "RingReport",
    "type_radial_ordering",
    "type_segregation_index",
    "per_particle_dispersion",
]


def radius_of_gyration(positions: np.ndarray) -> float | np.ndarray:
    """Root-mean-square distance of particles from their centroid.

    Accepts ``(n, 2)`` or a batch ``(..., n, 2)``; returns a scalar or an
    array over the leading axes.
    """
    positions = np.asarray(positions, dtype=float)
    centered = positions - positions.mean(axis=-2, keepdims=True)
    rg = np.sqrt(np.einsum("...ik,...ik->...i", centered, centered).mean(axis=-1))
    return float(rg) if rg.ndim == 0 else rg


def nearest_neighbor_distances(positions: np.ndarray) -> np.ndarray:
    """Distance of every particle to its nearest neighbour, shape ``(n,)``."""
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ValueError("positions must have shape (n, 2)")
    if positions.shape[0] < 2:
        raise ValueError("need at least two particles")
    dist = pairwise_distance_matrix(positions)
    np.fill_diagonal(dist, np.inf)
    return dist.min(axis=1)


def radial_profile(positions: np.ndarray) -> np.ndarray:
    """Sorted distances of the particles from the collective centroid."""
    positions = np.asarray(positions, dtype=float)
    centered = positions - positions.mean(axis=0)
    return np.sort(np.sqrt(np.einsum("ik,ik->i", centered, centered)))


@dataclass(frozen=True)
class RingReport:
    """Result of :func:`detect_concentric_rings`.

    Attributes
    ----------
    n_rings:
        Number of detected concentric rings (radial clusters).
    ring_radii:
        Mean radius of each ring, ascending.
    ring_sizes:
        Number of particles per ring.
    separation_score:
        Gap between rings relative to the within-ring radial spread (larger
        = cleaner ring structure).  Zero when only one ring is found.
    """

    n_rings: int
    ring_radii: tuple[float, ...]
    ring_sizes: tuple[int, ...]
    separation_score: float


def detect_concentric_rings(
    positions: np.ndarray,
    *,
    max_rings: int = 3,
    min_gap_ratio: float = 1.5,
) -> RingReport:
    """Detect concentric-ring structure (Fig. 7's double polygon) from radial gaps.

    The sorted radial profile is split at gaps that exceed ``min_gap_ratio``
    times the median radial increment; each resulting segment is one ring.
    """
    radii = radial_profile(positions)
    n = radii.size
    if n < 4:
        return RingReport(1, (float(radii.mean()),), (n,), 0.0)
    increments = np.diff(radii)
    median_inc = max(float(np.median(increments)), 1e-12)
    split_points = np.nonzero(increments > min_gap_ratio * median_inc)[0]
    # Keep the largest gaps only, bounded by max_rings - 1 splits.
    if split_points.size > max_rings - 1:
        largest = np.argsort(increments[split_points])[::-1][: max_rings - 1]
        split_points = np.sort(split_points[largest])
    segments = np.split(radii, split_points + 1)
    segments = [seg for seg in segments if seg.size > 0]
    ring_radii = tuple(float(seg.mean()) for seg in segments)
    ring_sizes = tuple(int(seg.size) for seg in segments)
    if len(segments) < 2:
        return RingReport(1, ring_radii, ring_sizes, 0.0)
    within = max(float(np.mean([seg.std() for seg in segments])), 1e-12)
    gaps = np.diff([seg.mean() for seg in segments])
    score = float(np.min(gaps) / within)
    return RingReport(len(segments), ring_radii, ring_sizes, score)


def type_radial_ordering(positions: np.ndarray, types: np.ndarray) -> dict[int, float]:
    """Mean distance from the centroid per type — detects layered (onion) structures.

    A strongly layered configuration (Fig. 12) has clearly separated per-type
    mean radii; a mixed configuration has similar values for all types.
    """
    positions = np.asarray(positions, dtype=float)
    types = np.asarray(types, dtype=int)
    centered = positions - positions.mean(axis=0)
    radii = np.sqrt(np.einsum("ik,ik->i", centered, centered))
    return {int(t): float(radii[types == t].mean()) for t in np.unique(types)}


def type_segregation_index(positions: np.ndarray, types: np.ndarray, *, k: int = 3) -> float:
    """Fraction of same-type particles among each particle's k nearest neighbours.

    1.0 means perfectly sorted (each particle surrounded by its own type),
    while the expected value for a random mixture equals the type frequency.
    Used to quantify the differential-adhesion sorting of Figs. 1/12.
    """
    positions = np.asarray(positions, dtype=float)
    types = np.asarray(types, dtype=int)
    n = positions.shape[0]
    if n <= k:
        raise ValueError("need more particles than neighbours k")
    dist = pairwise_distance_matrix(positions)
    np.fill_diagonal(dist, np.inf)
    neighbor_idx = np.argpartition(dist, kth=k - 1, axis=1)[:, :k]
    same = types[neighbor_idx] == types[:, None]
    return float(same.mean())


def per_particle_dispersion(aligned_snapshot: np.ndarray) -> np.ndarray:
    """Across-sample positional spread of each aligned particle slot (Fig. 7).

    ``aligned_snapshot`` is the symmetry-reduced ensemble snapshot
    ``(n_samples, n_particles, 2)``; the result is the per-slot RMS deviation
    from the slot's mean position.  Tight outer-ring slots have small values,
    the rotationally-free inner ring has large ones.
    """
    aligned = np.asarray(aligned_snapshot, dtype=float)
    if aligned.ndim != 3 or aligned.shape[-1] != 2:
        raise ValueError("aligned_snapshot must have shape (n_samples, n_particles, 2)")
    mean = aligned.mean(axis=0, keepdims=True)
    delta = aligned - mean
    return np.sqrt(np.einsum("mik,mik->mi", delta, delta).mean(axis=0))
