"""Clustering substrate: k-means and the cluster-mean observer reduction (§5.3.1)."""

from repro.cluster.kmeans import KMeansResult, kmeans
from repro.cluster.coarse_grain import (
    CoarseGrainedObservers,
    clusters_per_type,
    coarse_grain_snapshot,
)

__all__ = [
    "KMeansResult",
    "kmeans",
    "CoarseGrainedObservers",
    "coarse_grain_snapshot",
    "clusters_per_type",
]
