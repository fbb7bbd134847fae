"""Shape, order and dispersion statistics supporting the qualitative figures."""

from repro.analysis.shape_stats import (
    RingReport,
    detect_concentric_rings,
    nearest_neighbor_distances,
    per_particle_dispersion,
    radial_profile,
    radius_of_gyration,
    type_radial_ordering,
    type_segregation_index,
)
from repro.analysis.order_params import cluster_sizes, contact_graph, hexatic_order, n_clusters
from repro.analysis.information_dynamics import (
    net_information_flow,
    pairwise_lagged_mutual_information,
    pairwise_transfer_entropy,
    particle_series,
)

__all__ = [
    "radius_of_gyration",
    "nearest_neighbor_distances",
    "radial_profile",
    "detect_concentric_rings",
    "RingReport",
    "type_radial_ordering",
    "type_segregation_index",
    "per_particle_dispersion",
    "hexatic_order",
    "contact_graph",
    "cluster_sizes",
    "n_clusters",
    "particle_series",
    "pairwise_transfer_entropy",
    "pairwise_lagged_mutual_information",
    "net_information_flow",
]
