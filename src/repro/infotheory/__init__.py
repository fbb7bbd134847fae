"""Information-theoretic estimators used to quantify self-organization.

Contains the discrete reference implementations (§2), the continuous
estimators compared in §5.3 — KSG (the paper's choice), Gaussian-KDE and
binned/James–Stein baselines — the Kozachenko–Leonenko entropy estimator used
for the entropy-over-time diagnostics, and the coarse-grained decomposition
of multi-information (§3.1).
"""

from repro.infotheory.discrete import (
    entropy,
    entropy_from_counts,
    joint_entropy,
    marginal_distribution,
    multi_information,
    multi_information_from_samples,
)
from repro.infotheory.variables import as_variable_list, stack_variables
from repro.infotheory.histograms import (
    discretize,
    histogram_multi_information,
    js_shrinkage_probabilities,
)
from repro.infotheory.kde import kde_entropy, kde_multi_information
from repro.infotheory.knn import (
    ESTIMATOR_BACKENDS,
    KDTREE_MIN_SAMPLES,
    EuclideanBallCounter,
    ProductMetricTree,
    kozachenko_leonenko_entropy,
    kth_neighbor_distances,
    resolve_estimator_backend,
)
from repro.infotheory.ksg import ksg_multi_information
from repro.infotheory.transfer import (
    conditional_mutual_information,
    embed_history,
    time_lagged_mutual_information,
    transfer_entropy,
)
from repro.infotheory.decomposition import (
    DecompositionResult,
    decompose_multi_information,
    groups_from_labels,
    validate_groups,
)

__all__ = [
    "entropy",
    "joint_entropy",
    "multi_information",
    "multi_information_from_samples",
    "marginal_distribution",
    "entropy_from_counts",
    "as_variable_list",
    "stack_variables",
    "discretize",
    "histogram_multi_information",
    "js_shrinkage_probabilities",
    "kde_entropy",
    "kde_multi_information",
    "kth_neighbor_distances",
    "kozachenko_leonenko_entropy",
    "ESTIMATOR_BACKENDS",
    "KDTREE_MIN_SAMPLES",
    "resolve_estimator_backend",
    "ProductMetricTree",
    "EuclideanBallCounter",
    "ksg_multi_information",
    "conditional_mutual_information",
    "time_lagged_mutual_information",
    "transfer_entropy",
    "embed_history",
    "DecompositionResult",
    "decompose_multi_information",
    "groups_from_labels",
    "validate_groups",
]
