"""Decomposition of multi-information over coarse-grained observers.

Grouping observers ``X_1, …, X_n`` into coarse-grained joint observers
``X̃_1, …, X̃_k`` decomposes the total multi-information (Eqs. 4–5):

.. math::

    I(X_1, …, X_n) = I(X̃_1, …, X̃_k) + \\sum_{j=1}^{k} I(X_{i \\in G_j})

i.e. one *between-group* term plus one *within-group* term per group
(singleton groups contribute zero).  The identity is exact for the true
distributions; with finite-sample estimators the two sides only agree
approximately, which is why :class:`DecompositionResult` keeps the separately
estimated total alongside the sum of the parts.

The paper groups particles by type (§6.1.1, Fig. 11) and asks which groups —
or the interaction *between* types — dominate the organization process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.infotheory.ksg import ksg_multi_information
from repro.infotheory.variables import as_variable_list, stack_variables

__all__ = [
    "DecompositionResult",
    "decompose_multi_information",
    "groups_from_labels",
    "validate_groups",
]

EstimatorFn = Callable[[list[np.ndarray]], float]


def groups_from_labels(labels: Sequence[int] | np.ndarray) -> list[list[int]]:
    """Build observer groups from per-observer labels (e.g. particle types).

    Observers sharing a label end up in the same group; groups are ordered by
    ascending label so "group j" corresponds to "type j" when labels are the
    particle types.
    """
    labels = np.asarray(labels, dtype=int)
    if labels.ndim != 1 or labels.size == 0:
        raise ValueError("labels must be a non-empty 1-D sequence")
    return [np.nonzero(labels == value)[0].tolist() for value in np.unique(labels)]


def validate_groups(groups: Sequence[Sequence[int]], n_variables: int) -> list[list[int]]:
    """Check that ``groups`` is a partition of ``range(n_variables)``."""
    flat: list[int] = []
    cleaned: list[list[int]] = []
    for group in groups:
        members = [int(i) for i in group]
        if len(members) == 0:
            raise ValueError("groups must be non-empty")
        cleaned.append(members)
        flat.extend(members)
    if sorted(flat) != list(range(n_variables)):
        raise ValueError(
            f"groups must partition the {n_variables} observer variables exactly once each"
        )
    return cleaned


@dataclass(frozen=True)
class DecompositionResult:
    """Result of :func:`decompose_multi_information` (all values in bits).

    Attributes
    ----------
    total:
        Multi-information between all fine-grained observers, estimated
        directly.
    between_groups:
        Multi-information between the coarse-grained joint observers.
    within_groups:
        One value per group: the multi-information among the group's members
        (zero for singleton groups).
    groups:
        The observer index partition that was analysed.
    """

    total: float
    between_groups: float
    within_groups: tuple[float, ...]
    groups: tuple[tuple[int, ...], ...]

    def normalized_contributions(self) -> dict[str, float]:
        """Each term divided by the directly estimated total (Fig. 11's normalisation).

        Returns zeros when the total is not positive (nothing to attribute).
        """
        if self.total <= 0:
            contributions = {"between": 0.0}
            contributions.update({f"within_{j}": 0.0 for j in range(len(self.within_groups))})
            return contributions
        contributions = {"between": self.between_groups / self.total}
        for j, value in enumerate(self.within_groups):
            contributions[f"within_{j}"] = value / self.total
        return contributions

    def to_dict(self) -> dict:
        """JSON-serialisable representation (used by the measurement round-trip)."""
        return {
            "total": float(self.total),
            "between_groups": float(self.between_groups),
            "within_groups": [float(v) for v in self.within_groups],
            "groups": [list(group) for group in self.groups],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DecompositionResult":
        """Inverse of :meth:`to_dict`."""
        return cls(
            total=float(data["total"]),
            between_groups=float(data["between_groups"]),
            within_groups=tuple(float(v) for v in data["within_groups"]),
            groups=tuple(tuple(int(i) for i in group) for group in data["groups"]),
        )


def decompose_multi_information(
    variables: list[np.ndarray] | np.ndarray,
    groups: Sequence[Sequence[int]],
    *,
    estimator: EstimatorFn | None = None,
    k: int = 5,
) -> DecompositionResult:
    """Estimate the coarse-grained decomposition of the multi-information.

    Parameters
    ----------
    variables:
        Observer samples in any form accepted by the estimators.
    groups:
        Partition of the observer indices into coarse-grained groups (e.g.
        from :func:`groups_from_labels` applied to particle types).
    estimator:
        Callable mapping a list of ``(m, d_i)`` observer arrays to a scalar
        multi-information in bits.  Defaults to the KSG estimator with the
        given ``k``.
    """
    var_list = as_variable_list(variables)
    groups = validate_groups(groups, len(var_list))
    if estimator is None:
        estimator = lambda vs: ksg_multi_information(vs, k=k)  # noqa: E731

    total = float(estimator(var_list))

    coarse_vars = [stack_variables([var_list[i] for i in group]) for group in groups]
    if len(coarse_vars) >= 2:
        between = float(estimator(coarse_vars))
    else:
        between = 0.0

    within: list[float] = []
    for group in groups:
        if len(group) < 2:
            within.append(0.0)
            continue
        within.append(float(estimator([var_list[i] for i in group])))

    return DecompositionResult(
        total=total,
        between_groups=between,
        within_groups=tuple(within),
        groups=tuple(tuple(g) for g in groups),
    )
