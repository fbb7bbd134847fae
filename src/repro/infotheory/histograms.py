"""Binned (histogram) multi-information estimator.

The paper compares the KSG estimator against a "shrinkage type binning
estimator" (James–Stein shrinkage of the cell probabilities, Hausser &
Strimmer 2009) and finds that binning badly over-estimates multi-information
in high dimension because the sampling is sparse (§5.3).  Both the plain
plug-in histogram estimator and the shrinkage variant are implemented here so
that comparison can be reproduced (see ``benchmarks`` and the estimator
ablation tests).
"""

from __future__ import annotations

import numpy as np

from repro.infotheory.discrete import entropy_from_counts
from repro.infotheory.variables import as_variable_list

__all__ = [
    "discretize",
    "histogram_multi_information",
    "js_shrinkage_probabilities",
]


def discretize(
    samples: np.ndarray,
    n_bins: int,
    *,
    ranges: tuple[float, float] | None = None,
) -> np.ndarray:
    """Map continuous samples ``(m, d)`` to integer bin indices ``(m, d)``.

    Each dimension is binned independently into ``n_bins`` equal-width bins
    over its own observed range (or an explicit common ``ranges`` tuple).
    The highest edge is inclusive so the maximum lands in the last bin.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if n_bins <= 0:
        raise ValueError("n_bins must be positive")
    m, d = samples.shape
    out = np.empty((m, d), dtype=int)
    for column in range(d):
        x = samples[:, column]
        lo, hi = (x.min(), x.max()) if ranges is None else ranges
        if hi <= lo:
            out[:, column] = 0
            continue
        edges = np.linspace(lo, hi, n_bins + 1)
        idx = np.digitize(x, edges[1:-1], right=False)
        out[:, column] = idx
    return out


def js_shrinkage_probabilities(counts: np.ndarray, target: np.ndarray | None = None) -> np.ndarray:
    """James–Stein shrinkage estimate of cell probabilities.

    Shrinks the maximum-likelihood frequencies towards a target distribution
    (uniform by default) with the analytically optimal shrinkage intensity
    (Hausser & Strimmer 2009).  Returns a proper probability vector.
    """
    counts = np.asarray(counts, dtype=float).ravel()
    if np.any(counts < 0):
        raise ValueError("counts must be non-negative")
    n = counts.sum()
    if n <= 0:
        raise ValueError("counts must have positive total")
    p_ml = counts / n
    cells = counts.size
    if target is None:
        target = np.full(cells, 1.0 / cells)
    else:
        target = np.asarray(target, dtype=float)
        if target.shape != (cells,):
            raise ValueError("target must match the number of cells")
    if n <= 1:
        return target.copy()
    variance = p_ml * (1.0 - p_ml) / (n - 1)
    misfit = np.sum((target - p_ml) ** 2)
    if misfit <= 0:
        return p_ml
    intensity = float(np.clip(variance.sum() / misfit, 0.0, 1.0))
    return intensity * target + (1.0 - intensity) * p_ml


def histogram_multi_information(
    variables: list[np.ndarray] | np.ndarray,
    n_bins: int = 8,
    *,
    shrinkage: bool = False,
) -> float:
    """Binned multi-information ``Σ H(X_i) - H(X_1, …, X_n)``.

    ``variables`` is a list of ``(m, d_i)`` arrays (one per observer) or an
    ``(m, n, d)`` array of identically-shaped observers.  Marginal and joint
    entropies use the same per-dimension binning so the differential-entropy
    offsets cancel exactly.
    """
    var_list = as_variable_list(variables)
    joint = np.concatenate(var_list, axis=1)
    joint_binned = discretize(joint, n_bins)
    offset = 0
    marginal_sum = 0.0
    for var in var_list:
        width = var.shape[1]
        block = joint_binned[:, offset : offset + width]
        _cells, counts = np.unique(block, axis=0, return_counts=True)
        if shrinkage:
            total_cells = n_bins**width
            full = np.zeros(total_cells)
            full[: counts.size] = counts
            probs = js_shrinkage_probabilities(full)
            nz = probs[probs > 0]
            marginal_sum += float(-(nz * np.log2(nz)).sum())
        else:
            marginal_sum += entropy_from_counts(counts)
        offset += width
    _cells, joint_counts = np.unique(joint_binned, axis=0, return_counts=True)
    if shrinkage:
        total_cells = min(n_bins ** joint.shape[1], 10_000_000)
        full = np.zeros(total_cells)
        full[: joint_counts.size] = joint_counts
        probs = js_shrinkage_probabilities(full)
        nz = probs[probs > 0]
        joint_h = float(-(nz * np.log2(nz)).sum())
    else:
        joint_h = entropy_from_counts(joint_counts)
    return float(marginal_sum - joint_h)
