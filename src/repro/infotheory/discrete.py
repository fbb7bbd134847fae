"""Discrete information theory on explicit probability tables.

These are the textbook quantities of §2 (entropy, mutual information,
multi-information) computed exactly from discrete distributions.  They serve
two purposes: as the reference implementation that the continuous estimators
are validated against on discretised data, and as the vocabulary for the
decomposition identities of §3.1, which hold exactly in the discrete case.

All quantities are measured in bits (base-2 logarithms).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "entropy",
    "joint_entropy",
    "multi_information",
    "entropy_from_counts",
    "multi_information_from_samples",
    "marginal_distribution",
]

_EPS = 1e-15


def _validate_distribution(p: np.ndarray, *, normalize: bool) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if np.any(p < -1e-12):
        raise ValueError("probabilities must be non-negative")
    p = np.clip(p, 0.0, None)
    total = p.sum()
    if total <= 0:
        raise ValueError("distribution must have positive mass")
    if normalize:
        return p / total
    if not np.isclose(total, 1.0, atol=1e-8):
        raise ValueError(f"distribution must sum to 1 (got {total}); pass normalize=True to rescale")
    return p


def entropy(p: np.ndarray, *, normalize: bool = False) -> float:
    """Shannon entropy ``H(X) = -Σ p log2 p`` of a distribution (any shape)."""
    p = _validate_distribution(p, normalize=normalize)
    nz = p[p > _EPS]
    return float(-(nz * np.log2(nz)).sum())


def joint_entropy(joint: np.ndarray, *, normalize: bool = False) -> float:
    """Entropy of a joint distribution given as an n-dimensional table."""
    return entropy(joint, normalize=normalize)


def marginal_distribution(joint: np.ndarray, axis: int) -> np.ndarray:
    """Marginal of one variable of a joint table (sum over all other axes)."""
    joint = np.asarray(joint, dtype=float)
    axes = tuple(i for i in range(joint.ndim) if i != axis)
    return joint.sum(axis=axes)


def multi_information(joint: np.ndarray, *, normalize: bool = False) -> float:
    """Multi-information ``I(X_1, …, X_n) = Σ H(X_i) - H(X_1, …, X_n)`` (Eq. 3)."""
    joint = _validate_distribution(joint, normalize=normalize)
    marginal_sum = sum(entropy(marginal_distribution(joint, axis)) for axis in range(joint.ndim))
    return float(marginal_sum - joint_entropy(joint))


def entropy_from_counts(counts: np.ndarray) -> float:
    """Plug-in (maximum-likelihood) entropy of empirical counts."""
    counts = np.asarray(counts, dtype=float)
    if np.any(counts < 0):
        raise ValueError("counts must be non-negative")
    return entropy(counts, normalize=True)


def multi_information_from_samples(samples: np.ndarray) -> float:
    """Exact plug-in multi-information of discrete samples.

    ``samples`` has shape ``(n_samples, n_variables)`` with integer-valued
    (or otherwise hashable) entries.  The empirical joint distribution is
    built from the observed tuples; marginals follow by projection.  This is
    the exact discrete counterpart of what the KSG estimator approximates for
    continuous observers.
    """
    samples = np.asarray(samples)
    if samples.ndim != 2:
        raise ValueError("samples must have shape (n_samples, n_variables)")
    n_samples, n_variables = samples.shape
    if n_samples == 0:
        raise ValueError("at least one sample is required")

    _joint_values, joint_counts = np.unique(samples, axis=0, return_counts=True)
    joint_h = entropy_from_counts(joint_counts)
    marginal_h = 0.0
    for column in range(n_variables):
        _values, counts = np.unique(samples[:, column], return_counts=True)
        marginal_h += entropy_from_counts(counts)
    return float(marginal_h - joint_h)
