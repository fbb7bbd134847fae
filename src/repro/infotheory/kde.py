"""Kernel-density (Gaussian KDE) entropy and multi-information estimators.

The paper reports comparing the KSG estimator against a kernel-based approach
and finding it "multiple orders of magnitude slower" with larger variance in
high dimension (§5.3).  The resubstitution KDE estimator here lets that
comparison be reproduced: differential entropies of the joint and the
marginals are estimated with Gaussian kernels (Scott's-rule bandwidth via
:class:`scipy.stats.gaussian_kde`) and combined into a multi-information.

``scipy.stats`` is imported when the first KDE is built, not with this
module: it is about 0.45 s and 21 MB of a fresh process's start-up, and this
baseline is its only user.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.infotheory.variables import as_variable_list, stack_variables

__all__ = ["kde_entropy", "kde_multi_information"]

_LN2 = float(np.log(2.0))

if TYPE_CHECKING:  # pragma: no cover - typing only
    from scipy.stats import gaussian_kde


def _kde(samples: np.ndarray, bandwidth: str | float) -> "gaussian_kde":
    from scipy.stats import gaussian_kde

    # gaussian_kde expects (d, m); add a tiny jitter-free regularisation path
    # for degenerate (constant) dimensions by falling back to a small bandwidth.
    data = np.atleast_2d(np.asarray(samples, dtype=float)).T
    try:
        return gaussian_kde(data, bw_method=bandwidth)
    except np.linalg.LinAlgError:
        jitter = 1e-9 * np.random.default_rng(0).standard_normal(data.shape)
        return gaussian_kde(data + jitter, bw_method=bandwidth)


def kde_entropy(samples: np.ndarray, *, bandwidth: str | float = "scott") -> float:
    """Resubstitution estimate of the differential entropy, in bits.

    ``h(X) ≈ -(1/m) Σ_i log p̂(x_i)`` with ``p̂`` the Gaussian KDE fitted on
    the same samples.  Known to be biased low for small samples; adequate as
    the comparison baseline the paper refers to.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if samples.shape[0] < 3:
        raise ValueError("kde_entropy needs at least 3 samples")
    kde = _kde(samples, bandwidth)
    density = np.maximum(kde(samples.T), 1e-300)
    return float(-np.mean(np.log(density)) / _LN2)


def kde_multi_information(
    variables: list[np.ndarray] | np.ndarray,
    *,
    bandwidth: str | float = "scott",
) -> float:
    """KDE estimate of ``I(W_1, …, W_n) = Σ h(W_i) - h(W_1, …, W_n)`` in bits."""
    var_list = as_variable_list(variables)
    joint = stack_variables(var_list)
    marginal_sum = sum(kde_entropy(v, bandwidth=bandwidth) for v in var_list)
    return float(marginal_sum - kde_entropy(joint, bandwidth=bandwidth))
