"""Canonical representation of observer variables for the continuous estimators.

Every multivariate estimator in :mod:`repro.infotheory` accepts observers in
one of three equivalent forms and normalises them with
:func:`as_variable_list`:

* a list of ``(m, d_i)`` arrays — one array per observer, possibly with
  different dimensionalities,
* an ``(m, n)`` array of scalar observers (one column each), or
* an ``(m, n, d)`` array of identically-shaped vector observers — the natural
  layout for aligned particle ensembles, where ``d = 2``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["as_variable_list", "stack_variables"]


def as_variable_list(variables: list[np.ndarray] | tuple | np.ndarray) -> list[np.ndarray]:
    """Normalise observer input to a list of float ``(m, d_i)`` arrays.

    Raises if fewer than two observers are supplied (multi-information of a
    single variable is identically zero and almost always a caller bug) or if
    the sample counts disagree.
    """
    if isinstance(variables, np.ndarray):
        arr = np.asarray(variables, dtype=float)
        if arr.ndim == 2:
            var_list = [arr[:, i : i + 1] for i in range(arr.shape[1])]
        elif arr.ndim == 3:
            var_list = [arr[:, i, :] for i in range(arr.shape[1])]
        else:
            raise ValueError("array input must have shape (m, n) or (m, n, d)")
    else:
        var_list = [np.atleast_2d(np.asarray(v, dtype=float)) for v in variables]
    if len(var_list) < 2:
        raise ValueError("multi-information needs at least two observer variables")
    m = var_list[0].shape[0]
    for v in var_list:
        if v.ndim != 2:
            raise ValueError("each observer variable must be a 2-D array (m, d_i)")
        if v.shape[0] != m:
            raise ValueError("all observer variables must have the same number of samples")
    if m < 2:
        raise ValueError("at least two samples are required")
    return var_list


def stack_variables(var_list: list[np.ndarray]) -> np.ndarray:
    """Concatenate observer variables into the joint sample matrix ``(m, Σ d_i)``."""
    return np.concatenate([np.asarray(v, dtype=float) for v in var_list], axis=1)
