"""Force-scaling functions and vectorised drift evaluation.

The equation of motion (Harder & Polani 2012, Eq. 6) is the overdamped SDE

.. math::

    \\dot z_i = \\sum_{j \\in N_{r_c}(i)} -F_{\\alpha\\beta}(\\lVert\\Delta z_{ij}\\rVert_2)\\,\\Delta z_{ij} + w

with ``Δz_ij = z_i - z_j``, additive white Gaussian noise ``w`` and a hard
interaction cut-off at radius ``r_c``.  Two force-scaling functions are used:

* ``F1`` (Eq. 7): ``k (1 - r / x)`` — strong long-range attraction, diverging
  short-range repulsion, preferred distance exactly ``r``.
* ``F2`` (Eq. 8): ``k (σ^{-2} e^{-x²/(2σ)} - e^{-x²/(2τ)})`` — Gaussian
  attraction/repulsion pair with finite range.

Because the velocity contribution is ``-F(x) Δz`` (the displacement vector is
*not* normalised), positive ``F`` pulls particles together and negative ``F``
pushes them apart, with a magnitude that also grows with distance.

Two drift kernels operate on these scalings: the dense all-pairs broadcast
(:func:`drift_single` / :func:`drift_batch`) and the sparse neighbour-pair
segment-sum :func:`repro.particles.engine.sparse_drift_batch` — the one
sparse accumulation path, which single configurations reach as a batch of
one.  Which kernel runs is selected per experiment via
``SimulationConfig.engine`` (``"dense"``/``"sparse"``/``"auto"`` — adaptive
by default, re-resolved mid-run as the collective contracts); the sparse
kernel consumes the per-pair weights produced by
:func:`pair_interaction_weights`, and the two agree bit-for-bit (see the
bit-compatibility contract and the "Choosing an engine/backend" guide in
:mod:`repro.particles.engine`).

Both kernels take an optional :class:`~repro.particles.domain.Domain`: the
displacement ``Δz_ij`` goes through ``domain.displacement()``, which applies
the minimum image *per periodic axis* (every axis on a torus, only ``x`` in
a channel, with per-axis lengths on anisotropic boxes) and plain
subtraction on the free plane
and in a reflecting box.
"""

from __future__ import annotations

import abc
from typing import Mapping

import numpy as np

from repro.particles.domain import Domain, get_domain
from repro.particles.types import InteractionParams

__all__ = [
    "ForceScaling",
    "LinearAdhesionForce",
    "GaussianAdhesionForce",
    "get_force_scaling",
    "FORCE_SCALINGS",
    "pairwise_distance_matrix",
    "pair_interaction_weights",
    "drift_single",
    "drift_batch",
    "net_force_norms",
    "preferred_distance_curve",
]

#: Numerical floor on pairwise distances to keep ``F1``'s ``r/x`` term finite
#: when two particles coincide (measure-zero event but reachable numerically).
_DISTANCE_FLOOR = 1e-9


class ForceScaling(abc.ABC):
    """Scalar force-scaling function ``F_{αβ}(x)`` evaluated element-wise."""

    #: Short identifier used in configs ("F1", "F2").
    name: str = ""

    @abc.abstractmethod
    def scale(
        self,
        distance: np.ndarray,
        k: np.ndarray,
        r: np.ndarray,
        sigma: np.ndarray,
        tau: np.ndarray,
    ) -> np.ndarray:
        """Evaluate the scaling on broadcastable arrays of distances/parameters."""

    def __call__(self, distance, k, r, sigma, tau) -> np.ndarray:
        return self.scale(
            np.asarray(distance, dtype=float),
            np.asarray(k, dtype=float),
            np.asarray(r, dtype=float),
            np.asarray(sigma, dtype=float),
            np.asarray(tau, dtype=float),
        )

    def preferred_distance(self, k: float, r: float, sigma: float, tau: float) -> float:
        """Distance at which the scaling changes sign (zero crossing).

        For ``F1`` this is exactly ``r``; for ``F2`` it is found numerically
        on a fine grid (the analytic zero of Eq. 8 is
        ``x* = sqrt(2 ln(σ²) στ/(σ - τ))`` only when it exists).
        """
        xs = np.linspace(1e-3, 50.0, 20000)
        vals = self(xs, k, r, sigma, tau)
        sign_change = np.nonzero(np.diff(np.sign(vals)) != 0)[0]
        if sign_change.size == 0:
            return float("nan")
        i = sign_change[0]
        # Linear interpolation of the crossing.
        x0, x1 = xs[i], xs[i + 1]
        y0, y1 = vals[i], vals[i + 1]
        if y1 == y0:
            return float(x0)
        return float(x0 - y0 * (x1 - x0) / (y1 - y0))

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}()"


class LinearAdhesionForce(ForceScaling):
    """``F1(x) = k (1 - r/x)`` — Eq. 7.

    Attraction saturates at ``k`` for large distances (until the cut-off) and
    the repulsion diverges as ``x → 0``, so the preferred distance ``r`` is a
    stiff minimum.
    """

    name = "F1"

    def scale(self, distance, k, r, sigma, tau) -> np.ndarray:
        safe = np.maximum(distance, _DISTANCE_FLOOR)
        return k * (1.0 - r / safe)


class GaussianAdhesionForce(ForceScaling):
    """``F2(x) = k (σ^{-2} exp(-x²/(2σ)) - exp(-x²/(2τ)))`` — Eq. 8.

    Both terms decay with distance, so interactions are effectively local even
    without a cut-off; the paper notes this makes ``F2`` collectives behave
    like locally-interacting systems.
    """

    name = "F2"

    def scale(self, distance, k, r, sigma, tau) -> np.ndarray:
        x2 = distance * distance
        attraction = np.exp(-x2 / (2.0 * sigma)) / (sigma * sigma)
        repulsion = np.exp(-x2 / (2.0 * tau))
        return k * (attraction - repulsion)


FORCE_SCALINGS: Mapping[str, ForceScaling] = {
    "F1": LinearAdhesionForce(),
    "F2": GaussianAdhesionForce(),
}


def get_force_scaling(name: str | ForceScaling) -> ForceScaling:
    """Resolve a force scaling by name (``"F1"``/``"F2"``) or pass through an instance."""
    if isinstance(name, ForceScaling):
        return name
    key = str(name).upper()
    if key not in FORCE_SCALINGS:
        raise KeyError(f"unknown force scaling {name!r}; available: {sorted(FORCE_SCALINGS)}")
    return FORCE_SCALINGS[key]


def preferred_distance_curve(
    scaling: ForceScaling | str,
    params: InteractionParams,
) -> np.ndarray:
    """Preferred (zero-force) distance for every type pair, shape ``(l, l)``."""
    scaling = get_force_scaling(scaling)
    l = params.n_types
    out = np.empty((l, l))
    for a in range(l):
        for b in range(l):
            out[a, b] = scaling.preferred_distance(
                params.k[a, b], params.r[a, b], params.sigma[a, b], params.tau[a, b]
            )
    return out


# ---------------------------------------------------------------------- #
# drift evaluation
# ---------------------------------------------------------------------- #
def pairwise_distance_matrix(
    positions: np.ndarray, domain: Domain | str | None = None
) -> np.ndarray:
    """Pairwise distance matrix for positions of shape ``(..., n, 2)``.

    Works for a single configuration ``(n, 2)`` or a batch ``(m, n, 2)``;
    the result has shape ``(..., n, n)``.  Distances follow the domain's
    displacement convention (minimum-image on a periodic domain; plain
    Euclidean by default).
    """
    positions = np.asarray(positions, dtype=float)
    domain = get_domain(domain)
    delta = domain.displacement(positions[..., :, None, :], positions[..., None, :, :])
    return np.sqrt(np.einsum("...ijk,...ijk->...ij", delta, delta))


def _interaction_weights(
    distance: np.ndarray,
    pair: Mapping[str, np.ndarray],
    scaling: ForceScaling,
    cutoff: float | None,
) -> np.ndarray:
    """Scalar weight ``-F_{αβ}(d_ij)`` per pair, with self- and cut-off masking."""
    weights = -scaling.scale(distance, pair["k"], pair["r"], pair["sigma"], pair["tau"])
    n = distance.shape[-1]
    eye = np.eye(n, dtype=bool)
    weights = np.where(eye, 0.0, weights)
    if cutoff is not None and np.isfinite(cutoff):
        weights = np.where(distance <= cutoff, weights, 0.0)
    return weights


def pair_interaction_weights(
    distance: np.ndarray,
    types_i: np.ndarray,
    types_j: np.ndarray,
    params: InteractionParams,
    scaling: ForceScaling | str,
    cutoff: float | None = None,
) -> np.ndarray:
    """Scalar drift weight ``-F_{αβ}(d)`` for explicit particle pairs.

    ``types_i``/``types_j`` are the type indices of the two ends of each pair
    and broadcast against ``distance``.  Pairs beyond ``cutoff`` get weight
    exactly ``0.0``.  This is the per-pair primitive of the sparse kernel
    :func:`repro.particles.engine.sparse_drift_batch`; self-pairs are *not*
    masked here (neighbour backends never emit them).
    """
    scaling = get_force_scaling(scaling)
    weights = -scaling.scale(
        distance,
        params.k[types_i, types_j],
        params.r[types_i, types_j],
        params.sigma[types_i, types_j],
        params.tau[types_i, types_j],
    )
    if cutoff is not None and np.isfinite(cutoff):
        weights = np.where(distance <= cutoff, weights, 0.0)
    return weights


def drift_single(
    positions: np.ndarray,
    types: np.ndarray,
    params: InteractionParams,
    scaling: ForceScaling | str,
    cutoff: float | None = None,
    *,
    pair: Mapping[str, np.ndarray] | None = None,
    domain: Domain | str | None = None,
) -> np.ndarray:
    """Dense all-pairs drift ``Σ_j -F(d_ij) Δz_ij`` for one configuration.

    Parameters
    ----------
    positions:
        ``(n, 2)`` particle coordinates.
    types:
        ``(n,)`` integer type assignment.
    params:
        Interaction parameter matrices.
    scaling:
        Force-scaling function or its name.
    cutoff:
        Interaction radius ``r_c``; ``None`` or ``inf`` means unconstrained
        interactions.
    pair:
        Optional precomputed per-pair parameter matrices
        (``params.pair_matrices(types)``), reusable across time steps.
    domain:
        Simulation domain; pairwise displacements go through
        :meth:`~repro.particles.domain.Domain.displacement` (minimum-image
        on a periodic domain).  ``None`` means the free plane and evaluates
        the exact same arithmetic as before domains existed.
    """
    positions = np.asarray(positions, dtype=float)
    types = np.asarray(types, dtype=int)
    scaling = get_force_scaling(scaling)
    domain = get_domain(domain)
    n = positions.shape[0]
    if positions.shape != (n, 2):
        raise ValueError(f"positions must have shape (n, 2), got {positions.shape}")
    if types.shape != (n,):
        raise ValueError("types must have shape (n,)")

    if pair is None:
        pair = params.pair_matrices(types)
    delta = domain.displacement(positions[:, None, :], positions[None, :, :])
    dist = np.sqrt(np.einsum("ijk,ijk->ij", delta, delta))
    weights = _interaction_weights(dist, pair, scaling, cutoff)
    return np.einsum("ij,ijk->ik", weights, delta)


def drift_batch(
    positions: np.ndarray,
    types: np.ndarray,
    params: InteractionParams,
    scaling: ForceScaling | str,
    cutoff: float | None = None,
    *,
    pair: Mapping[str, np.ndarray] | None = None,
    domain: Domain | str | None = None,
) -> np.ndarray:
    """Vectorised drift for an ensemble snapshot of shape ``(m, n, 2)``.

    All samples share the same type assignment (as in the paper's
    experiments), which lets the per-pair parameter matrices be computed once
    and broadcast across the ensemble axis.  ``pair`` allows the caller to
    reuse those matrices across time steps, and ``domain`` selects the
    displacement convention (see :func:`drift_single`).
    """
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 3 or positions.shape[-1] != 2:
        raise ValueError(f"positions must have shape (m, n, 2), got {positions.shape}")
    types = np.asarray(types, dtype=int)
    scaling = get_force_scaling(scaling)
    domain = get_domain(domain)
    if pair is None:
        pair = params.pair_matrices(types)
    delta = domain.displacement(positions[:, :, None, :], positions[:, None, :, :])
    dist = np.sqrt(np.einsum("mijk,mijk->mij", delta, delta))
    weights = -scaling.scale(dist, pair["k"], pair["r"], pair["sigma"], pair["tau"])
    n = positions.shape[1]
    eye = np.eye(n, dtype=bool)
    weights[:, eye] = 0.0
    if cutoff is not None and np.isfinite(cutoff):
        weights = np.where(dist <= cutoff, weights, 0.0)
    return np.einsum("mij,mijk->mik", weights, delta)


def net_force_norms(drift: np.ndarray) -> np.ndarray:
    """Per-particle L2 norms of the drift; shape ``(..., n)``.

    The paper's equilibrium criterion sums these norms over particles and
    requires the sum to stay below a threshold for several steps.
    """
    drift = np.asarray(drift, dtype=float)
    return np.sqrt(np.einsum("...ik,...ik->...i", drift, drift))
