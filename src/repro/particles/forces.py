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

Two drift kernels operate on these scalings: the dense all-pairs kernel
:func:`drift_batch` and the sparse neighbour-pair segment-sum
:func:`repro.particles.engine.sparse_drift_batch`.  Each is the one kernel
of its kind: single configurations reach either as a batch of one.  Which
kernel runs is selected per experiment via ``SimulationConfig.engine``
(``"dense"``/``"sparse"``/``"auto"`` — adaptive by default, re-resolved
mid-run as the collective contracts); the sparse kernel consumes the
per-pair weights produced by :func:`pair_interaction_weights`, and the two
agree bit-for-bit (see the bit-compatibility contract and the "Choosing an
engine/backend" guide in :mod:`repro.particles.engine`).

The dense kernel is planar and cache-blocked.  It never builds an
``(m, n, n, 2)`` displacement tensor: it takes ``DRIFT_BLOCK_PAIRS`` pairs'
worth of samples at a time and works on one ``(block, n, n)`` plane per axis,
laid out ``[sample, j, i]`` with ``i`` contiguous, so a block's planes stay
in L2 cache.  It writes every plane into a :class:`DriftWorkspace` through
the ``out=`` arguments of :meth:`ForceScaling.scale` and
:meth:`~repro.particles.domain.Domain.axis_displacement`, running the ufuncs
a fresh temporary per step would run, in the same order, so the result is
the same bit for bit.  A workspace reused across calls (the
:class:`~repro.particles.engine.DenseDriftEngine` owns one) makes a warm
call allocate no plane at all; without one, each call builds its own.  The
planes sit just under glibc's 128 KiB mmap threshold at the paper's sizes,
and allocating and freeing them block after block made the allocator trim
the heap and fault its pages in again each time.

The sum over neighbours ``j`` is a ``np.add.reduce`` along the middle axis.
That axis must stay non-contiguous: numpy then adds the rows one after
another, sequentially in ``j`` — the order of the sparse kernel's
``bincount`` — whereas a reduction along the contiguous axis uses pairwise
summation and would change the last bits of the drift.

Both kernels take an optional :class:`~repro.particles.domain.Domain`: the
displacement ``Δz_ij`` goes through ``domain.axis_displacement()`` (the dense
kernel, per plane) or ``domain.displacement()`` (the sparse kernel, which
assembles it from the same per-axis function).  It applies the minimum
image *per periodic axis* (every axis on a torus, only ``x`` in a channel,
with per-axis lengths on anisotropic boxes) and plain subtraction on the
free plane and in a reflecting box.
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
    "planar_pair_matrices",
    "DriftWorkspace",
    "drift_batch",
    "net_force_norms",
]

#: Pairs per block of the dense kernel: :func:`drift_batch` takes
#: ``max(1, DRIFT_BLOCK_PAIRS // n²)`` samples at a time, so the block's
#: per-axis planes (128 KB each) stay in L2 cache.  2^14 was the fastest of
#: 2^12–2^20 at n = 50 on a 2 MB-L2 x86-64 core, and within noise of the
#: best at n = 20 and n = 100.
DRIFT_BLOCK_PAIRS = 1 << 14

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
        *,
        out: np.ndarray | None = None,
        scratch: np.ndarray | None = None,
    ) -> np.ndarray:
        """Evaluate the scaling on broadcastable arrays of distances/parameters.

        With ``out`` (an array of the broadcast shape) the result is written
        there and returned; ``scratch``, an array of the same shape, holds a
        scaling's intermediate plane, if it needs one.  Either way the values
        are those of the allocating evaluation, bit for bit.  A scaling may
        ignore both and return a new array.
        """

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

    def scale(self, distance, k, r, sigma, tau, *, out=None, scratch=None) -> np.ndarray:
        # k * (1 - r / max(x, floor)), one ufunc at a time into ``out``.
        ratio = np.maximum(distance, _DISTANCE_FLOOR, out=out)
        ratio = np.divide(r, ratio, out=out)
        ratio = np.subtract(1.0, ratio, out=out)
        return np.multiply(k, ratio, out=out)


class GaussianAdhesionForce(ForceScaling):
    """``F2(x) = k (σ^{-2} exp(-x²/(2σ)) - exp(-x²/(2τ)))`` — Eq. 8.

    Both terms decay with distance, so interactions are effectively local even
    without a cut-off; the paper notes this makes ``F2`` collectives behave
    like locally-interacting systems.
    """

    name = "F2"

    def scale(self, distance, k, r, sigma, tau, *, out=None, scratch=None) -> np.ndarray:
        # k * (exp(-x²/(2σ)) / σ² - exp(-x²/(2τ))): the attraction is built
        # in ``out`` while x² and then the repulsion live in ``scratch``.
        x2 = np.multiply(distance, distance, out=scratch)
        attraction = np.negative(x2, out=out)
        attraction = np.divide(attraction, 2.0 * sigma, out=out)
        attraction = np.exp(attraction, out=out)
        attraction = np.divide(attraction, sigma * sigma, out=out)
        repulsion = np.negative(x2, out=scratch)
        repulsion = np.divide(repulsion, 2.0 * tau, out=scratch)
        repulsion = np.exp(repulsion, out=scratch)
        difference = np.subtract(attraction, repulsion, out=out)
        return np.multiply(k, difference, out=out)


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


# ---------------------------------------------------------------------- #
# drift evaluation
# ---------------------------------------------------------------------- #
def pairwise_distance_matrix(positions: np.ndarray) -> np.ndarray:
    """Euclidean pairwise distance matrix for positions of shape ``(..., n, 2)``.

    Works for a single configuration ``(n, 2)`` or a batch ``(m, n, 2)``;
    the result has shape ``(..., n, n)``.
    """
    positions = np.asarray(positions, dtype=float)
    delta = positions[..., :, None, :] - positions[..., None, :, :]
    return np.sqrt(np.einsum("...ijk,...ijk->...ij", delta, delta))


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
    masked here (neighbour searches never emit them).
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


def planar_pair_matrices(
    params: InteractionParams, types: np.ndarray
) -> dict[str, np.ndarray]:
    """Per-pair parameter matrices in the layout of :func:`drift_batch`'s planes.

    Plane entry ``[j, i]`` describes the pair ``(i, j)``, so each matrix of
    ``params.pair_matrices(types)`` is stored transposed, C-contiguous.  The
    transposing copy takes about half as long as a one-sample kernel call at
    n = 1000, so callers that step repeatedly build these once and pass them
    as ``pair`` (as :class:`~repro.particles.engine.DenseDriftEngine` does).
    """
    return {
        key: np.ascontiguousarray(value.T)
        for key, value in params.pair_matrices(types).items()
    }


class DriftWorkspace:
    """The ``(rows, n, n)`` planes :func:`drift_batch` works on, kept across calls.

    Five float planes — ``dx``, ``dy``, ``distance``, ``weights`` and a
    ``scratch`` plane for the periodic image correction and ``F2``'s second
    exponential — and the boolean cut-off ``mask``.  They are built on first
    use and rebuilt only when ``n`` changes or a call needs more rows than
    they hold; a smaller block (a short batch, the ragged last block) works
    on their leading rows.  A workspace is not for concurrent use: two
    threads sharing one would overwrite each other's planes.
    """

    def __init__(self) -> None:
        self._planes: tuple[np.ndarray, ...] = ()

    def planes(self, rows: int, n: int) -> tuple[np.ndarray, ...]:
        """``(dx, dy, distance, weights, scratch, mask)``, each of shape ``(rows, n, n)``."""
        held = self._planes
        if not held or held[0].shape[1] != n or len(held[0]) < rows:
            shape = (rows, n, n)
            held = self._planes = (
                *(np.empty(shape) for _ in range(5)),
                np.empty(shape, dtype=bool),
            )
        return held if len(held[0]) == rows else tuple(plane[:rows] for plane in held)


def drift_batch(
    positions: np.ndarray,
    types: np.ndarray,
    params: InteractionParams,
    scaling: ForceScaling | str,
    cutoff: float | None = None,
    *,
    pair: Mapping[str, np.ndarray] | None = None,
    domain: Domain | str | None = None,
    workspace: DriftWorkspace | None = None,
) -> np.ndarray:
    """Dense all-pairs drift ``Σ_j -F(d_ij) Δz_ij`` for an ensemble snapshot.

    Parameters
    ----------
    positions:
        ``(m, n, 2)`` particle coordinates (a single configuration is the
        batch ``positions[None]``).
    types:
        ``(n,)`` integer type assignment, shared by all samples (as in the
        paper's experiments).
    params:
        Interaction parameter matrices.
    scaling:
        Force-scaling function or its name.
    cutoff:
        Interaction radius ``r_c``; ``None`` or ``inf`` means unconstrained
        interactions.
    pair:
        Optional precomputed ``planar_pair_matrices(params, types)``,
        reusable across time steps.
    domain:
        Simulation domain; pairwise displacements go through
        :meth:`~repro.particles.domain.Domain.axis_displacement`
        (minimum-image on a periodic axis).  ``None`` means the free plane.
    workspace:
        Planes to work in, reusable across calls (one caller at a time);
        without one, the call builds its own.

    Samples are processed :data:`DRIFT_BLOCK_PAIRS` pairs at a time on
    per-axis ``[sample, j, i]`` planes; the sum over ``j`` runs along the
    non-contiguous middle axis, sequentially in ``j``, which keeps dense and
    sparse drift bit-identical (see the module docstring).
    """
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 3 or positions.shape[-1] != 2:
        raise ValueError(f"positions must have shape (m, n, 2), got {positions.shape}")
    types = np.asarray(types, dtype=int)
    m, n, _ = positions.shape
    if types.shape != (n,):
        raise ValueError("types must have shape (n,)")
    scaling = get_force_scaling(scaling)
    domain = get_domain(domain)
    if pair is None:
        pair = planar_pair_matrices(params, types)
    finite_cutoff = cutoff is not None and np.isfinite(cutoff)
    xs, ys = (np.ascontiguousarray(positions[..., axis]) for axis in (0, 1))
    diagonal = np.arange(n)
    drift = np.empty_like(positions)
    block = max(1, DRIFT_BLOCK_PAIRS // max(n * n, 1))
    if workspace is None:
        workspace = DriftWorkspace()
    for start in range(0, m, block):
        rows = slice(start, start + block)
        dx, dy, dist, weights, scratch, mask = workspace.planes(min(block, m - start), n)
        # dx[s, j, i] = x_i - x_j under the domain's convention; dy likewise.
        domain.axis_displacement(xs[rows, None, :], xs[rows, :, None], 0, out=dx, scratch=scratch)
        domain.axis_displacement(ys[rows, None, :], ys[rows, :, None], 1, out=dy, scratch=scratch)
        np.multiply(dx, dx, out=dist)
        np.multiply(dy, dy, out=scratch)
        dist += scratch
        np.sqrt(dist, out=dist)
        scaled = scaling.scale(
            dist, pair["k"], pair["r"], pair["sigma"], pair["tau"], out=weights, scratch=scratch
        )
        np.negative(scaled, out=weights)
        weights[:, diagonal, diagonal] = 0.0
        if finite_cutoff:
            # Multiplying the weights' bit patterns by the 0/1 mask is
            # np.where(dist <= cutoff, weights, 0.0) — +0.0 beyond the
            # cut-off even where a weight is inf or NaN — at a fraction of
            # np.where's cost.
            bits = weights.view(np.int64)
            bits *= np.less_equal(dist, cutoff, out=mask).view(np.uint8)
        dx *= weights
        dy *= weights
        drift[rows, :, 0] = np.add.reduce(dx, axis=1)
        drift[rows, :, 1] = np.add.reduce(dy, axis=1)
    return drift


def net_force_norms(drift: np.ndarray) -> np.ndarray:
    """Per-particle L2 norms of the drift; shape ``(..., n)``.

    The paper's equilibrium criterion sums these norms over particles and
    requires the sum to stay below a threshold for several steps.
    """
    drift = np.asarray(drift, dtype=float)
    return np.sqrt(np.einsum("...ik,...ik->...i", drift, drift))
