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
``(m, n, n, 2)`` displacement tensor: it works on one plane per axis of
about ``DRIFT_BLOCK_PAIRS`` pair-samples at a time, so a block's planes stay
in L2 cache.  The plane layout is a function of the batch shape ``(m, n)``:

* ``[j, i, sample]`` when the ensemble is at least as wide as the
  collective (``m >= n``), a block of output particles ``i`` at a time,
  with rows of ``m`` samples.
* ``[sample, j, i]`` otherwise (single runs, narrow batches of large
  collectives), a block of samples at a time, with rows of ``n``
  particles.  A sample of at least twice ``DRIFT_BLOCK_PAIRS`` pairs
  (n ≥ 256) is cut into runs of output columns ``i`` instead, so its planes
  stay in cache too.

numpy's inner loop runs along the last axis, so each layout gives it the
longer of the two rows; at the n = 20 of most figure units a row of ``n``
is bound by loop overhead.  Every ufunc of a block reads contiguous planes
of the block's shape, or scalars: ``x_i`` and ``x_j`` are tiled into two
planes with ``np.copyto`` and subtracted (periodic and reflecting axes are
wrapped or folded once per call, on the coordinates, by
:meth:`~repro.particles.domain.Domain.axis_coordinates`), and the scaling's
pair operands are expanded to each block's plane once per batch shape.  A
ufunc with a broadcast operand runs through numpy's buffered iterator, one
inner loop per row plus a 64 KiB buffer per operand: on fig9's ``(20, 20,
64)`` plane a broadcast subtract took 26–31 µs, the same subtract on two
contiguous planes 6 µs.  Both layouts run the same ufuncs on the same
values; only the operand views, the diagonal index and the reduction axis
differ.  The kernel writes every plane into a :class:`DriftWorkspace`
through the ``out=`` arguments of :meth:`ForceScaling.evaluate` and
:meth:`~repro.particles.domain.Domain.axis_displacement`, running the ufuncs
a fresh temporary per step would run, in the same order (``np.square`` is
``x * x`` bit for bit), so the result is the same bit for bit.  A workspace
reused across calls (the :class:`~repro.particles.engine.DenseDriftEngine`
owns one, which keeps the expanded operands too) makes a warm call
allocate nothing plane-sized at all; without one, each call builds its
own.  Planes of about glibc's 128 KiB mmap threshold, allocated and freed
block after block, made the allocator trim the heap and fault its pages in
again each time.

The sum over neighbours ``j`` is a ``np.add.reduce`` along an axis that is
not the innermost: the outer axis of ``[j, i, sample]``, the middle axis of
``[sample, j, i]``.  numpy then adds whole rows one after another,
sequentially in ``j`` — the order of the sparse kernel's ``bincount`` —
whereas a reduction along the inner loop uses pairwise summation and would
change the last bits of the drift.  A row of one element would collapse the
plane onto its ``j`` axis and put the reduction on the inner loop; the
layout rule rules that out, since a ``[j, i, sample]`` row holds at least
``m >= n`` samples, and so does the run rule, since a run of columns is
never one column wide.

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
import math
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
    "planar_pair_operands",
    "DriftWorkspace",
    "drift_batch",
    "net_force_norms",
]

#: Pair-samples per block of the dense kernel, so a block's per-axis planes
#: (256 KB each) stay in L2 cache: :func:`drift_batch` takes
#: ``max(1, DRIFT_BLOCK_PAIRS // n²)`` samples at a time on
#: ``[sample, j, i]`` planes (a sample of at least twice as many pairs in
#: runs of at least ``DRIFT_BLOCK_PAIRS // n`` columns), and equal blocks of
#: about ``DRIFT_BLOCK_PAIRS // (n·m)`` output particles on ``[j, i, sample]``
#: planes.  Re-timed on the loop without broadcast operands against 2^13,
#: 2^14, 2^16 and 2^17 (20 alternating bursts each, one core of a 2-CPU
#: x86-64 box with 2 MB of L2 per core), 2^15 was the fastest at every
#: figure shape from (8, 40) to (500, 50) and at (4, 200) and (1, 1000), or
#: within the noise (7% at (8, 40), where 2^14–2^16 make the same blocks);
#: 2^17 took 1.25–1.30× as long at (125, 40), (500, 20) and (500, 50), and
#: 2^13 1.27–1.35× at (64, 20), (64, 50) and (125, 40).  Runs of columns
#: pay off from about n = 256: cutting (4, 200) in two took 6–9% longer,
#: (4, 300) 14% less time and (1, 1000) 24% less.
DRIFT_BLOCK_PAIRS = 1 << 15

#: Numerical floor on pairwise distances to keep ``F1``'s ``r/x`` term finite
#: when two particles coincide (measure-zero event but reachable numerically).
_DISTANCE_FLOOR = 1e-9


class ForceScaling(abc.ABC):
    """Scalar force-scaling function ``F_{αβ}(x)`` evaluated element-wise."""

    #: Short identifier used in configs ("F1", "F2").
    name: str = ""

    def pair_operands(self, k, r, sigma, tau) -> tuple[np.ndarray, ...]:
        """The per-pair arrays :meth:`evaluate` reads, derived from the parameters.

        The dense kernel's engine builds them once per parameter set, so a
        constant such as ``F2``'s ``2σ`` is not rebuilt on every block.
        """
        return (k, r, sigma, tau)

    @abc.abstractmethod
    def evaluate(
        self,
        distance: np.ndarray,
        operands: tuple[np.ndarray, ...],
        *,
        out: np.ndarray | None = None,
        scratch: np.ndarray | None = None,
    ) -> np.ndarray:
        """Evaluate the scaling on distances and :meth:`pair_operands`, broadcastable.

        With ``out`` (an array of the broadcast shape) the result is written
        there and returned; ``scratch``, an array of the same shape, holds a
        scaling's intermediate plane, if it needs one.  Either way the values
        are those of the allocating evaluation, bit for bit.  A scaling may
        ignore both and return a new array.
        """

    def scale(self, distance, k, r, sigma, tau) -> np.ndarray:
        """Evaluate the scaling on broadcastable arrays of distances/parameters."""
        return self.evaluate(distance, self.pair_operands(k, r, sigma, tau))

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

    def pair_operands(self, k, r, sigma, tau) -> tuple[np.ndarray, ...]:
        return (k, r)

    def evaluate(self, distance, operands, *, out=None, scratch=None) -> np.ndarray:
        # k * (1 - r / max(x, floor)), one ufunc at a time into ``out``.
        k, r = operands
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

    def pair_operands(self, k, r, sigma, tau) -> tuple[np.ndarray, ...]:
        return (k, 2.0 * sigma, sigma * sigma, 2.0 * tau)

    def evaluate(self, distance, operands, *, out=None, scratch=None) -> np.ndarray:
        # k * (exp(-x²/(2σ)) / σ² - exp(-x²/(2τ))): the attraction is built
        # in ``out`` while x² and then the repulsion live in ``scratch``.
        k, two_sigma, sigma_squared, two_tau = operands
        x2 = np.multiply(distance, distance, out=scratch)
        attraction = np.negative(x2, out=out)
        attraction = np.divide(attraction, two_sigma, out=out)
        attraction = np.exp(attraction, out=out)
        attraction = np.divide(attraction, sigma_squared, out=out)
        repulsion = np.negative(x2, out=scratch)
        repulsion = np.divide(repulsion, two_tau, out=scratch)
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


def planar_pair_operands(
    params: InteractionParams, types: np.ndarray, scaling: ForceScaling | str
) -> tuple[np.ndarray, ...]:
    """``scaling``'s pair operands in the ``[j, i]`` layout of :func:`drift_batch`'s planes.

    Plane entry ``[j, i]`` describes the pair ``(i, j)``, so each matrix of
    ``params.pair_matrices(types)`` is stored transposed, C-contiguous, and
    the scaling derives its operands (:meth:`ForceScaling.pair_operands`)
    from those.  The transposing copy takes about half as long as a
    one-sample kernel call at n = 1000, so callers that step repeatedly
    build these once and pass them as ``operands`` (as
    :class:`~repro.particles.engine.DenseDriftEngine` does).
    """
    planar = {
        key: np.ascontiguousarray(value.T)
        for key, value in params.pair_matrices(types).items()
    }
    return get_force_scaling(scaling).pair_operands(**planar)


class DriftWorkspace:
    """The planes and block operands :func:`drift_batch` works on, kept across calls.

    Five float planes — ``dx``, ``dy``, ``distance``, ``weights`` and a
    ``scratch`` plane for ``x_j``, the periodic image correction and
    ``F2``'s second exponential — and the boolean cut-off ``mask``, which
    shares the scratch plane's memory (the kernel needs it only once the
    scratch plane is done with).  Each plane is the leading part of a flat
    buffer, reshaped; :meth:`planes` keeps these views by shape, and the
    buffers are rebuilt only when a call needs a larger plane than they
    hold, so a smaller block (a short batch, the ragged last block, the
    other layout) reuses them.

    :meth:`blocks` keeps each batch shape's blocks, with the pair operands
    expanded to every block's plane shape, for as long as the workspace
    serves the same operands: on ``[j, i, sample]`` planes that is n²·m
    doubles per operand (1.3 MB at (m, n) = (64, 50)), on ``[sample, j,
    i]`` planes one block's worth.  An operand with one value for every
    pair stays a scalar and takes no memory.  A workspace is not for
    concurrent use: two threads sharing one would overwrite each other's
    planes.
    """

    def __init__(self) -> None:
        self._buffers: tuple[np.ndarray, ...] = ()
        self._planes: dict[tuple[int, ...], tuple[np.ndarray, ...]] = {}
        self._operands: tuple[np.ndarray, ...] | None = None
        self._blocks: dict[tuple[int, ...], list[tuple]] = {}

    def planes(self, shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
        """``(dx, dy, distance, weights, scratch, mask)``, each of the given shape."""
        planes = self._planes.get(shape)
        if planes is None:
            size = math.prod(shape)
            if not self._buffers or self._buffers[0].size < size:
                self._buffers = tuple(np.empty(size) for _ in range(5))
                self._planes.clear()
            mask = self._buffers[-1].view(np.bool_)[:size]
            planes = self._planes[shape] = tuple(
                flat[:size].reshape(shape) for flat in (*self._buffers, mask)
            )
        return planes

    def blocks(self, operands: tuple[np.ndarray, ...], m: int, n: int) -> list[tuple]:
        """The blocks of an ``(m, n)`` batch, built once per shape for these ``operands``."""
        if operands is not self._operands:
            self._operands = operands
            self._blocks = {}
        key = (m, n, DRIFT_BLOCK_PAIRS)
        blocks = self._blocks.get(key)
        if blocks is None:
            blocks = self._blocks[key] = _blocks(operands, m, n)
        return blocks


def _samples_innermost(m: int, n: int) -> bool:
    """The layout rule of :func:`drift_batch`: ``[j, i, sample]`` planes when ``m >= n``."""
    return m >= n


def _runs(total: int, count: int) -> list[slice]:
    """``range(total)`` cut into ``count`` runs whose lengths differ by at most one."""
    base, extra = divmod(total, count)
    bounds = [index * base + min(index, extra) for index in range(count + 1)]
    return [slice(start, stop) for start, stop in zip(bounds, bounds[1:])]


def _blocks(operands: tuple[np.ndarray, ...], m: int, n: int) -> list[tuple]:
    """The blocks of :func:`drift_batch` for an ``(m, n)`` batch, in order.

    Each block is ``(shape, at_i, at_j, operands, diagonal, axis, at_out)``:
    the plane shape, the indices that take ``x_i`` and ``x_j`` from the
    ``(·, ·)`` coordinate arrays (the kernel tiles them into the plane),
    the pair operands expanded to the plane's shape (or scalars), the index
    of the ``i == j`` entries, the axis of ``j`` and the index of the
    block's sums in the ``(2, ·, ·)`` output.

    ``[j, i, sample]`` blocks are equal runs of output columns ``i`` over
    all ``n`` rows ``j`` and ``m`` samples.  ``[sample, j, i]`` blocks are
    runs of samples; a sample of at least twice :data:`DRIFT_BLOCK_PAIRS`
    pairs is cut into equal runs of columns, each at least
    ``DRIFT_BLOCK_PAIRS // n`` and never one column wide: a one-column block
    would sum ``j`` along numpy's inner loop.
    """
    if m == 0 or n == 0:
        return []
    scalars = [_one_value(operand) for operand in operands]

    def expand(index, shape):
        return tuple(
            np.broadcast_to(operand[index], shape).copy() if scalar is None else scalar
            for operand, scalar in zip(operands, scalars)
        )

    blocks = []
    if _samples_innermost(m, n):
        count = -(-n // max(1, DRIFT_BLOCK_PAIRS // (n * m)))
        for cols in _runs(n, count):
            width = cols.stop - cols.start
            shape = (n, width, m)
            blocks.append((
                shape,
                (None, cols),
                (slice(None), None),
                expand((slice(None), cols, None), shape),
                (np.arange(cols.start, cols.stop), np.arange(width)),
                0,
                (slice(None), cols),
            ))
        return blocks
    height = min(m, max(1, DRIFT_BLOCK_PAIRS // (n * n)))
    count = max(1, n // max(2, DRIFT_BLOCK_PAIRS // n))
    for cols in _runs(n, count):
        width = cols.stop - cols.start
        full = expand((None, slice(None), cols), (height, n, width))
        diagonal = (slice(None), np.arange(cols.start, cols.stop), np.arange(width))
        for start in range(0, m, height):
            rows = slice(start, min(start + height, m))
            rows_in_block = rows.stop - rows.start
            blocks.append((
                (rows_in_block, n, width),
                (rows, None, cols),
                (rows, slice(None), None),
                tuple(
                    operand if np.ndim(operand) == 0 else operand[:rows_in_block]
                    for operand in full
                ),
                diagonal,
                1,
                (slice(None), rows, cols),
            ))
    return blocks


def _one_value(operand: np.ndarray) -> float | None:
    """The value of an operand whose entries all have the same bits, else ``None``."""
    bits = operand.view(np.int64)
    return float(operand.flat[0]) if (bits == bits.flat[0]).all() else None


def drift_batch(
    positions: np.ndarray,
    types: np.ndarray,
    params: InteractionParams,
    scaling: ForceScaling | str,
    cutoff: float | None = None,
    *,
    operands: tuple[np.ndarray, ...] | None = None,
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
    operands:
        Optional precomputed ``planar_pair_operands(params, types, scaling)``,
        reusable across time steps.
    domain:
        Simulation domain; pairwise displacements go through
        :meth:`~repro.particles.domain.Domain.axis_displacement`
        (minimum-image on a periodic axis).  ``None`` means the free plane.
    workspace:
        Planes and expanded operands to work with, reusable across calls
        with the same ``operands`` (one caller at a time); without one, the
        call builds its own.

    When ``m >= n`` the planes are laid out ``[j, i, sample]``, a block of
    about :data:`DRIFT_BLOCK_PAIRS` pair-samples over the output particles
    ``i`` at a time; otherwise ``[sample, j, i]``, a block of samples (or
    of one sample's columns) at a time.  Either way the sum over ``j`` adds
    whole rows of the plane, sequentially in ``j``, which keeps both
    layouts, and dense and sparse drift, bit-identical (see the module
    docstring).
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
    if operands is None:
        operands = planar_pair_operands(params, types, scaling)
    if workspace is None:
        workspace = DriftWorkspace()
    finite_cutoff = cutoff is not None and np.isfinite(cutoff)
    # Wrapped or folded once per call, so each block only tiles and subtracts.
    coordinates = [domain.axis_coordinates(positions[..., axis], axis) for axis in (0, 1)]
    if _samples_innermost(m, n):
        coordinates = [np.ascontiguousarray(coordinate.T) for coordinate in coordinates]
        sums = np.empty((2, n, m))
        transpose = (2, 1, 0)
    else:
        coordinates = [np.ascontiguousarray(coordinate) for coordinate in coordinates]
        sums = np.empty((2, m, n))
        transpose = (1, 2, 0)
    for shape, at_i, at_j, pair, diagonal, axis, at_out in workspace.blocks(operands, m, n):
        dx, dy, dist, weights, scratch, mask = workspace.planes(shape)
        # dx = x_i - x_j under the domain's convention; dy likewise.  Both
        # ends are tiled into contiguous planes first: a ufunc with a
        # broadcast operand runs through numpy's buffered iterator, several
        # times slower, with a buffer it allocates per call.
        for coordinate, delta, index in zip(coordinates, (dx, dy), (0, 1)):
            np.copyto(delta, coordinate[at_i])
            np.copyto(scratch, coordinate[at_j])
            domain.axis_displacement(
                delta, scratch, index, out=delta, scratch=scratch, canonical=True
            )
        np.square(dx, out=dist)
        np.square(dy, out=scratch)
        dist += scratch
        np.sqrt(dist, out=dist)
        scaled = scaling.evaluate(dist, pair, out=weights, scratch=scratch)
        np.negative(scaled, out=weights)
        weights[diagonal] = 0.0
        if finite_cutoff:
            # Multiplying the weights' bit patterns by the 0/1 mask is
            # np.where(dist <= cutoff, weights, 0.0) — +0.0 beyond the
            # cut-off even where a weight is inf or NaN — at a fraction of
            # np.where's cost.  The mask is copied into the distance plane,
            # which is not read again, as int64: a bool operand would make
            # the multiply cast through a buffer it allocates every block.
            ones = dist.view(np.int64)
            np.copyto(ones, np.less_equal(dist, cutoff, out=mask))
            bits = weights.view(np.int64)
            bits *= ones
        dx *= weights
        dy *= weights
        out = sums[at_out]
        np.add.reduce(dx, axis=axis, out=out[0])
        np.add.reduce(dy, axis=axis, out=out[1])
    return np.ascontiguousarray(sums.transpose(transpose))


def net_force_norms(drift: np.ndarray) -> np.ndarray:
    """Per-particle L2 norms of the drift; shape ``(..., n)``.

    The paper's equilibrium criterion sums these norms over particles and
    requires the sum to stay below a threshold for several steps.
    """
    drift = np.asarray(drift, dtype=float)
    return np.sqrt(np.einsum("...ik,...ik->...i", drift, drift))
