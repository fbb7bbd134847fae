"""Unified drift-evaluation engine: one entry point over dense and sparse kernels.

A :class:`DriftEngine` evaluates the Eq. 6 drift for a whole ensemble
snapshot ``(m, n, 2)``; a single configuration ``(n, 2)`` is a batch of one.
Every batch of :class:`~repro.particles.ensemble.EnsembleSimulator` builds
its own engine (:func:`engine_for_config`) and steps through it.

Two kernels are provided:

* :class:`DenseDriftEngine` — the O(n²·m) all-pairs kernel
  (:func:`~repro.particles.forces.drift_batch`: per-axis planes of a
  cache-sized block, ``[j, i, sample]`` when the ensemble is at least as
  wide as the collective and ``[sample, j, i]`` otherwise).  Fastest for the
  collective sizes of the paper's experiments (n ≤ 120) and mandatory when no
  cut-off radius is set (every pair interacts).
* :class:`SparseDriftEngine` — neighbour pairs from the cell list
  (:class:`~repro.particles.neighbors.CellListNeighbors`), accumulated with
  a vectorised segment-sum (:func:`numpy.bincount` over flattened pair
  indices in :func:`sparse_drift_batch`).  That is the one sparse
  accumulation path: a single configuration ``(n, 2)`` goes through it as a
  batch of one.  Cost is proportional to the number of interacting pairs, so
  it wins whenever the cut-off ``r_c`` is small relative to the collective
  diameter.

Selection is configured on :class:`~repro.particles.model.SimulationConfig`
via ``engine="dense" | "sparse" | "auto"``; :func:`resolve_engine` implements
the ``"auto"`` heuristic (sparse for large collectives with a genuinely
pruning cut-off, dense otherwise).  Because collectives contract over a run,
``"auto"`` is a live choice: :class:`AdaptiveDriftEngine` re-resolves it at
every recorded step from the **current** bounding box
(:func:`collective_radius`), so a run that starts sparse switches to the
dense kernel once the cut-off disc covers the shrunken collective — without
changing a single bit of the trajectory (see below).

Choosing an engine
------------------
* n ≲ 200, or no cut-off, or ``r_c`` comparable to the collective diameter —
  ``"dense"`` (what ``"auto"`` resolves to).
* large n with a genuinely pruning cut-off — ``"sparse"``.
* unsure, or the collective contracts over the run — ``"auto"``.

Bit-compatibility contract
--------------------------
For finite positions (short of ±1e308, where a difference of two coordinates
overflows) both engines produce *bit-identical* drift for the same
configuration: the sparse kernel consumes pairs in lexicographic
``(sample, i, j)`` order (see :meth:`NeighborSearch.pairs_batch`), which
reproduces the dense kernel's sequential summation order exactly, and
skipped pairs contribute exact zeros in the dense kernel.  The dense kernel
sums over ``j`` along an axis that is never the innermost — the outer axis
of its ``[j, i, sample]`` planes, the middle axis of its ``[sample, j, i]``
planes — for this reason: numpy reduces such an axis one row at a time, in
``j`` order, while a reduction along the inner loop would use pairwise
summation and break the contract.  Which layout a batch gets depends only
on its shape (``m >= n``), and both give the same bits.  ``tests/test_integration.py``
pins this property, so trajectories are reproducible across engine choices —
and it is what makes adaptive mid-run engine switching safe.  A NaN or
infinite coordinate, which the dense kernel turns into a NaN drift for the
whole sample, is rejected by the sparse engine with a ``ValueError``.

The contract holds on every simulation domain
(:mod:`repro.particles.domain`): both kernels and both neighbour searches
compute the same per-axis displacement floats — the dense kernel calls
:meth:`~repro.particles.domain.Domain.axis_displacement` per plane (on
coordinates it passed through
:meth:`~repro.particles.domain.Domain.axis_coordinates` once per call), the
sparse kernel and the brute-force filter call
:meth:`~repro.particles.domain.Domain.displacement`, which is assembled
from it, and the cell list repeats that arithmetic on wrapped coordinates
— so dense vs sparse stays bit-identical on the periodic torus and in the
reflecting box too (fuzz-pinned in ``tests/test_neighbors_fuzz.py``).  On
bounded domains the ``"auto"`` heuristic compares the cut-off against the
fixed box size — wrapped coordinates always fill the box, so the live
bounding box carries no signal there.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

import numpy as np

from repro.particles.domain import Domain, get_domain
from repro.particles.forces import (
    DriftWorkspace,
    ForceScaling,
    drift_batch,
    get_force_scaling,
    pair_interaction_weights,
    planar_pair_operands,
)
from repro.particles.neighbors import CellListNeighbors, NeighborSearch
from repro.particles.types import InteractionParams

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.particles.model import SimulationConfig

__all__ = [
    "DRIFT_ENGINES",
    "SPARSE_AUTO_MIN_PARTICLES",
    "SPARSE_AUTO_CUTOFF_FRACTION",
    "DriftEngine",
    "DenseDriftEngine",
    "SparseDriftEngine",
    "AdaptiveDriftEngine",
    "collective_radius",
    "heuristic_domain_radius",
    "resolve_engine",
    "make_engine",
    "engine_for_config",
    "sparse_drift_batch",
]

#: Valid values of ``SimulationConfig.engine``.
DRIFT_ENGINES = ("auto", "dense", "sparse")

#: Below this collective size the dense all-pairs kernel wins regardless of
#: the cut-off: the per-sample neighbour queries and index arithmetic of the
#: sparse path cost more than the full n² evaluation.
SPARSE_AUTO_MIN_PARTICLES = 192

#: The sparse engine only pays off when the cut-off disc covers a small part
#: of the collective.  ``"auto"`` stays dense when ``r_c`` exceeds this
#: fraction of the initial collective *diameter* (most pairs interact then,
#: so there is nothing to prune).
SPARSE_AUTO_CUTOFF_FRACTION = 0.5


def resolve_engine(
    engine: str,
    *,
    n_particles: int,
    cutoff: float | None,
    domain_radius: float | None = None,
) -> str:
    """Resolve an engine name, applying the ``"auto"`` heuristic.

    Parameters
    ----------
    engine:
        ``"dense"``, ``"sparse"`` or ``"auto"``.
    n_particles:
        Collective size ``n``.
    cutoff:
        Interaction radius ``r_c`` (``None``/``inf`` = unconstrained).
    domain_radius:
        Characteristic radius of the collective (the initial disc radius);
        used to judge whether the cut-off actually prunes pairs.  ``None``
        skips that part of the heuristic.
    """
    key = str(engine).lower()
    if key in ("dense", "sparse"):
        return key
    if key != "auto":
        raise KeyError(f"unknown drift engine {engine!r}; available: {list(DRIFT_ENGINES)}")
    if cutoff is None or not np.isfinite(cutoff):
        return "dense"
    if n_particles < SPARSE_AUTO_MIN_PARTICLES:
        return "dense"
    if domain_radius is not None and cutoff > SPARSE_AUTO_CUTOFF_FRACTION * 2.0 * float(domain_radius):
        return "dense"
    return "sparse"


def heuristic_domain_radius(domain: Domain, fallback: float | None) -> float | None:
    """Characteristic radius the ``"auto"`` heuristic compares the cut-off to.

    On bounded domains (periodic torus, reflecting box, channel) it is the
    fixed ``min(Lx, Ly) / 2`` — wrapped coordinates always span the box, so
    neither an initial disc radius nor the live bounding box carries any
    signal there, and on anisotropic boxes the *shorter* extent is the one
    that decides whether the cut-off disc still prunes pairs.  Unbounded
    domains keep the caller's ``fallback`` (the initial disc radius, or
    :func:`collective_radius` of the current snapshot).  This is the single
    definition of the bounded-domain rule; every heuristic call site routes
    through it.
    """
    if domain.bounded:
        return min(domain.extents) / 2.0
    return fallback


def collective_radius(positions: np.ndarray) -> float:
    """Characteristic radius of the current configuration(s).

    Half the longer side of the axis-aligned bounding box over *all*
    particles (and, for an ensemble snapshot ``(m, n, 2)``, all samples) —
    the live counterpart of the initial disc radius that the static
    ``"auto"`` heuristic uses.  Collectives contract over a run, so feeding
    this to :func:`resolve_engine` lets :class:`AdaptiveDriftEngine` notice
    when the cut-off disc stops pruning pairs.  Each axis is reduced on its
    own: an ``axis=0`` reduction of the ``(m·n, 2)`` view costs about ten
    times as much for the same value.
    """
    positions = np.asarray(positions, dtype=float)
    if positions.size == 0:
        return 0.0
    spans = [
        positions[..., axis].max() - positions[..., axis].min()
        for axis in range(positions.shape[-1])
    ]
    return float(np.max(spans) / 2.0)


def sparse_drift_batch(
    positions: np.ndarray,
    types: np.ndarray,
    params: InteractionParams,
    scaling: ForceScaling | str,
    cutoff: float | None,
    neighbors: NeighborSearch,
    domain: Domain | str | None = None,
) -> np.ndarray:
    """Sparse drift for an ensemble snapshot ``(m, n, 2)``.

    Neighbour pairs of every sample (from ``neighbors``: the cell list in
    :class:`SparseDriftEngine`, the brute force as a test reference) are
    flattened into a single ``(sample, i, j)`` index space and the per-pair
    contributions are accumulated with one :func:`numpy.bincount`
    segment-sum per coordinate — no Python loop over pairs or particles.
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
    radius = float("inf") if cutoff is None else float(cutoff)

    i_idx, j_idx = neighbors.pairs_batch(positions, radius, domain)
    if i_idx.size == 0:
        return np.zeros_like(positions)

    flat = positions.reshape(m * n, 2)
    delta = domain.displacement(flat[i_idx], flat[j_idx])
    dist = np.sqrt(np.einsum("ij,ij->i", delta, delta))
    tiled_types = np.tile(types, m)
    weights = pair_interaction_weights(
        dist, tiled_types[i_idx], tiled_types[j_idx], params, scaling, cutoff=cutoff
    )
    contrib = weights[:, None] * delta
    drift = np.stack(
        [np.bincount(i_idx, weights=contrib[:, c], minlength=m * n) for c in range(2)],
        axis=1,
    )
    return drift.reshape(m, n, 2)


class DriftEngine(abc.ABC):
    """Evaluates the deterministic Eq. 6 drift for one experiment's particles.

    An engine is bound to a fixed type assignment, interaction parameters,
    force scaling and cut-off; it is therefore safe to cache per-pair
    parameter data across time steps.  Calling the engine dispatches on the
    input rank: ``(n, 2)`` uses the single-configuration path, ``(m, n, 2)``
    the batched ensemble path — which makes an engine directly usable as the
    ``drift_fn`` of any :class:`~repro.particles.integrators.Integrator`.
    """

    name: str = ""

    def __init__(
        self,
        types: np.ndarray,
        params: InteractionParams,
        scaling: ForceScaling | str,
        cutoff: float | None = None,
        *,
        domain: Domain | str | None = None,
    ) -> None:
        self.types = np.asarray(types, dtype=int)
        if self.types.ndim != 1 or self.types.size == 0:
            raise ValueError("types must be a non-empty 1-D array")
        self.params = params
        self.scaling = get_force_scaling(scaling)
        self.cutoff = None if cutoff is None or not np.isfinite(cutoff) else float(cutoff)
        self.domain = get_domain(domain)

    @property
    def n_particles(self) -> int:
        return int(self.types.size)

    def drift(self, positions: np.ndarray) -> np.ndarray:
        """Drift for a single configuration ``(n, 2)``: a batch of one."""
        return self.drift_batch(np.asarray(positions, dtype=float)[None])[0]

    @abc.abstractmethod
    def drift_batch(self, positions: np.ndarray) -> np.ndarray:
        """Drift for an ensemble snapshot ``(m, n, 2)``."""

    def __call__(self, positions: np.ndarray) -> np.ndarray:
        positions = np.asarray(positions, dtype=float)
        if positions.ndim == 2:
            return self.drift(positions)
        if positions.ndim == 3:
            return self.drift_batch(positions)
        raise ValueError(
            f"positions must have shape (n, 2) or (m, n, 2), got {positions.shape}"
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}(n={self.n_particles}, cutoff={self.cutoff})"


class DenseDriftEngine(DriftEngine):
    """All-pairs kernel (:func:`~repro.particles.forces.drift_batch`).

    The kernel's per-pair operands (the scaling's
    :meth:`~repro.particles.forces.ForceScaling.pair_operands` of the
    parameter matrices) are built once and reused by every step, and so are
    its block planes and, per batch shape, the operands expanded to each
    block's plane: the engine owns a
    :class:`~repro.particles.forces.DriftWorkspace`, filled on the first
    call of each shape, so a warm call allocates nothing plane-sized.  On
    ``[j, i, sample]`` planes the expanded operands take n²·m doubles per
    operand that varies between pairs (1.3 MB for each of fig4's quick
    batches).  One engine is unsafe to call from several threads at once.
    Single configurations run as a batch of one.
    """

    name = "dense"

    def __init__(self, types, params, scaling, cutoff=None, *, domain=None) -> None:
        super().__init__(types, params, scaling, cutoff, domain=domain)
        self._operands = planar_pair_operands(params, self.types, self.scaling)
        self._workspace = DriftWorkspace()

    def drift_batch(self, positions: np.ndarray) -> np.ndarray:
        return drift_batch(
            positions,
            self.types,
            self.params,
            self.scaling,
            cutoff=self.cutoff,
            operands=self._operands,
            domain=self.domain,
            workspace=self._workspace,
        )


class SparseDriftEngine(DriftEngine):
    """Neighbour-pair kernel on the cell list (:func:`sparse_drift_batch`)."""

    name = "sparse"

    def drift_batch(self, positions: np.ndarray) -> np.ndarray:
        return sparse_drift_batch(
            positions,
            self.types,
            self.params,
            self.scaling,
            self.cutoff,
            CellListNeighbors(),
            domain=self.domain,
        )


class AdaptiveDriftEngine(DriftEngine):
    """``"auto"`` as a live choice: delegates to dense or sparse and re-resolves.

    The engine holds lazily-built dense and sparse delegates (so per-pair
    parameter caches survive switches) and forwards every drift evaluation
    to the currently active one.  :meth:`reresolve` re-runs the ``"auto"``
    heuristic against the *current* bounding box — the stepping loop
    (:func:`repro.particles.model.advance`) calls it at every recorded step,
    which lets a contracting collective drop from sparse to dense mid-run (or
    the reverse, if a collective disperses).  Switching is free of
    observable side effects: the bit-compatibility contract guarantees both
    delegates produce identical drift for identical positions.

    Where the heuristic cannot pick sparse whatever the bounding box — no
    finite cut-off, fewer than :data:`SPARSE_AUTO_MIN_PARTICLES` particles —
    and on a *bounded* domain (periodic torus, reflecting box, channel),
    where the heuristic uses the fixed box size (``min(Lx, Ly) / 2``, see
    :func:`heuristic_domain_radius`) because wrapped coordinates always span
    the box, the choice made at construction is final and re-resolution is
    a constant-time no-op.
    """

    name = "adaptive"

    def __init__(
        self,
        types,
        params,
        scaling,
        cutoff=None,
        *,
        domain_radius: float | None = None,
        domain: Domain | str | None = None,
    ) -> None:
        super().__init__(types, params, scaling, cutoff, domain=domain)
        self._delegates: dict[str, DriftEngine] = {}
        self._resolved = resolve_engine(
            "auto",
            n_particles=self.n_particles,
            cutoff=self.cutoff,
            domain_radius=heuristic_domain_radius(self.domain, domain_radius),
        )
        # Without a radius the heuristic answers "could any bounding box
        # make this sparse?" (a finite cut-off and enough particles).
        self._fixed = self.domain.bounded or resolve_engine(
            "auto", n_particles=self.n_particles, cutoff=self.cutoff
        ) == "dense"

    @property
    def resolved(self) -> str:
        """Name of the currently active kernel (``"dense"``/``"sparse"``)."""
        return self._resolved

    @property
    def active(self) -> DriftEngine:
        """The delegate engine currently evaluating the drift."""
        if self._resolved not in self._delegates:
            kernel = DenseDriftEngine if self._resolved == "dense" else SparseDriftEngine
            self._delegates[self._resolved] = kernel(
                self.types, self.params, self.scaling, self.cutoff, domain=self.domain
            )
        return self._delegates[self._resolved]

    def reresolve(self, positions: np.ndarray) -> str:
        """Re-run the ``"auto"`` heuristic from the current bounding box.

        Returns the resolved kernel name; the switch (if any) takes effect
        on the next drift evaluation and never changes its result.  Where the
        choice is final (see the class docstring) the ``(m, n, 2)``
        bounding-box scan is skipped entirely.
        """
        if self._fixed:
            return self._resolved
        self._resolved = resolve_engine(
            "auto",
            n_particles=self.n_particles,
            cutoff=self.cutoff,
            domain_radius=collective_radius(positions),
        )
        return self._resolved

    def drift(self, positions: np.ndarray) -> np.ndarray:
        return self.active.drift(positions)

    def drift_batch(self, positions: np.ndarray) -> np.ndarray:
        return self.active.drift_batch(positions)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"{type(self).__name__}(n={self.n_particles}, cutoff={self.cutoff}, "
            f"resolved={self._resolved!r})"
        )


def make_engine(
    engine: str,
    *,
    types: np.ndarray,
    params: InteractionParams,
    scaling: ForceScaling | str,
    cutoff: float | None = None,
    domain_radius: float | None = None,
    domain: Domain | str | None = None,
) -> DriftEngine:
    """Build the :class:`DriftEngine` named ``engine``.

    ``"auto"`` gives an :class:`AdaptiveDriftEngine`, first resolved from
    ``domain_radius`` (the initial disc radius; on a bounded ``domain`` the
    fixed ``min(Lx, Ly) / 2`` instead) and re-resolved mid-run by the
    stepping loop (:func:`repro.particles.model.advance`).
    """
    types = np.asarray(types, dtype=int)
    if str(engine).lower() == "auto":
        return AdaptiveDriftEngine(
            types, params, scaling, cutoff, domain_radius=domain_radius, domain=domain
        )
    resolved = resolve_engine(engine, n_particles=types.size, cutoff=cutoff)
    kernel = DenseDriftEngine if resolved == "dense" else SparseDriftEngine
    return kernel(types, params, scaling, cutoff, domain=domain)


def engine_for_config(config: "SimulationConfig") -> DriftEngine:
    """The drift engine a :class:`~repro.particles.model.SimulationConfig` selects."""
    return make_engine(
        config.engine,
        types=config.types,
        params=config.params,
        scaling=config.force,
        cutoff=config.cutoff,
        domain_radius=config.domain_radius,
        domain=config.resolved_domain,
    )
