"""Simulation domains: the geometry pairwise displacements live in.

The paper's particle model (§4–5) runs in the free plane, but the same
dynamics are well defined on wrapped and bounded domains — the regime of
lattice-style interacting particle systems, where a fixed box size turns
particle count into a *density* control that free-space collectives cannot
express.  Four domains are provided:

* :class:`FreeDomain` — the unbounded plane (the paper's setting, and the
  default everywhere).  Displacements are plain differences and positions are
  never touched.
* :class:`PeriodicDomain` — the torus ``[0, Lx) × [0, Ly)``.  Displacements
  use the minimum-image convention per axis (each particle interacts with the
  *nearest* periodic image of its neighbour), and positions are wrapped back
  into the box after every integration step.
* :class:`ReflectingDomain` — the closed box ``[0, Lx] × [0, Ly]`` with
  reflecting (billiard) walls.  Displacements are the free-space ones;
  positions that leave the box after a step are folded back by reflection.
* :class:`ChannelDomain` — the mixed-boundary channel, periodic in ``x`` and
  reflecting in ``y``: minimum-image displacements along ``x`` only, billiard
  walls along ``y``.

Every bounded domain is **per-axis**: its geometry is a pair of extents
:attr:`Domain.extents` ``= (Lx, Ly)`` plus a boolean mask
:attr:`Domain.periodic_axes` saying which axes wrap.  Square boxes are the
special case ``Lx == Ly``, and their spec strings canonicalise to the
historical scalar form (``"periodic:8.0"``) so pre-existing content hashes —
and every warm ``RunStore`` — stay byte-for-byte valid.

Every layer of the particle stack consumes the same two primitives:
:meth:`Domain.axis_displacement` — one coordinate of the displacement, from
which :meth:`Domain.displacement` is assembled — feeds the force kernels
(the dense kernel works on per-axis planes and calls it directly, after
wrapping its coordinates once per call with :meth:`Domain.axis_coordinates`,
the step it starts with) and the
exact distance filters of the neighbour searches (the cell list repeats its
arithmetic on wrapped coordinates), so dense and sparse drift stay
bit-identical on every domain; :meth:`Domain.wrap` is applied by the
integrators after each step.  :class:`FreeDomain` implements both as exact
identities of the existing free-space arithmetic.  Every displacement
operation is element-wise, so the per-axis form computes the same floats as
the full-array arithmetic of the scalar-box era, which is what keeps
existing trajectories bit-identical through this generalisation.

Domains are configured on :class:`~repro.particles.model.SimulationConfig`
via a compact spec string (``"free"``, ``"periodic:8.0"``,
``"periodic:8.0,4.0"``, ``"reflecting:5.0"``, ``"channel:12.0,3.0"``; the
CLI exposes the same syntax as ``--domain``) and resolved with
:func:`get_domain`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Domain",
    "FreeDomain",
    "PeriodicDomain",
    "ReflectingDomain",
    "ChannelDomain",
    "DOMAINS",
    "get_domain",
]


class Domain(abc.ABC):
    """Geometry of the simulation: displacement convention plus position wrapping."""

    name: str = ""

    #: Box geometry for bounded domains: the scalar side for square boxes
    #: (the historical representation), the ``(Lx, Ly)`` tuple for anisotropic
    #: ones, ``None`` on the free plane.  Use :attr:`extents` for uniform
    #: per-axis access.
    box: "float | tuple[float, float] | None" = None

    #: Which axes wrap periodically (minimum-image convention); reflecting
    #: and free axes are ``False``.
    periodic_axes: tuple[bool, bool] = (False, False)

    @property
    def extents(self) -> "tuple[float, float] | None":
        """Per-axis box sides ``(Lx, Ly)``, or ``None`` on the free plane."""
        return None

    @property
    def bounded(self) -> bool:
        """Whether positions are confined to a fixed box (any non-free domain)."""
        return self.extents is not None

    def axis_coordinates(self, values: np.ndarray, axis: int) -> np.ndarray:
        """Coordinate ``axis`` of positions as :meth:`axis_displacement` subtracts it.

        The identity here; a bounded domain wraps a periodic axis and folds
        the reflecting axis of a mixed box.
        """
        return np.asarray(values, dtype=float)

    def axis_displacement(
        self,
        a: np.ndarray,
        b: np.ndarray,
        axis: int,
        *,
        out: np.ndarray | None = None,
        scratch: np.ndarray | None = None,
        canonical: bool = False,
    ) -> np.ndarray:
        """Coordinate ``axis`` of the displacement ``a - b``.

        ``a`` and ``b`` hold that coordinate only (e.g. ``x[..., 0]``) and
        broadcast like plain subtraction.  This is the one definition of the
        domain's displacement: :meth:`displacement` is assembled from it,
        and the dense drift kernel calls it on per-axis planes, so the force
        kernels and the neighbour searches' exact distance filters compute
        the same floats — which is what makes engine choice a pure
        performance decision on every domain.  With ``out`` (an array of the
        broadcast shape) the displacement is written there and returned; a
        periodic axis keeps its image correction in ``scratch``, an array of
        the same shape, when one is given.  ``canonical=True`` says ``a``
        and ``b`` already went through :meth:`axis_coordinates`, so they are
        subtracted as they are: the dense kernel does that step once per
        call on the coordinates, not on every plane.  The floats do not
        change.
        """
        if not canonical:
            a = self.axis_coordinates(a, axis)
            b = self.axis_coordinates(b, axis)
        return np.subtract(a, b, out=out)

    def displacement(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Displacement ``a - b`` of ``(..., 2)`` positions, assembled per axis."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        (per_x, per_y) = self.periodic_axes
        if not (per_x or per_y) or (per_x == per_y and self.extents[0] == self.extents[1]):
            # Both axes take the same element-wise arithmetic, so one call on
            # the whole arrays gives the same floats without strided copies.
            return self.axis_displacement(a, b, 0)
        out = np.empty(np.broadcast_shapes(a.shape, b.shape))
        for axis in (0, 1):
            out[..., axis] = self.axis_displacement(a[..., axis], b[..., axis], axis)
        return out

    @abc.abstractmethod
    def wrap(self, positions: np.ndarray) -> np.ndarray:
        """Map positions onto the domain's canonical coordinates.

        Applied by the integrators after every step (and to externally
        supplied initial conditions).  The free domain returns its input
        unchanged — not merely equal — so free-space trajectories stay
        bit-identical to the domain-unaware code path.
        """

    @property
    def spec(self) -> str:
        """Canonical spec string (``"free"``, ``"periodic:8.0"``, ``"channel:8.0,2.0"``).

        Square boxes canonicalise to the scalar single-side form — byte
        identical to the spec the scalar-box era produced, which keeps every
        pre-existing content hash (and warm ``RunStore``) valid.
        """
        extents = self.extents
        if extents is None:
            return self.name
        if extents[0] == extents[1]:
            return f"{self.name}:{extents[0]!r}"
        return f"{self.name}:{extents[0]!r},{extents[1]!r}"

    def validate_cutoff(self, cutoff: float | None) -> None:
        """Raise if an interaction cut-off is incompatible with this domain."""

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}({self.spec!r})"


@dataclass(frozen=True)
class FreeDomain(Domain):
    """The unbounded plane — the paper's setting and the default."""

    name = "free"
    box = None

    def wrap(self, positions: np.ndarray) -> np.ndarray:
        return np.asarray(positions, dtype=float)


def _check_extents(box) -> tuple[float, float]:
    """Normalise a scalar side or ``(Lx, Ly)`` pair to a validated tuple."""
    if isinstance(box, (tuple, list, np.ndarray)):
        if len(box) != 2:
            raise ValueError(
                f"domain extents must be a scalar side or an (Lx, Ly) pair, got {box!r}"
            )
        values = (float(box[0]), float(box[1]))
    else:
        side = float(box)
        values = (side, side)
    for value in values:
        if not np.isfinite(value) or value <= 0:
            raise ValueError(f"domain box side must be a positive finite float, got {value}")
    return values


def _wrap_periodic(values: np.ndarray, side: float) -> np.ndarray:
    wrapped = np.mod(values, side)
    # np.mod can round up to the modulus itself for tiny negative inputs;
    # canonical coordinates must stay strictly inside [0, side).
    return np.where(wrapped >= side, 0.0, wrapped)


def _fold_reflecting(values: np.ndarray, side: float) -> np.ndarray:
    # Fold along the triangle wave of period 2L: arbitrary excursions
    # (several box lengths in one step) reflect back into [0, L].
    folded = np.mod(values, 2.0 * side)
    return np.where(folded > side, 2.0 * side - folded, folded)


@dataclass(frozen=True)
class _BoxedDomain(Domain):
    """Shared per-axis geometry of the bounded domains.

    Subclasses declare :attr:`periodic_axes`; ``wrap``/``axis_coordinates``/
    ``axis_displacement``/``validate_cutoff`` are derived per axis.  Square boxes with uniform
    boundary conditions wrap with the full-array arithmetic of the
    scalar-box era; every operation is element-wise, so the per-axis
    displacement computes the same floats and trajectories stay
    bit-identical.
    """

    box: "float | tuple[float, float]"

    def __post_init__(self) -> None:
        extents = _check_extents(self.box)
        object.__setattr__(self, "_extents", extents)
        # Canonical field value: the historical scalar for square boxes (so
        # PeriodicDomain(8.0) == PeriodicDomain((8.0, 8.0)) and legacy
        # `domain.box / 2` call sites keep working), the tuple otherwise.
        object.__setattr__(self, "box", extents[0] if extents[0] == extents[1] else extents)

    @property
    def extents(self) -> tuple[float, float]:
        return self._extents

    def wrap(self, positions: np.ndarray) -> np.ndarray:
        positions = np.asarray(positions, dtype=float)
        (side_x, side_y) = self.extents
        (per_x, per_y) = self.periodic_axes
        wrappers = (_wrap_periodic if per_x else _fold_reflecting,
                    _wrap_periodic if per_y else _fold_reflecting)
        if side_x == side_y and per_x == per_y:
            return wrappers[0](positions, side_x)
        out = np.empty_like(positions)
        out[..., 0] = wrappers[0](positions[..., 0], side_x)
        out[..., 1] = wrappers[1](positions[..., 1], side_y)
        return out

    def axis_coordinates(self, values, axis) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if not any(self.periodic_axes):
            # No wrapping axis: billiard walls never alias images, the
            # displacement is the free-space one.
            return values
        # Wrapping both ends first keeps far-from-origin inputs from losing
        # precision in the image subtraction, and because every neighbour
        # backend and both drift kernels call this one function on the same
        # raw positions, they all filter on the same floats.  (A reflecting
        # axis of a mixed box subtracts its folded coordinates.)
        side = self.extents[axis]
        if self.periodic_axes[axis]:
            return _wrap_periodic(values, side)
        return _fold_reflecting(values, side)

    def axis_displacement(
        self, a, b, axis, *, out=None, scratch=None, canonical=False
    ) -> np.ndarray:
        delta = super().axis_displacement(a, b, axis, out=out, canonical=canonical)
        if not self.periodic_axes[axis]:
            return delta
        # delta - side * round(delta / side), one ufunc at a time.
        side = self.extents[axis]
        images = np.divide(delta, side, out=scratch)
        images = np.round(images, out=scratch)
        images = np.multiply(side, images, out=scratch)
        return np.subtract(delta, images, out=out)

    def validate_cutoff(self, cutoff: float | None) -> None:
        # The minimum-image convention pairs each particle with the nearest
        # image only; a finite cut-off beyond L/2 on a periodic axis would
        # have to see further images, which no backend models.  (None/inf
        # means "all pairs via their nearest image", which stays well
        # defined; reflecting axes impose no constraint.)
        if cutoff is None or not np.isfinite(cutoff):
            return
        limits = [
            side / 2.0
            for side, periodic in zip(self.extents, self.periodic_axes)
            if periodic
        ]
        if limits and cutoff > min(limits):
            raise ValueError(
                f"cutoff {cutoff} exceeds half the periodic box ({min(limits)}); "
                "the minimum-image convention requires r_c <= L/2 on every "
                "periodic axis (or an unconstrained cutoff)"
            )


@dataclass(frozen=True)
class PeriodicDomain(_BoxedDomain):
    """Torus ``[0, Lx) × [0, Ly)`` with per-axis minimum-image displacements."""

    name = "periodic"
    periodic_axes = (True, True)


@dataclass(frozen=True)
class ReflectingDomain(_BoxedDomain):
    """Closed box ``[0, Lx] × [0, Ly]`` with reflecting walls and free displacements."""

    name = "reflecting"
    periodic_axes = (False, False)


@dataclass(frozen=True)
class ChannelDomain(_BoxedDomain):
    """Channel geometry: periodic along ``x``, reflecting walls along ``y``.

    The workhorse mixed boundary condition — a torus seam at ``x = 0 ≡ Lx``
    with billiard walls at ``y = 0`` and ``y = Ly``.  Finite cut-offs must
    satisfy ``r_c ≤ Lx/2`` (the periodic axis only).
    """

    name = "channel"
    periodic_axes = (True, False)


DOMAINS: dict[str, type[Domain]] = {
    "free": FreeDomain,
    "periodic": PeriodicDomain,
    "reflecting": ReflectingDomain,
    "channel": ChannelDomain,
}

_FREE = FreeDomain()


def get_domain(spec: "str | Domain | None") -> Domain:
    """Resolve a domain from a spec string, pass an instance through, default free.

    Accepted specs: ``"free"``, ``"<name>:<L>"`` (square box) and
    ``"<name>:<Lx>,<Ly>"`` (anisotropic box) for ``<name>`` one of
    ``periodic`` / ``reflecting`` / ``channel``.  ``None`` resolves to the
    free plane.  ``"<name>:L"`` and ``"<name>:L,L"`` resolve to the same
    domain and the same canonical spec (hence the same content hash).
    """
    if spec is None:
        return _FREE
    if isinstance(spec, Domain):
        return spec
    text = str(spec).strip().lower()
    name, sep, box_text = text.partition(":")
    if name not in DOMAINS:
        raise KeyError(f"unknown domain {spec!r}; available: {sorted(DOMAINS)}")
    if name == "free":
        if sep:
            raise ValueError(f"the free domain takes no box size, got {spec!r}")
        return _FREE
    if not sep or not box_text:
        raise ValueError(f"domain {name!r} needs a box side, e.g. '{name}:8.0', got {spec!r}")
    parts = [part.strip() for part in box_text.split(",")]
    if len(parts) > 2 or any(not part for part in parts):
        raise ValueError(
            f"domain {name!r} takes one box side or an Lx,Ly pair "
            f"(e.g. '{name}:8.0' or '{name}:8.0,4.0'), got {spec!r}"
        )
    try:
        sides = [float(part) for part in parts]
    except ValueError as exc:
        raise ValueError(f"invalid box side in domain spec {spec!r}") from exc
    box = sides[0] if len(sides) == 1 else (sides[0], sides[1])
    return DOMAINS[name](box=box)
