"""Initial particle configurations.

The paper initialises every simulation run with particles placed uniformly at
random on a disc of fixed radius centred at the origin (§5.1).  That initial
distribution is invariant under rotations and same-type permutations (but not
translations), which is exactly the argument §4.2 uses when factoring out the
symmetry group.
"""

from __future__ import annotations

import numpy as np

from repro.parallel.rng import as_generator

__all__ = ["uniform_disc_ensemble", "uniform_box_ensemble", "default_disc_radius"]


def default_disc_radius(n_particles: int) -> float:
    """Disc radius giving roughly one particle per unit area.

    A convenience for experiments that scale the particle count: the paper
    keeps the initial density roughly constant rather than the disc radius.
    """
    if n_particles <= 0:
        raise ValueError("n_particles must be positive")
    return float(np.sqrt(n_particles / np.pi))


def uniform_disc_ensemble(
    n_samples: int,
    n_particles: int,
    radius: float,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Sample an ensemble of disc configurations, shape ``(n_samples, n_particles, 2)``.

    Each configuration is uniform on the disc of ``radius`` centred at the
    origin: the inverse-CDF radius transform ``R sqrt(u)`` makes the density
    uniform in area (a plain uniform radius would over-sample the centre).
    """
    if n_samples < 0:
        raise ValueError("n_samples must be non-negative")
    if n_particles < 0:
        raise ValueError("n_particles must be non-negative")
    if radius <= 0:
        raise ValueError("radius must be positive")
    rng = as_generator(rng)
    radii = radius * np.sqrt(rng.uniform(0.0, 1.0, size=(n_samples, n_particles)))
    angles = rng.uniform(0.0, 2.0 * np.pi, size=(n_samples, n_particles))
    return np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=-1)


def _box_extents(box) -> tuple[float, float]:
    """Normalise a scalar box side or an ``(Lx, Ly)`` pair."""
    if isinstance(box, (tuple, list, np.ndarray)):
        if len(box) != 2:
            raise ValueError(f"box must be a scalar side or an (Lx, Ly) pair, got {box!r}")
        side_x, side_y = float(box[0]), float(box[1])
    else:
        side_x = side_y = float(box)
    if side_x <= 0 or side_y <= 0:
        raise ValueError("box must be positive")
    return side_x, side_y


def uniform_box_ensemble(
    n_samples: int,
    n_particles: int,
    box,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Sample an ensemble of box configurations, shape ``(n_samples, n_particles, 2)``.

    Each configuration is uniform in the box ``[0, Lx) × [0, Ly)``; ``box``
    is a scalar side (square box) or an ``(Lx, Ly)`` pair.  The natural
    initial condition for bounded domains (periodic torus, reflecting box,
    channel): it is invariant under the translations the wrapped dynamics
    preserve, and the box sides — not the particle count — fix the density.
    Square boxes keep the exact scalar draw of the pre-anisotropy code, so
    their random streams (and every downstream trajectory) stay
    bit-identical.
    """
    if n_samples < 0:
        raise ValueError("n_samples must be non-negative")
    if n_particles < 0:
        raise ValueError("n_particles must be non-negative")
    side_x, side_y = _box_extents(box)
    rng = as_generator(rng)
    if side_x == side_y:
        return rng.uniform(0.0, side_x, size=(n_samples, n_particles, 2))
    return rng.uniform(0.0, (side_x, side_y), size=(n_samples, n_particles, 2))
