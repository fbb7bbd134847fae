"""The trajectory container of an ensemble run.

``EnsembleTrajectory.positions`` has shape
``(n_steps, n_samples, n_particles, 2)``: time is the leading axis, so that
per-time-step analysis (alignment, multi-information estimation) is a simple
iteration over the first axis, and a single run is the ``n_samples = 1``
case.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["EnsembleTrajectory"]


@dataclass
class EnsembleTrajectory:
    """Positions of ``n_samples`` independent runs of the same experiment.

    All samples share the particle count, the type assignment and the
    dynamics parameters; only the initial configuration and the noise
    realisation differ.  This is the object the self-organization pipeline
    consumes: the statistics at time ``t`` are taken *across samples*.
    """

    positions: np.ndarray
    types: np.ndarray
    dt: float = 1.0

    def __post_init__(self) -> None:
        self.positions = np.asarray(self.positions, dtype=float)
        if self.positions.ndim != 4 or self.positions.shape[-1] != 2:
            raise ValueError(
                "positions must have shape (n_steps, n_samples, n_particles, 2), "
                f"got {self.positions.shape}"
            )
        # int64 explicitly: these arrays are persisted into .npz artifacts,
        # which must not pick up the platform-dependent meaning of ``dtype=int``.
        n_particles = self.positions.shape[2]
        self.types = np.asarray(self.types, dtype=np.int64)
        if self.types.shape != (n_particles,):
            raise ValueError(f"types must have shape ({n_particles},), got {self.types.shape}")
        if self.types.size and self.types.min() < 0:
            raise ValueError("type indices must be non-negative")
        if self.dt <= 0:
            raise ValueError("dt must be positive")

    @property
    def n_steps(self) -> int:
        return int(self.positions.shape[0])

    @property
    def n_samples(self) -> int:
        return int(self.positions.shape[1])

    @property
    def n_particles(self) -> int:
        return int(self.positions.shape[2])

    @property
    def n_types(self) -> int:
        return int(self.types.max()) + 1 if self.types.size else 0

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_steps) * self.dt

    def snapshot(self, step: int) -> np.ndarray:
        """Ensemble snapshot ``(n_samples, n_particles, 2)`` at frame ``step``."""
        return self.positions[step]

    # persistence -------------------------------------------------------- #
    def save(self, path: str | Path) -> None:
        """Write the ensemble to a compressed ``.npz`` archive."""
        np.savez_compressed(Path(path), positions=self.positions, types=self.types, dt=self.dt)

    @classmethod
    def load(cls, path: str | Path) -> "EnsembleTrajectory":
        """Load an ensemble saved by :meth:`save`."""
        with np.load(Path(path)) as data:
            return cls(positions=data["positions"], types=data["types"], dt=float(data["dt"]))
