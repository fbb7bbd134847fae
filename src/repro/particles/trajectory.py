"""Trajectory containers for single runs and ensembles.

Array layout conventions (used across the whole library):

* ``Trajectory.positions``         — ``(n_steps, n_particles, 2)``
* ``EnsembleTrajectory.positions`` — ``(n_steps, n_samples, n_particles, 2)``

Time is always the leading axis so that per-time-step analysis (alignment,
multi-information estimation) is a simple iteration over the first axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

__all__ = ["Trajectory", "EnsembleTrajectory"]


def _validate_types(types: np.ndarray, n_particles: int) -> np.ndarray:
    # int64 explicitly: these arrays are persisted into .npz artifacts, which
    # must not pick up the platform-dependent meaning of ``dtype=int``.
    types = np.asarray(types, dtype=np.int64)
    if types.shape != (n_particles,):
        raise ValueError(f"types must have shape ({n_particles},), got {types.shape}")
    if types.size and types.min() < 0:
        raise ValueError("type indices must be non-negative")
    return types


@dataclass
class Trajectory:
    """Positions of a single simulation run over time."""

    positions: np.ndarray
    types: np.ndarray
    dt: float = 1.0

    def __post_init__(self) -> None:
        self.positions = np.asarray(self.positions, dtype=float)
        if self.positions.ndim != 3 or self.positions.shape[-1] != 2:
            raise ValueError(
                f"positions must have shape (n_steps, n_particles, 2), got {self.positions.shape}"
            )
        self.types = _validate_types(self.types, self.positions.shape[1])
        if self.dt <= 0:
            raise ValueError("dt must be positive")

    @property
    def n_steps(self) -> int:
        """Number of recorded frames (including the initial state)."""
        return int(self.positions.shape[0])

    @property
    def n_particles(self) -> int:
        return int(self.positions.shape[1])

    @property
    def n_types(self) -> int:
        return int(self.types.max()) + 1 if self.types.size else 0

    @property
    def times(self) -> np.ndarray:
        """Physical times of the recorded frames."""
        return np.arange(self.n_steps) * self.dt

    def frame(self, step: int) -> np.ndarray:
        """Configuration ``(n_particles, 2)`` at frame ``step`` (negative indexing allowed)."""
        return self.positions[step]

    def final(self) -> np.ndarray:
        """The last recorded configuration."""
        return self.positions[-1]

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self.positions)

    # persistence -------------------------------------------------------- #
    def save(self, path: str | Path) -> None:
        """Write the trajectory to a compressed ``.npz`` archive."""
        np.savez_compressed(Path(path), positions=self.positions, types=self.types, dt=self.dt)

    @classmethod
    def load(cls, path: str | Path) -> "Trajectory":
        """Load a trajectory saved by :meth:`save`."""
        with np.load(Path(path)) as data:
            return cls(positions=data["positions"], types=data["types"], dt=float(data["dt"]))


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
        self.types = _validate_types(self.types, self.positions.shape[2])
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

    def sample(self, index: int) -> Trajectory:
        """Extract one sample as a :class:`Trajectory`."""
        return Trajectory(positions=self.positions[:, index], types=self.types, dt=self.dt)

    # persistence -------------------------------------------------------- #
    def save(self, path: str | Path) -> None:
        """Write the ensemble to a compressed ``.npz`` archive."""
        np.savez_compressed(Path(path), positions=self.positions, types=self.types, dt=self.dt)

    @classmethod
    def load(cls, path: str | Path) -> "EnsembleTrajectory":
        """Load an ensemble saved by :meth:`save`."""
        with np.load(Path(path)) as data:
            return cls(positions=data["positions"], types=data["types"], dt=float(data["dt"]))
