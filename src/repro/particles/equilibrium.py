"""Equilibrium detection.

The paper declares a collective to be in equilibrium "if for several time
steps the sum of the L2 norm of the sum of all forces acting on each particle
is below a specific threshold" (§4.1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.particles.forces import net_force_norms

__all__ = ["EquilibriumDetector", "total_force_norm"]


def total_force_norm(drift: np.ndarray) -> float | np.ndarray:
    """Sum of per-particle force norms; scalar for ``(n, 2)``, ``(m,)`` for ``(m, n, 2)``."""
    norms = net_force_norms(drift)
    return norms.sum(axis=-1)


@dataclass
class EquilibriumDetector:
    """Stateful detector implementing the paper's stopping criterion.

    Parameters
    ----------
    threshold:
        Upper bound on the summed force norm that counts as "quiet".
    patience:
        Number of *consecutive* quiet steps required before the system is
        declared to be in equilibrium.
    """

    threshold: float = 1e-2
    patience: int = 5

    def __post_init__(self) -> None:
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        if self.patience <= 0:
            raise ValueError("patience must be positive")
        self._quiet_steps = 0

    def update(self, drift: np.ndarray) -> bool:
        """Feed the drift of the current step; return True once equilibrium is reached."""
        value = float(total_force_norm(np.asarray(drift, dtype=float)))
        if value < self.threshold:
            self._quiet_steps += 1
        else:
            self._quiet_steps = 0
        return self._quiet_steps >= self.patience

    @property
    def quiet_steps(self) -> int:
        """Current run length of consecutive quiet steps."""
        return self._quiet_steps
