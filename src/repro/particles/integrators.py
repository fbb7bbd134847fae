"""Stochastic integrators for the overdamped particle dynamics.

The paper integrates the SDE (Eq. 6) with the Euler–Maruyama scheme in the
strong-friction limit: velocity is proportional to force, no momentum builds
up.  A stochastic Heun (predictor–corrector) variant is provided as an
extension for studying time-step sensitivity; both schemes converge to the
same invariant behaviour for the step sizes used in the experiments.

Noise convention
----------------
The paper states ``w ~ N(0, 0.05)``; we read ``0.05`` as the *variance* of the
additive noise term, so one Euler–Maruyama step is

    z_{t+dt} = z_t + dt * drift(z_t) + sqrt(dt) * sqrt(noise_variance) * xi,

with ``xi`` standard normal per coordinate.  ``noise_variance`` is exposed on
every public entry point, so the alternative reading (0.05 as the standard
deviation) is a one-line configuration change.
"""

from __future__ import annotations

import abc
from typing import Callable

import numpy as np

from repro.particles.domain import Domain

__all__ = [
    "Integrator",
    "EulerMaruyama",
    "StochasticHeun",
    "get_integrator",
    "INTEGRATORS",
    "DEFAULT_NOISE_VARIANCE",
]

#: The paper's noise level: ``w ~ N(0, 0.05)`` throughout all experiments.
DEFAULT_NOISE_VARIANCE = 0.05

#: Any callable mapping positions to drift of the same shape.  The schemes
#: below are shape-agnostic, so single configurations ``(n, 2)`` and ensemble
#: snapshots ``(m, n, 2)`` integrate through the same code path — a
#: :class:`repro.particles.engine.DriftEngine` instance is a valid ``DriftFn``
#: (it dispatches on rank when called).
DriftFn = Callable[[np.ndarray], np.ndarray]


class Integrator(abc.ABC):
    """One-step integrator of ``dz = drift(z) dt + sqrt(noise_variance) dW``."""

    name: str = ""

    def __init__(self, *, noise_variance: float = DEFAULT_NOISE_VARIANCE) -> None:
        if not 0 <= noise_variance < np.inf:  # NaN and ±inf fail too
            raise ValueError("noise_variance must be non-negative")
        self.noise_variance = float(noise_variance)

    @abc.abstractmethod
    def step(
        self,
        positions: np.ndarray,
        drift: np.ndarray,
        drift_fn: DriftFn,
        dt: float,
        rng: np.random.Generator,
        domain: Domain | None = None,
    ) -> np.ndarray:
        """Advance ``positions`` (any shape ``(..., 2)``) by one step of size ``dt``.

        ``drift`` is ``drift_fn(positions)``, evaluated by the caller — who
        usually holds it already as the previous step's end-point drift.
        ``drift_fn`` evaluates intermediate states only (Heun's predictor).

        When a :class:`~repro.particles.domain.Domain` is given, the updated
        positions are mapped back onto the domain's canonical coordinates
        (wrapped on a torus, reflected in a closed box, per axis on mixed
        boundaries — a channel wraps ``x`` and reflects ``y``) after every
        stage of
        the scheme — intermediate states such as Heun's predictor included.
        ``None`` (or the free domain) leaves positions untouched.
        """

    def _noise(self, shape: tuple[int, ...], dt: float, rng: np.random.Generator) -> np.ndarray:
        if self.noise_variance == 0.0:
            return np.zeros(shape)
        scale = np.sqrt(dt * self.noise_variance)
        return scale * rng.standard_normal(shape)

    @staticmethod
    def _confine(positions: np.ndarray, domain: Domain | None) -> np.ndarray:
        return positions if domain is None else domain.wrap(positions)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}(noise_variance={self.noise_variance})"


class EulerMaruyama(Integrator):
    """The paper's scheme: explicit Euler drift plus Gaussian increment."""

    name = "euler-maruyama"

    def step(self, positions, drift, drift_fn, dt, rng, domain=None) -> np.ndarray:
        positions = np.asarray(positions, dtype=float)
        if dt <= 0:
            raise ValueError("dt must be positive")
        moved = positions + dt * drift + self._noise(positions.shape, dt, rng)
        return self._confine(moved, domain)


class StochasticHeun(Integrator):
    """Predictor–corrector (Heun) scheme with additive noise.

    For additive noise the Heun scheme is strong order 1.0 (vs 0.5 for
    Euler–Maruyama), which makes it a useful cross-check that reported
    observables are not integration artefacts.
    """

    name = "heun"

    def step(self, positions, drift, drift_fn, dt, rng, domain=None) -> np.ndarray:
        positions = np.asarray(positions, dtype=float)
        if dt <= 0:
            raise ValueError("dt must be positive")
        noise = self._noise(positions.shape, dt, rng)
        predictor = self._confine(positions + dt * drift + noise, domain)
        drift_there = drift_fn(predictor)
        return self._confine(positions + 0.5 * dt * (drift + drift_there) + noise, domain)


INTEGRATORS: dict[str, type[Integrator]] = {
    EulerMaruyama.name: EulerMaruyama,
    StochasticHeun.name: StochasticHeun,
    "euler": EulerMaruyama,
}


def get_integrator(
    name: str | Integrator,
    *,
    noise_variance: float = DEFAULT_NOISE_VARIANCE,
) -> Integrator:
    """Resolve an integrator by name or pass an existing instance through."""
    if isinstance(name, Integrator):
        return name
    key = str(name).lower()
    if key not in INTEGRATORS:
        raise KeyError(f"unknown integrator {name!r}; available: {sorted(INTEGRATORS)}")
    return INTEGRATORS[key](noise_variance=noise_variance)
