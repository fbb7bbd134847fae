"""Sliding-window streaming estimators over ensemble snapshots.

Each estimator evaluates one information-dynamics quantity on the current
window — an array of shape ``(window, n_samples, n_particles, 2)`` as
produced by :meth:`~repro.monitor.window.WindowBuffer.view` (chronological,
oldest frame first).

The equivalence contract: :meth:`StreamingEstimator.compute` routes the
window through the *same* public estimator entry points the post-hoc
analysis uses (:func:`repro.infotheory.ksg.ksg_multi_information`,
:func:`repro.infotheory.transfer.transfer_entropy`), with observables
constructed exactly the way :mod:`repro.analysis.information_dynamics`
constructs them.  A streamed value therefore equals the post-hoc estimator
applied to the same window slice of the recorded trajectory — bitwise on the
dense backend, within float tolerance on kdtree (pinned in
``tests/test_monitor.py``).  Trees (and dense distance blocks) are only
built at emission time, i.e. every ``stride`` steps of the driving monitor.
"""

from __future__ import annotations

import numpy as np

from repro.infotheory.ksg import ksg_multi_information
from repro.infotheory.transfer import transfer_entropy

__all__ = [
    "StreamingEstimator",
    "StreamingMultiInformation",
    "StreamingTransferEntropy",
]


class StreamingEstimator:
    """One named metric evaluated on a window of ensemble snapshots."""

    name: str = "metric"

    def compute(self, window: np.ndarray) -> float:  # pragma: no cover - abstract
        """Value of the metric on ``window`` of shape ``(w, m, n, 2)``."""
        raise NotImplementedError

    @staticmethod
    def _validate(window: np.ndarray) -> np.ndarray:
        window = np.asarray(window, dtype=float)
        if window.ndim != 4 or window.shape[-1] != 2:
            raise ValueError(
                f"window must have shape (window, n_samples, n_particles, 2), "
                f"got {window.shape}"
            )
        return window


class StreamingMultiInformation(StreamingEstimator):
    """KSG multi-information between particles, pooled over the window.

    Each particle contributes one observer block of all its ``(sample, step)``
    positions in the window (``window × n_samples`` points in 2D) — the same
    pooled-cloud construction as the benchmark's ``multi_ksg2`` row.  Rising
    values mean the particles' positions are becoming mutually informative,
    the streaming counterpart of the paper's ΔI diagnostic.
    """

    name = "multi_information"

    def __init__(
        self,
        particles: tuple[int, ...] | list[int] | None = None,
        *,
        k: int = 4,
        backend: str = "dense",
        workers: int = 1,
    ) -> None:
        self.particles = None if particles is None else tuple(int(p) for p in particles)
        self.k = int(k)
        self.backend = backend
        self.workers = workers

    def compute(self, window: np.ndarray) -> float:
        window = self._validate(window)
        particles = (
            range(window.shape[2]) if self.particles is None else self.particles
        )
        blocks = [window[:, :, p, :].reshape(-1, 2) for p in particles]
        return float(
            ksg_multi_information(blocks, k=self.k, backend=self.backend, workers=self.workers)
        )


class StreamingTransferEntropy(StreamingEstimator):
    """Transfer entropy source → target over the window's step sequence.

    The window is reshaped into the per-particle ``(n_samples, window, 2)``
    series the post-hoc pairwise pipeline uses
    (:func:`repro.analysis.information_dynamics.particle_series`) and handed
    to :func:`repro.infotheory.transfer.transfer_entropy` — pooled
    ``n_samples × (window - history)`` realisations per emission.
    """

    name = "transfer_entropy"

    def __init__(
        self,
        source: int = 0,
        target: int = 1,
        *,
        history: int = 1,
        k: int = 4,
        backend: str = "dense",
        workers: int = 1,
    ) -> None:
        if source == target:
            raise ValueError("source and target particles must differ")
        self.source = int(source)
        self.target = int(target)
        self.history = int(history)
        self.k = int(k)
        self.backend = backend
        self.workers = workers

    def _series(self, window: np.ndarray, particle: int) -> np.ndarray:
        # Same layout as particle_series: (n_samples, n_steps, 2), contiguous.
        return np.ascontiguousarray(window[:, :, particle, :].transpose(1, 0, 2))

    def compute(self, window: np.ndarray) -> float:
        window = self._validate(window)
        if window.shape[0] <= self.history:
            raise ValueError(
                f"window of {window.shape[0]} step(s) is too short for "
                f"history={self.history}; use window >= history + 1"
            )
        return float(
            transfer_entropy(
                self._series(window, self.source),
                self._series(window, self.target),
                history=self.history,
                k=self.k,
                backend=self.backend,
                workers=self.workers,
            )
        )
