"""The monitor: a step observer that streams windowed metrics as a run evolves.

:class:`InformationMonitor` implements the engines' ``on_step`` hook (see
:meth:`~repro.particles.ensemble.EnsembleSimulator.add_observer` for the
observer contract): every recorded ensemble snapshot is pushed into a
shared :class:`~repro.monitor.window.WindowBuffer`, and once the window has
filled, every attached streaming estimator is evaluated every ``stride``
steps.  Each emission lands in a
:class:`~repro.monitor.metrics.MetricsStream` (in-memory + optional JSONL)
and is forwarded to an optional ``on_emit`` callback — the CLI's live
metric-line/sparkline printer.

:func:`replay_ensemble` drives the same machinery over an already recorded
:class:`~repro.particles.trajectory.EnsembleTrajectory` (for benchmarks and
offline re-analysis); :func:`posthoc_window_value` is the buffer-free
reference the equivalence tests and the smoke script compare emissions
against.
"""

from __future__ import annotations

import time
from typing import Callable, Sequence

import numpy as np

from repro.monitor.metrics import MetricRow, MetricsStream
from repro.monitor.streaming import StreamingEstimator
from repro.monitor.window import WindowBuffer

__all__ = ["InformationMonitor", "replay_ensemble", "posthoc_window_value"]


class InformationMonitor:
    """Streams windowed information metrics from a running simulation.

    Parameters
    ----------
    estimators:
        The :class:`~repro.monitor.streaming.StreamingEstimator` instances to
        evaluate per emission (their ``name``s key the metric rows).
    window:
        Window width in recorded steps; the first emission happens at the
        first step for which a full window exists (step ``window - 1`` of a
        run observed from its initial frame).
    stride:
        Emission cadence: after the first emission, one emission every
        ``stride`` further recorded steps.  Distance structures (kd-trees,
        dense blocks) are only rebuilt at emissions, so ``stride`` directly
        rations the estimator cost.
    stream:
        Metrics sink; a fresh in-memory :class:`MetricsStream` by default.
    on_emit:
        Optional callback invoked with every emitted :class:`MetricRow`.
    """

    def __init__(
        self,
        estimators: Sequence[StreamingEstimator],
        *,
        window: int,
        stride: int = 1,
        stream: MetricsStream | None = None,
        on_emit: Callable[[MetricRow], None] | None = None,
    ) -> None:
        estimators = list(estimators)
        if not estimators:
            raise ValueError("the monitor needs at least one streaming estimator")
        if stride < 1:
            raise ValueError("stride must be >= 1")
        self.estimators = estimators
        self.window = int(window)
        self.stride = int(stride)
        self.buffer = WindowBuffer(window)
        self.stream = stream if stream is not None else MetricsStream()
        self.on_emit = on_emit

    @property
    def n_emissions(self) -> int:
        """Number of emission points so far (each evaluates every estimator)."""
        if self.buffer.n_seen < self.window:
            return 0
        return (self.buffer.n_seen - self.window) // self.stride + 1

    # step observer ------------------------------------------------------ #
    def on_step(self, step: int, positions: np.ndarray) -> None:
        """Engine hook: buffer the frame and emit when the cadence says so."""
        self.buffer.push(positions)
        if not self.buffer.full:
            return
        if (self.buffer.n_seen - self.window) % self.stride != 0:
            return
        window = self.buffer.view()
        for estimator in self.estimators:
            t0 = time.perf_counter()
            value = estimator.compute(window)
            wall_ms = (time.perf_counter() - t0) * 1e3
            row = self.stream.record(
                step=step,
                window=self.window,
                metric=estimator.name,
                value=value,
                wall_ms=wall_ms,
            )
            if self.on_emit is not None:
                self.on_emit(row)


def replay_ensemble(
    ensemble, estimators: Sequence[StreamingEstimator], *, window: int, stride: int = 1
) -> MetricsStream:
    """Drive a monitor over a recorded ensemble trajectory, frame by frame.

    Produces exactly the rows a live run with the same parameters would have
    emitted (same steps, same values), in a fresh in-memory stream — useful
    for offline re-analysis and for timing the streaming path in benchmarks.
    """
    monitor = InformationMonitor(estimators, window=window, stride=stride)
    for step in range(ensemble.n_steps):
        monitor.on_step(step, ensemble.positions[step])
    return monitor.stream


def posthoc_window_value(
    estimator: StreamingEstimator, positions: np.ndarray, step: int, window: int
) -> float:
    """The post-hoc reference value for an emission at ``step``.

    Slices the recorded positions array ``(n_steps, m, n, 2)`` to the window
    ending at ``step`` and applies the estimator directly — no buffer, no
    streaming machinery.  The streaming emission must equal this (bitwise on
    the dense backend).
    """
    start = step - window + 1
    if start < 0:
        raise ValueError(f"step {step} has no complete window of {window} step(s)")
    return estimator.compute(np.asarray(positions[start : step + 1], dtype=float))
