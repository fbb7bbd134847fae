"""Live information-dynamics monitoring for running simulations.

Everything the analysis layer measures post-hoc — multi-information, transfer
entropy — this subsystem streams *while the simulation runs*:

* :class:`WindowBuffer` maintains a sliding window of per-step ensemble
  snapshots with an amortised in-place layout (the unchanged window prefix is
  reused, never recopied per step);
* :class:`StreamingMultiInformation` / :class:`StreamingTransferEntropy`
  evaluate the existing KSG/TE estimators over the current window — each
  emitted value equals the post-hoc estimator applied to the same window
  slice (bitwise on the dense backend, float tolerance on kdtree);
* :class:`MetricsStream` records ``(step, window, metric, value, wall_ms)``
  rows in memory and (optionally) as append-only JSONL;
* :class:`InformationMonitor` ties the pieces together into one step
  observer (attach it with
  :meth:`~repro.particles.ensemble.EnsembleSimulator.add_observer`, whose
  docstring states the observer contract) that emits every ``stride``
  steps once the window has filled.

See the README's "Live monitoring" section and ``repro watch`` for the CLI
entry point.
"""

from repro.monitor.live import InformationMonitor, posthoc_window_value, replay_ensemble
from repro.monitor.metrics import MetricRow, MetricsStream
from repro.monitor.streaming import (
    StreamingEstimator,
    StreamingMultiInformation,
    StreamingTransferEntropy,
)
from repro.monitor.window import WindowBuffer

__all__ = [
    "WindowBuffer",
    "StreamingEstimator",
    "StreamingMultiInformation",
    "StreamingTransferEntropy",
    "MetricRow",
    "MetricsStream",
    "InformationMonitor",
    "replay_ensemble",
    "posthoc_window_value",
]
