"""Per-layer tracing from outside the program.

The traced run wraps the public function each layer exposes, at the name its
caller binds (a module global or a class attribute), and records per span:

* ``calls`` — outermost calls only: a nested call of the same span (the
  adaptive drift engine delegating to its dense or sparse engine) passes
  straight through, so it is neither counted nor timed twice;
* ``total`` — summed wall time of those calls;
* ``self`` — ``total`` minus the time covered by timed child spans.

Count-only spans (:data:`COUNT_ONLY`) are counted but take no part in the
self-time accounting, so the timed spans of one layer partition its time:
``alignment.align`` self time plus the three ICP kernels is the whole
``align_snapshot`` time.

Wrappers change no argument and no result, so a traced run produces exactly
the numbers of an untraced one.  Patches are undone when the tracer's
``with`` block exits.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["SPANS", "COUNT_ONLY", "SpanStats", "Tracer"]

#: ``(span, module, class or None, attribute)``: where each layer's entry
#: point is bound by its caller.  Bindings sharing a span name nest into one
#: outermost call (``run_simulation_only`` calls ``EnsembleSimulator.run``).
SPANS: tuple[tuple[str, str, str | None, str], ...] = (
    ("particles.simulate", "repro.core.pipeline", None, "run_simulation_only"),
    ("particles.simulate", "repro.particles.ensemble", "EnsembleSimulator", "run"),
    ("particles.drift", "repro.particles.engine", "DenseDriftEngine", "drift_batch"),
    ("particles.drift", "repro.particles.engine", "SparseDriftEngine", "drift_batch"),
    ("particles.drift", "repro.particles.engine", "AdaptiveDriftEngine", "drift_batch"),
    ("alignment.align", "repro.core.self_organization", None, "align_snapshot"),
    ("alignment.icp", "repro.alignment.icp", "TypeAwareICP", "align"),
    ("alignment.nn_corr", "repro.alignment.icp", None, "nearest_neighbor_correspondence"),
    ("alignment.assignment", "repro.alignment.icp", None, "assignment_correspondence"),
    ("alignment.kabsch", "repro.alignment.icp", None, "kabsch_2d"),
    ("observers.observe", "repro.core.self_organization", None, "build_observers"),
    ("infotheory.ksg", "repro.core.self_organization", None, "ksg_multi_information"),
    ("infotheory.kl", "repro.core.self_organization", None, "kozachenko_leonenko_entropy"),
    ("infotheory.decomp", "repro.core.self_organization", None, "decompose_multi_information"),
    ("monitor.on_step", "repro.monitor.live", "InformationMonitor", "on_step"),
    ("monitor.mi_compute", "repro.monitor.streaming", "StreamingMultiInformation", "compute"),
    ("monitor.te_compute", "repro.monitor.streaming", "StreamingTransferEntropy", "compute"),
    ("io.save", "repro.io.artifacts", "RunStore", "save"),
    ("io.load", "repro.io.artifacts", "RunStore", "load"),
    ("io.lease", "repro.io.artifacts", "RunStore", "try_acquire_lease"),
    ("plan.compute", "repro.core.plan", None, "_execute_spec"),
)

#: Spans that are counted but not timed (their time stays in the enclosing
#: span's self time).
COUNT_ONLY = frozenset({"alignment.icp"})


@dataclass
class SpanStats:
    """Accumulated measurements of one span."""

    calls: int = 0
    total: float = 0.0
    self: float = 0.0


class Tracer:
    """Installs the :data:`SPANS` wrappers for the duration of a ``with`` block.

    ``hooks`` maps a span name to a callable receiving ``(args, result)`` of
    every outermost call; the benchmark reads diagnostics off them (lease
    outcomes, alignment residuals, unit hashes).
    """

    def __init__(self, hooks: dict[str, Callable[[tuple, Any], None]] | None = None) -> None:
        self.stats: dict[str, SpanStats] = {name: SpanStats() for name, *_ in SPANS}
        self._hooks = dict(hooks or {})
        self._active: dict[str, int] = dict.fromkeys(self.stats, 0)
        self._covered: list[float] = []  # child time, one slot per open timed span
        self._patches: list[tuple[Any, str, Any, bool]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        """A transparent wrapper recording ``fn``'s calls under span ``name``."""
        stats = self.stats.setdefault(name, SpanStats())
        self._active.setdefault(name, 0)
        hook = self._hooks.get(name)
        timed = name not in COUNT_ONLY

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._active[name]:
                return fn(*args, **kwargs)
            self._active[name] += 1
            if timed:
                self._covered.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._active[name] -= 1
                stats.calls += 1
                stats.total += elapsed
                if timed:
                    stats.self += elapsed - self._covered.pop()
                    if self._covered:
                        self._covered[-1] += elapsed
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        try:
            for name, module_name, class_name, attribute in SPANS:
                owner = importlib.import_module(module_name)
                if class_name is not None:
                    owner = getattr(owner, class_name)
                own = attribute in vars(owner)
                original = vars(owner)[attribute] if own else getattr(owner, attribute)
                setattr(owner, attribute, self.wrap(name, original))
                self._patches.append((owner, attribute, original, own))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc_info: object) -> None:
        for owner, attribute, original, own in reversed(self._patches):
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
        self._patches.clear()
