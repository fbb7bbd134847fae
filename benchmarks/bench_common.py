"""Shared helpers for the figure-reproduction benchmarks.

Every benchmark module regenerates one figure of the paper: it runs the
corresponding experiment through the declarative plan layer
(:mod:`repro.core.plan`) — at reduced, laptop-friendly scale by default; set
``REPRO_FULL=1`` for the paper's scale — prints the series the figure plots,
writes them to ``benchmarks/output/`` as CSV/JSON, and records the headline
numbers in ``benchmark.extra_info`` so they appear in the pytest-benchmark
report.

``run_spec`` executes a single spec as a one-unit plan; ``execute_plan``
executes a whole figure plan, optionally against a
:class:`~repro.io.artifacts.RunStore` so repeated local runs of a sweep
benchmark hit the content-addressed cache instead of recomputing.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Mapping

import numpy as np


def run_spec(spec, *, keep_ensemble: bool = False):
    """Run one experiment spec through the standard (one-unit plan) pipeline."""
    from repro.core.plan import single

    execution = single(spec).execute(store=None, keep_ensembles=keep_ensemble)
    return execution.results[0]


def execute_plan(plan, *, store=None, n_jobs=None):
    """Execute an experiment plan; returns the :class:`~repro.core.plan.PlanExecution`."""
    return plan.execute(store, n_jobs=n_jobs)


def announce(title: str, body: str) -> None:
    """Print a clearly delimited block (visible with ``pytest -s`` and in CI logs)."""
    line = "=" * 78
    sys.stdout.write(f"\n{line}\n{title}\n{line}\n{body}\n")


def batch_reference(engines: Mapping[str, object], batch: np.ndarray) -> np.ndarray:
    """The drift every timed engine must reproduce bit for bit on ``batch``.

    The dense kernel's where it was timed (it fits in memory), else the
    sparse engine's evaluated one sample at a time, which the batched cell
    list must equal.
    """
    if "dense" in engines:
        return engines["dense"].drift_batch(batch)
    return np.stack([engines["sparse-cell"].drift(sample) for sample in batch])


def median_wall_times(calls: Mapping[str, Callable[[], object]], repeats: int) -> dict:
    """Median wall time in seconds of each callable over ``repeats`` rounds.

    Each round calls every entry once, in order, so a slow phase of a shared
    machine falls on all of them alike and the ratios between them (the
    speedup headlines) hold still.  The median rather than the minimum: a
    recorded series has to be the usual speed, and on a shared box a run's
    fastest call can land in a fast mode that later runs never reach — a
    baseline holding it fails the compares that follow.  The median also
    drops a fresh process's first-call warm-up once ``repeats`` >= 3.
    """
    samples: dict = {name: [] for name in calls}
    for _ in range(repeats):
        for name, fn in calls.items():
            start = time.perf_counter()
            fn()
            samples[name].append(time.perf_counter() - start)
    return {name: float(np.median(times)) for name, times in samples.items()}


def timings_series(rows: list, label) -> dict:
    """Flatten per-row ``timings_seconds`` into stable trajectory series keys.

    ``label(row)`` names the row (e.g. ``single/n1000``); each timing becomes
    ``<label>/<engine-name>``.  These keys are what the recorded benchmark
    trajectory (``BENCH_<area>.json``, see :mod:`trajectory`) is compared on,
    so they must stay stable across PRs.
    """
    series = {}
    for row in rows:
        for name, seconds in row["timings_seconds"].items():
            series[f"{label(row)}/{name}"] = float(seconds)
    return series


def mean_by_key(values: dict, selector) -> dict:
    """Group scalar values by ``selector(key)`` and average them."""
    grouped: dict = {}
    for key, value in values.items():
        grouped.setdefault(selector(key), []).append(value)
    return {key: float(np.mean(vals)) for key, vals in grouped.items()}
