"""Workloads, correctness checks and metrics of the ΔI-pipeline benchmark.

Three closed-loop workloads — one client submits one job and waits for it —
built from the figure factories in :mod:`repro.core.experiments` at quick
scale, with the factory's ``seed=`` set to the benchmark seed:

``fig4_unit``
    One fig4 RunUnit (n = 50, 3 types, m = 64, cluster observers plus KL
    entropies) through ``ExperimentPlan.execute(store=None)``, serially.
``fig9_sweep``
    Repeat 0 of the six fig9 cut-offs (20 particles, 20 types), cold into a
    fresh RunStore on a 2-worker pool.
``watch_fig4``
    ``repro watch fig4`` at the CLI defaults (window 8, stride 1, streaming
    MI plus TE) through InformationMonitor on an observed EnsembleSimulator.

After its timed part every job re-reads what it persisted from the warm
store (``resume_ms``): the plan workloads re-execute their plan, and
``watch_fig4`` reloads the metric stream ``repro watch --store`` persists.
"""

from __future__ import annotations

import gc
import math
import os
import statistics
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.core.experiments import (
    ExperimentSpec,
    fig4_multi_information,
    fig4_multi_information_plan,
    fig9_radius_sweep_plan,
)
from repro.core.plan import ExperimentPlan, PlanObserver, unit_content_hash
from repro.io.artifacts import RunStore, build_document, encode_document
from repro.monitor import (
    InformationMonitor,
    MetricsStream,
    StreamingMultiInformation,
    StreamingTransferEntropy,
    posthoc_window_value,
)
from repro.particles.ensemble import EnsembleSimulator
from speed import SpeedProbe
from tracing import Tracer

#: End-to-end metrics (``--trace 0``) and their units.
E2E_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "unit_s_p50": "s",
    "resume_ms": "ms",
    "emit_ms_p50": "ms",
    "peak_rss_mb": "MB",
}

#: Printed with the end-to-end metrics but not gated: the plan workloads emit
#: one result per unit, 1 to 12 per run, too few for a steady 80th percentile.
INFO_UNITS = {"emit_ms_p80": "ms"}

#: Per-layer metrics (``--trace 1``) and their units.
LAYER_UNITS = {
    "particles.simulate_s": "s",
    "particles.drift_calls": "count",
    "particles.drift_s": "s",
    "alignment.align_s": "s",
    "alignment.icp_samples": "count",
    "alignment.icp_descents": "count",
    "alignment.icp_iterations": "count",
    "alignment.restart_ratio": "ratio",
    "alignment.nn_corr_s": "s",
    "alignment.kabsch_s": "s",
    "alignment.assignment_s": "s",
    "alignment.rmse_mean": "length",
    "observers.observe_s": "s",
    "infotheory.ksg_s": "s",
    "infotheory.ksg_calls": "count",
    "infotheory.kl_s": "s",
    "infotheory.kl_calls": "count",
    "infotheory.decomp_s": "s",
    "monitor.mi_compute_s": "s",
    "monitor.te_compute_s": "s",
    "monitor.emissions": "count",
    "monitor.overhead_s": "s",
    "io.save_s": "s",
    "io.save_calls": "count",
    "io.load_s": "s",
    "io.load_calls": "count",
    "io.lease_acquired": "count",
    "io.lease_refused": "count",
    "io.bytes_written": "bytes",
    "plan.units_computed": "count",
    "plan.units_cached": "count",
    "plan.duplicate_computes": "count",
    "parallel.unit_inflation": "ratio",
    "trace.overhead_ratio": "ratio",
}

SWEEP_UNITS = 6  # repeat 0 of the six fig9 cut-offs
SWEEP_WORKERS = 2  # the pool caps this at the available CPU count
#: A warm resume takes milliseconds, so one resume sample is a batch of
#: resumes lasting at least RESUME_SAMPLE_S; its garbage-collection pauses
#: are amortised inside the batch instead of deciding the result, and it
#: spans about four speed-probe samples.
RESUME_SAMPLES, RESUME_SAMPLE_S = 24, 0.2
#: Even scaled, a resume sample sits on one of two levels up to 1.5x apart
#: for seconds at a time; the lower quartile of a run's samples reads the
#: lower level, where the median of a run reads either.
RESUME_PERCENTILE = 25
WATCH_WINDOW, WATCH_STRIDE, WATCH_K = 8, 1, 4  # the `repro watch` defaults
POSTHOC_PER_METRIC = 3  # emissions per metric re-derived by the post-hoc estimator
TOLERANCE_BITS = 1e-6

Check = tuple[str, bool]


@dataclass
class Job:
    """One execution of a workload: its timings, its values and its checks."""

    wall_s: float
    unit_s: list[float]
    emit_ms: list[float]
    resume_ms: list[float]
    #: perf_counter spans of the timed part, of each unit and emission and of
    #: each resume sample, which the speed probe's samples are matched against
    timed: tuple[float, float]
    unit_spans: list[tuple[float, float]]
    emit_spans: list[tuple[float, float]]
    resumed: list[tuple[float, float]]
    #: content hash -> named value series (ΔI and MI, or the emitted metrics)
    series: dict[str, dict[str, list[float]]]
    checks: list[Check]
    #: checks to run after timing, outside any tracer (they call traced code)
    late_checks: Callable[[], list[Check]] | None = None
    #: plan units computed / served from the store over all executions
    units_computed: int = 0
    units_cached: int = 0


def prepare(workload: str, seed: int) -> ExperimentPlan | ExperimentSpec:
    """The workload's input, built from the figure factory at quick scale.

    This plus the imports is the set-up ``setup_s`` times.  It also lowers
    the plan to content-hashed units, the first thing every execution does.
    """
    if workload == "watch_fig4":
        spec = fig4_multi_information(full=False, seed=seed)
        unit_content_hash(spec)
        return spec
    if workload == "fig9_sweep":
        plan = fig9_radius_sweep_plan(full=False, seed=seed).limit(SWEEP_UNITS)
    else:
        plan = fig4_multi_information_plan(full=False, seed=seed)
    for unit in plan.units():
        unit.content_hash
    return plan


def run_job(workload: str, prepared, store_dir: Path, *, seed: int, serial: bool = False) -> Job:
    """Execute one job of ``workload``; ``serial`` keeps the sweep out of the pool."""
    if workload == "watch_fig4":
        return run_watch(prepared, store_dir, seed=seed)
    if workload == "fig9_sweep":
        return run_plan(prepared, store_dir, n_jobs=1 if serial else SWEEP_WORKERS, cold_store=True)
    return run_plan(prepared, store_dir, n_jobs=None, cold_store=False)


# --------------------------------------------------------------------------- #
# plan workloads
# --------------------------------------------------------------------------- #
def _time_resumes(resume: Callable[[], None]) -> tuple[list[float], list[tuple[float, float]]]:
    """Per-resume milliseconds and span of :data:`RESUME_SAMPLES` batches of ``resume()``.

    The objects the job left behind are frozen out of garbage collection
    while timing: otherwise whether a pooled cold run left the collector due
    for full passes decides the result (7 or 13 ms for the same sweep).  The
    process runs on its first allowed CPU meanwhile, the one the speed
    probe's serial factor reads.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    gc.collect()
    gc.freeze()
    try:
        samples, spans = [], []
        for _ in range(RESUME_SAMPLES):
            count, start = 0, time.perf_counter()
            while True:
                resume()
                count += 1
                elapsed = time.perf_counter() - start
                if elapsed >= RESUME_SAMPLE_S:
                    break
            samples.append(elapsed / count * 1e3)
            spans.append((start, start + elapsed))
    finally:
        gc.unfreeze()
        os.sched_setaffinity(0, allowed)
    return samples, spans


def _document(unit, result) -> str:
    return encode_document(build_document(unit, result))


class _Completions(PlanObserver):
    """When each unit's result reached the executing process."""

    def __init__(self) -> None:
        self.at: dict[str, float] = {}

    def on_unit_complete(self, unit, result, cached: bool) -> None:
        self.at[unit.content_hash] = time.perf_counter()


def run_plan(plan: ExperimentPlan, store_dir: Path, *, n_jobs: int | None, cold_store: bool) -> Job:
    """Execute ``plan`` cold, then re-execute it warm against the full store.

    With ``cold_store`` the cold execution persists every unit as it lands
    (the sweep's write path); otherwise it runs without a store and its
    results are saved afterwards, so the warm executions have them to read.
    """
    store = RunStore(store_dir)
    completions = _Completions()
    start = time.perf_counter()
    cold = plan.execute(store if cold_store else None, n_jobs=n_jobs, observer=completions)
    end = time.perf_counter()
    if not cold_store:
        for unit, result in zip(cold.units, cold.results):
            store.save(unit, result)
    # Only the last warm execution is kept: holding every one's results would
    # grow the heap and slow later samples through the garbage collector.
    warm = {"computed": 0, "cached": 0, "last": None}

    def resume() -> None:
        execution = plan.execute(store)
        warm["computed"] += execution.n_computed
        warm["cached"] += execution.n_cached
        warm["last"] = execution

    resume_ms, resumed = _time_resumes(resume)
    pairs = list(zip(cold.units, cold.results))
    checks = [(f"{unit.name}: delta I is finite", math.isfinite(result.delta_multi_information)) for unit, result in pairs]
    checks.append(("warm resumes compute no unit", warm["computed"] == 0))
    checks.append(
        (
            "warm resume returns the cold documents byte for byte",
            all(_document(u, w) == _document(u, c) for u, w, c in zip(cold.units, warm["last"].results, cold.results)),
        )
    )
    series = {
        unit.content_hash: {
            "delta_multi_information": [result.delta_multi_information],
            "multi_information": result.measurement.multi_information.tolist(),
        }
        for unit, result in pairs
    }
    unit_s = [result.wall_time_seconds["total"] for result in cold.results]
    # A pooled unit's end is when its result reached this process.
    unit_spans = [(completions.at[u.content_hash] - t, completions.at[u.content_hash]) for u, t in zip(cold.units, unit_s)]
    return Job(
        wall_s=end - start,
        unit_s=unit_s,
        # A unit emits its result when it completes: the latency runs from
        # the unit starting in its executor (pool queueing excluded).
        emit_ms=[seconds * 1e3 for seconds in unit_s],
        resume_ms=resume_ms,
        timed=(start, end),
        unit_spans=unit_spans,
        emit_spans=unit_spans,
        resumed=resumed,
        series=series,
        checks=checks,
        units_computed=cold.n_computed + warm["computed"],
        units_cached=cold.n_cached + warm["cached"],
    )


# --------------------------------------------------------------------------- #
# live-watch workload
# --------------------------------------------------------------------------- #
class _FrameClock:
    """Step observer timing each recorded frame until all its metrics are emitted."""

    def __init__(self, monitor: InformationMonitor) -> None:
        self.monitor = monitor
        self.latency_ms: list[float] = []
        self.spans: list[tuple[float, float]] = []

    def on_step(self, step: int, positions: np.ndarray) -> None:
        emitted = len(self.monitor.stream)
        start = time.perf_counter()
        self.monitor.on_step(step, positions)
        if len(self.monitor.stream) > emitted:
            end = time.perf_counter()
            self.latency_ms.append((end - start) * 1e3)
            self.spans.append((start, end))


def watch_estimators() -> list:
    """The streaming estimators ``repro watch`` builds at its defaults."""
    return [
        StreamingMultiInformation(None, k=WATCH_K, backend="dense", workers=1),
        StreamingTransferEntropy(0, 1, history=1, k=WATCH_K, backend="dense", workers=1),
    ]


def run_watch(spec: ExperimentSpec, store_dir: Path, *, seed: int) -> Job:
    """Simulate ``spec`` with a live monitor attached, then re-read its stream."""
    stream = MetricsStream()
    monitor = InformationMonitor(
        watch_estimators(), window=WATCH_WINDOW, stride=WATCH_STRIDE, stream=stream
    )
    clock = _FrameClock(monitor)
    simulator = EnsembleSimulator(spec.simulation, spec.n_samples, seed=spec.seed)
    simulator.add_observer(clock)
    start = time.perf_counter()
    ensemble = simulator.run()
    end = time.perf_counter()

    content_hash = unit_content_hash(spec)
    store = RunStore(store_dir)
    store.save_metrics(content_hash, stream.to_jsonl())
    resume_ms, resumed = _time_resumes(lambda: MetricsStream.parse(store.load_metrics(content_hash)))
    reread = MetricsStream.parse(store.load_metrics(content_hash))

    values = {name: stream.values(name) for name in stream.metrics()}
    expected = (ensemble.n_steps - WATCH_WINDOW) // WATCH_STRIDE + 1
    names = [estimator.name for estimator in watch_estimators()]
    checks = [
        (f"{expected} emissions per metric", sorted(values) == sorted(names) and all(len(v) == expected for v in values.values())),
        ("every emission is finite", all(math.isfinite(x) for v in values.values() for x in v)),
        ("re-read stream equals the emitted rows", reread == stream.rows),
    ]

    def posthoc_checks() -> list[Check]:
        rng = np.random.default_rng(seed)
        out = []
        for estimator in watch_estimators():
            rows = [row for row in stream.rows if row.metric == estimator.name]
            picks = {0, len(rows) - 1, *rng.choice(len(rows), POSTHOC_PER_METRIC - 2, replace=False).tolist()}
            for index in sorted(picks):
                row = rows[index]
                reference = posthoc_window_value(estimator, ensemble.positions, row.step, WATCH_WINDOW)
                out.append((f"{row.metric} at step {row.step} equals the post-hoc value", row.value == reference))
        return out

    return Job(
        wall_s=end - start,
        unit_s=[end - start],
        emit_ms=clock.latency_ms,
        resume_ms=resume_ms,
        timed=(start, end),
        unit_spans=[(start, end)],
        emit_spans=clock.spans,
        resumed=resumed,
        series={content_hash: values},
        checks=checks,
        late_checks=posthoc_checks,
    )


# --------------------------------------------------------------------------- #
# correctness against recorded references
# --------------------------------------------------------------------------- #
def matches_reference(series: dict[str, list[float]], reference: dict[str, list[float]]) -> bool:
    """Same series names and lengths, every value within :data:`TOLERANCE_BITS`."""
    if set(series) != set(reference):
        return False
    for name, values in series.items():
        expected = reference[name]
        if len(values) != len(expected):
            return False
        if not all(abs(a - b) <= TOLERANCE_BITS for a, b in zip(values, expected)):
            return False
    return True


def reference_checks(references: dict[str, dict], job: Job) -> list[Check]:
    """One check per unit whose content hash has a recorded reference.

    A unit whose hash is unchanged but whose numbers moved fails: no content
    hash may mix old and new numerics.
    """
    return [
        (f"unit {content_hash[:12]} matches its recorded reference", matches_reference(series, references[content_hash]))
        for content_hash, series in job.series.items()
        if content_hash in references
    ]


# --------------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------------- #
def e2e_metrics(
    jobs: list[Job], setups: list[tuple[float, float]], peak_rss_mb: float, probe: SpeedProbe
) -> tuple[dict, dict]:
    """End-to-end values at the reference speed and a note on each one's sample count.

    ``setups`` holds the perf_counter span of each timed set-up.  Every
    timing is multiplied by the speed factor of its own span: a job's
    wall time, units and emissions on every probed CPU (the sweep's pool
    uses them all), resume samples and set-ups on the first CPU, where they
    run.
    """
    serial = probe.cpus[:1]
    factors = [probe.factor(*job.timed) for job in jobs]
    units = [x * probe.factor(*span) for job in jobs for x, span in zip(job.unit_s, job.unit_spans)]
    emits = [x * probe.factor(*span) for job in jobs for x, span in zip(job.emit_ms, job.emit_spans)]
    resumes = [x * probe.factor(*span, serial) for job in jobs for x, span in zip(job.resume_ms, job.resumed)]
    setup_s = [(end - start) * probe.factor(start, end, serial) for start, end in setups]
    values = {
        "wall_s": statistics.median(job.wall_s * f for job, f in zip(jobs, factors)),
        "setup_s": statistics.median(setup_s),
        "unit_s_p50": statistics.median(units),
        "resume_ms": float(np.percentile(resumes, RESUME_PERCENTILE)),
        "emit_ms_p50": statistics.median(emits),
        "emit_ms_p80": float(np.percentile(emits, 80)),
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "wall_s": f"median of {len(jobs)} job(s)",
        "setup_s": f"median of {len(setup_s)} fresh processes",
        "unit_s_p50": f"n={len(units)} units",
        "resume_ms": f"p{RESUME_PERCENTILE} of {len(resumes)} batches of warm re-reads; median {statistics.median(resumes):.4g} ms",
        "emit_ms_p50": f"n={len(emits)} emissions",
        "emit_ms_p80": f"n={len(emits)} emissions",
        "peak_rss_mb": "largest process",
    }
    raw = statistics.median(job.wall_s for job in jobs)
    notes["wall_s"] += f"; {raw:.4g} s unscaled, speed factor {statistics.median(factors):.3f}"
    return values, notes


class LayerTracer(Tracer):
    """The benchmark's tracer plus the diagnostics its hooks read off calls."""

    def __init__(self) -> None:
        self.rmse: list[float] = []
        self.leases: Counter = Counter()
        self.computes: Counter = Counter()
        super().__init__(
            {
                "alignment.align": lambda _args, result: self.rmse.append(float(np.mean(result.rmse))),
                "io.lease": lambda _args, acquired: self.leases.update(["acquired" if acquired else "refused"]),
                "plan.compute": lambda args, _result: self.computes.update([unit_content_hash(args[0])]),
            }
        )


def layer_metrics(workload: str, tracer: LayerTracer, traced: Job, untraced: Job, store_bytes: int) -> dict:
    """Per-layer values of one traced job (zero for layers it does not use)."""
    s = tracer.stats
    samples = s["alignment.icp"].calls
    descents = s["alignment.assignment"].calls
    # The untraced sweep runs pooled and the traced one serially: their
    # per-unit ratio is the pool's inflation, and they give no overhead ratio.
    pooled = workload == "fig9_sweep"
    return {
        "particles.simulate_s": s["particles.simulate"].self,
        "particles.drift_calls": s["particles.drift"].calls,
        "particles.drift_s": s["particles.drift"].self,
        "alignment.align_s": s["alignment.align"].self,
        "alignment.icp_samples": samples,
        "alignment.icp_descents": descents,
        "alignment.icp_iterations": s["alignment.kabsch"].calls,
        "alignment.restart_ratio": descents / samples if samples else 0.0,
        "alignment.nn_corr_s": s["alignment.nn_corr"].self,
        "alignment.kabsch_s": s["alignment.kabsch"].self,
        "alignment.assignment_s": s["alignment.assignment"].self,
        "alignment.rmse_mean": float(np.mean(tracer.rmse)) if tracer.rmse else 0.0,
        "observers.observe_s": s["observers.observe"].self,
        "infotheory.ksg_s": s["infotheory.ksg"].self,
        "infotheory.ksg_calls": s["infotheory.ksg"].calls,
        "infotheory.kl_s": s["infotheory.kl"].self,
        "infotheory.kl_calls": s["infotheory.kl"].calls,
        "infotheory.decomp_s": s["infotheory.decomp"].self,
        "monitor.mi_compute_s": s["monitor.mi_compute"].self,
        "monitor.te_compute_s": s["monitor.te_compute"].self,
        "monitor.emissions": s["monitor.mi_compute"].calls + s["monitor.te_compute"].calls,
        "monitor.overhead_s": s["monitor.on_step"].self,
        "io.save_s": s["io.save"].self,
        "io.save_calls": s["io.save"].calls,
        "io.load_s": s["io.load"].self,
        "io.load_calls": s["io.load"].calls,
        "io.lease_acquired": tracer.leases["acquired"],
        "io.lease_refused": tracer.leases["refused"],
        "io.bytes_written": store_bytes,
        "plan.units_computed": traced.units_computed,
        "plan.units_cached": traced.units_cached,
        "plan.duplicate_computes": sum(tracer.computes.values()) - len(tracer.computes),
        "parallel.unit_inflation": (
            statistics.median(untraced.unit_s) / statistics.median(traced.unit_s) if pooled else 0.0
        ),
        "trace.overhead_ratio": 0.0 if pooled else traced.wall_s / untraced.wall_s,
    }
