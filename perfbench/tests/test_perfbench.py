"""Tests of the benchmark itself: metric names, transparent tracing, correctness checks.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import sys
import time
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(PERFBENCH.parent / "src"), str(PERFBENCH)]

import bench  # noqa: E402
import repro.core.self_organization as self_organization  # noqa: E402
import run  # noqa: E402
from repro.core.experiments import fig4_multi_information  # noqa: E402
from repro.core.plan import single  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracing import SPANS, Tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _tiny_spec(**simulation):
    """A fig4 unit small enough for a test: 12 samples, 10 recorded frames."""
    spec = fig4_multi_information(full=False, seed=3)
    return spec.with_updates(
        n_samples=12, simulation=spec.simulation.with_updates(n_steps=9, **simulation)
    )


def _plan_job(tmp_path, spec, tracer=None):
    store_dir = tmp_path / f"store{len(list(tmp_path.iterdir()))}"
    if tracer is None:
        return bench.run_plan(single(spec), store_dir, n_jobs=None, cold_store=False)
    with tracer:
        return bench.run_plan(single(spec), store_dir, n_jobs=None, cold_store=False)


def test_metric_names_are_valid_and_match_benchmark_json():
    spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.LAYER_UNITS
    for name in [*bench.E2E_UNITS, *bench.LAYER_UNITS, *run.WORKLOADS]:
        assert NAME.match(name), name


def test_nested_calls_count_once_and_self_time_excludes_children():
    tracer = Tracer()
    child = tracer.wrap("child", lambda: time.sleep(0.02))

    def recurse(depth):
        if depth:
            return parent(depth - 1)
        child()

    parent = tracer.wrap("parent", recurse)
    parent(3)
    assert tracer.stats["parent"].calls == 1
    assert tracer.stats["child"].calls == 1
    assert tracer.stats["parent"].total >= 0.02
    assert tracer.stats["parent"].self < tracer.stats["parent"].total - 0.015


def test_tracing_is_transparent_restores_bindings_and_counts_repeat(tmp_path):
    spec = _tiny_spec()
    original = self_organization.align_snapshot
    plain = _plan_job(tmp_path, spec)
    first, second = bench.LayerTracer(), bench.LayerTracer()
    traced = _plan_job(tmp_path, spec, first)
    _plan_job(tmp_path, spec, second)

    assert traced.series == plain.series
    assert self_organization.align_snapshot is original
    # Warm resumes repeat for a fixed time, so only io.load varies in count.
    counts = {name: stats.calls for name, stats in first.stats.items() if name != "io.load"}
    assert counts == {name: stats.calls for name, stats in second.stats.items() if name != "io.load"}
    for name in ("particles.drift", "alignment.icp", "alignment.kabsch", "infotheory.ksg", "io.load"):
        assert first.stats[name].calls > 0, name


def test_drift_calls_count_outermost_evaluations_only(tmp_path):
    # The adaptive engine forwards every evaluation to a dense delegate; the
    # count must equal that of the dense engine called directly.
    adaptive, dense = bench.LayerTracer(), bench.LayerTracer()
    _plan_job(tmp_path, _tiny_spec(engine="auto"), adaptive)
    _plan_job(tmp_path, _tiny_spec(engine="dense"), dense)
    assert adaptive.stats["particles.drift"].calls == dense.stats["particles.drift"].calls > 0


def test_watch_emissions_are_unchanged_by_tracing_and_match_post_hoc(tmp_path):
    spec = _tiny_spec()
    plain = bench.run_watch(spec, tmp_path / "plain", seed=1)
    tracer = bench.LayerTracer()
    with tracer:
        traced = bench.run_watch(spec, tmp_path / "traced", seed=1)
    assert traced.series == plain.series
    assert tracer.stats["monitor.mi_compute"].calls == tracer.stats["monitor.te_compute"].calls == 3
    assert all(ok for _, ok in traced.checks + traced.late_checks()), traced.checks


def test_perturbed_reference_fails_the_correctness_check(tmp_path):
    job = _plan_job(tmp_path, _tiny_spec())
    (content_hash, series), = job.series.items()
    assert bench.reference_checks({content_hash: series}, job) == [
        (f"unit {content_hash[:12]} matches its recorded reference", True)
    ]
    within = {**series, "multi_information": [x + 1e-8 for x in series["multi_information"]]}
    assert all(ok for _, ok in bench.reference_checks({content_hash: within}, job))
    moved = {**series, "multi_information": [*series["multi_information"][:-1], series["multi_information"][-1] + 1e-5]}
    assert not any(ok for _, ok in bench.reference_checks({content_hash: moved}, job))
    assert bench.reference_checks({"0" * 64: series}, job) == []


def test_every_span_binding_exists():
    with Tracer() as tracer:
        assert set(tracer.stats) == {name for name, *_ in SPANS}


def test_speed_factor_uses_samples_inside_the_span_or_the_nearest_ones():
    probe = SpeedProbe([0], Path("."))
    starts = np.arange(20.0)
    durations = np.where(starts < 10, 1e-3, 2e-3)  # fast, then half the speed
    probe.samples = {0: np.column_stack([starts, durations])}
    assert probe.factor(0.0, 9.0) == pytest.approx(1.0)
    assert probe.factor(10.0, 19.0) == pytest.approx(0.5)
    # Too short to hold MIN_SAMPLES: the five starts nearest 10.0 are 8-12.
    assert probe.factor(9.9, 10.1) == pytest.approx(1e-3 / np.mean([1e-3, 1e-3, 2e-3, 2e-3, 2e-3]))


def test_speed_probe_logs_samples_and_stops_its_helpers(tmp_path):
    with SpeedProbe([sorted(os.sched_getaffinity(0))[0]], tmp_path) as probe:
        start = time.perf_counter()
        time.sleep(0.5)
        end = time.perf_counter()
    assert all(child.returncode is not None for child in probe._children)
    (samples,) = probe.samples.values()
    assert len(samples[(samples[:, 0] >= start) & (samples[:, 0] <= end)]) >= 3
    assert 0 < probe.factor(start, end) < 100
