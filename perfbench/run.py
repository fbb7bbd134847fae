#!/usr/bin/env python3
"""Run one workload of the ΔI-pipeline benchmark and print its metrics.

From the root of a repository checkout::

    python3 perfbench/run.py --workload fig4_unit --seed 1 --seconds 35 --trace 0

``--trace 0`` times the workload with tracing off and prints the end-to-end
metrics, scaled to a fixed reference speed by the probe in ``speed.py``.
``--trace 1`` runs one job untraced and one traced — serially, since
wrappers do not report back from pool workers — and prints the per-layer
metrics.  Every run checks its outputs; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--record`` adds the run's value series to ``references.json`` for content
hashes it does not hold yet; recorded entries are never rewritten.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
REFERENCES = HERE / "references.json"

WORKLOADS = ("fig4_unit", "fig9_sweep", "watch_fig4")

#: One BLAS/OpenMP thread per process, set before numpy loads and inherited
#: by pool workers, so the benchmark plus its 2-worker pool never runs more
#: compute threads than there are CPUs.
THREAD_CAPS = dict.fromkeys(
    (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ),
    "1",
)

#: Fresh processes timed per run for ``setup_s`` (its median is reported).
SETUP_REPEATS = 3


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run one workload of the ΔI-pipeline benchmark.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True, help="workload seed (the figure factory's seed=)")
    parser.add_argument("--seconds", type=float, default=35.0, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1 = per-layer traced run")
    parser.add_argument("--record", action="store_true", help="record unseen value series as references")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Span from starting a fresh process to its first unit or frame being ready."""
    command = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        ready = child.stdout.readline().strip() == "ready"
        end = time.perf_counter()
        child.communicate(timeout=120)
    if not ready or child.returncode != 0:
        raise RuntimeError(f"set-up probe for {workload} failed (exit status {child.returncode})")
    return start, end


def _peak_rss_mb() -> float:
    """Peak resident set of the largest process: this one or a waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _machine(nproc: int) -> dict:
    """CPU count, BLAS build and thread caps, recorded with every run."""
    import numpy as np

    import bench

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without the dict form of its build config
        blas = "unknown"
    return {
        "nproc": nproc,
        "sweep_pool_workers": min(bench.SWEEP_WORKERS, nproc),
        "blas": blas,
        "thread_caps": THREAD_CAPS,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _measure(bench, args: argparse.Namespace, scratch: Path) -> tuple[list, dict, dict]:
    """Untraced jobs, repeated while they fit in ``--seconds``.

    The run is pinned to the CPUs it times: the first one for the set-up
    processes and serial jobs, the first :data:`bench.SWEEP_WORKERS` for the
    pooled sweep, whose workers inherit the mask.  A speed probe runs on each.
    """
    cpus = sorted(os.sched_getaffinity(0))
    used = cpus[: bench.SWEEP_WORKERS] if args.workload == "fig9_sweep" else cpus[:1]
    os.sched_setaffinity(0, cpus[:1])
    with bench.SpeedProbe(used, scratch) as probe:
        setups = [_probe_setup(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
        os.sched_setaffinity(0, used)
        prepared = bench.prepare(args.workload, args.seed)
        jobs = []
        start = time.perf_counter()
        while True:
            jobs.append(bench.run_job(args.workload, prepared, scratch / f"job{len(jobs)}", seed=args.seed))
            elapsed = time.perf_counter() - start
            if elapsed / len(jobs) * (len(jobs) + 1) > args.seconds:
                break
    values, notes = bench.e2e_metrics(jobs, setups, _peak_rss_mb(), probe)
    return jobs, values, notes


def _trace(bench, args: argparse.Namespace, scratch: Path) -> tuple[list, dict, dict]:
    """Untraced and serial traced jobs; per-layer values of the traced one."""
    prepared = bench.prepare(args.workload, args.seed)
    jobs = [bench.run_job(args.workload, prepared, scratch / "untraced", seed=args.seed)]
    tracer = bench.LayerTracer()
    store_dir = scratch / "traced"
    with tracer:
        traced = bench.run_job(args.workload, prepared, store_dir, seed=args.seed, serial=True)
    jobs.append(traced)
    if args.workload != "fig9_sweep":
        # A process's first job runs about 10% slower than later ones, so
        # the overhead ratio compares the traced job with a later untraced one.
        jobs.append(bench.run_job(args.workload, prepared, scratch / "again", seed=args.seed))
    store_bytes = sum(path.stat().st_size for path in store_dir.rglob("*") if path.is_file())
    traced.checks.append(("traced values are bit-identical to untraced ones", traced.series == jobs[0].series))
    baseline = jobs[0] if args.workload == "fig9_sweep" else jobs[-1]
    values = bench.layer_metrics(args.workload, tracer, traced, baseline, store_bytes)
    return jobs, values, {}


def _record(references: dict, workload: str, jobs: list) -> None:
    recorded = references.setdefault(workload, {})
    for content_hash, series in jobs[0].series.items():
        recorded.setdefault(content_hash, series)
    REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    # Unwind on SIGTERM too, so the speed probes stop and the scratch goes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    os.environ.update(THREAD_CAPS)
    sys.path.insert(0, str(SRC))
    import bench  # loads numpy, so only after the thread caps are in place

    if args.setup_probe:
        bench.prepare(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    nproc = len(os.sched_getaffinity(0))  # before a timed run pins itself
    references = json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}
    scratch = SCRATCH / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        jobs, values, notes = (_trace if args.trace else _measure)(bench, args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if SCRATCH.is_dir() and not any(SCRATCH.iterdir()):
            SCRATCH.rmdir()

    checks = [check for job in jobs for check in job.checks]
    checks.append(("every job produced the same values", all(job.series == jobs[0].series for job in jobs)))
    if jobs[0].late_checks is not None:
        checks.extend(jobs[0].late_checks())
    checks.extend(bench.reference_checks(references.get(args.workload, {}), jobs[0]))
    if args.record:
        _record(references, args.workload, jobs)

    units = bench.LAYER_UNITS if args.trace else bench.E2E_UNITS
    failed = [label for label, ok in checks if not ok]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("machine " + json.dumps(_machine(nproc), sort_keys=True))
    for name, unit in {**units, **({} if args.trace else bench.INFO_UNITS)}.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<26} {values[name]:>14.6g} {unit}{note}")
    print(f"  error_rate {len(failed) / len(checks):g} ({len(failed)} of {len(checks)} checks failed)")
    for label in failed:
        print(f"  FAILED: {label}")
    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
