"""Engine scaling — dense vs sparse drift evaluation across collective sizes.

Two sweeps, both with a fixed small cut-off radius at the paper's unit
initial density:

* **single** — collective size n over {50, 200, 1000, 5000} (quick mode:
  {50, 1000}); one drift evaluation per engine × neighbour search (the
  sparse engine's cell list and the brute-force reference), and a check
  that every sparse variant reproduces the dense kernel's drift.
* **batch** — ensemble snapshots ``(m, n, 2)`` through ``drift_batch``,
  timing the batched cell-list query (one spatial hash over the whole
  snapshot) and, where memory allows, the dense kernel.  This is the
  ensemble hot path; the check asserts the batched sparse drift equals the
  dense one bit for bit (above the dense kernel's memory cap: the sparse
  engine's drift one sample at a time).

Both sweeps are written to ``benchmarks/output/engine_scaling.json`` so the
performance trajectory of the hot path stays measurable across PRs.

Run it through pytest (``pytest benchmarks/bench_engine_scaling.py -m bench``,
add ``--bench-quick`` for the smoke-test sweep) or directly::

    PYTHONPATH=src python benchmarks/bench_engine_scaling.py [--quick]
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from pathlib import Path

import numpy as np

from repro.particles.engine import make_engine, resolve_engine, sparse_drift_batch
from repro.particles.init_conditions import (
    default_disc_radius,
    uniform_disc,
    uniform_disc_ensemble,
)
from repro.particles.neighbors import BruteForceNeighbors
from repro.particles.types import InteractionParams
from repro.viz import save_json

from bench_common import announce, batch_reference, median_wall_times, timings_series

#: Small relative to the collective diameter for n ≥ 1000 — the regime the
#: sparse engine is built for.
CUTOFF = 2.0
FULL_SIZES = (50, 200, 1000, 5000)
QUICK_SIZES = (50, 1000)
#: Ensemble width of the batch sweep (quick mode: BATCH_SAMPLES_QUICK).
BATCH_SAMPLES = 8
BATCH_SAMPLES_QUICK = 4
#: The dense broadcast materialises (m, n, n) matrices; skip it past this n.
DENSE_BATCH_MAX_N = 1000
#: Timed rounds per series (the median is recorded, see median_wall_times).
REPEATS = 3
REPEATS_QUICK = 7


def _brute_force_drift(positions: np.ndarray, types: np.ndarray, params) -> np.ndarray:
    """The sparse kernel on the brute-force reference search, for one configuration."""
    return sparse_drift_batch(
        positions[None], types, params, "F1", CUTOFF, BruteForceNeighbors()
    )[0]


def run_scaling(sizes=FULL_SIZES, repeats: int = REPEATS, seed: int = 0) -> list[dict]:
    """Time one drift evaluation per engine/neighbour search for each collective size."""
    rng = np.random.default_rng(seed)
    params = InteractionParams.clustering(2, self_distance=1.0, cross_distance=2.5, k=2.0)
    rows = []
    for n in sizes:
        radius = default_disc_radius(n)
        positions = uniform_disc(n, radius, rng)
        types = np.repeat([0, 1], [n - n // 2, n // 2])
        common = dict(types=types, params=params, scaling="F1", cutoff=CUTOFF)

        dense, sparse = (make_engine(name, **common) for name in ("dense", "sparse"))
        calls = {
            "dense": partial(dense.drift, positions),
            "sparse-brute": partial(_brute_force_drift, positions, types, params),
            "sparse-cell": partial(sparse.drift, positions),
        }
        timings = median_wall_times(calls, repeats)
        reference = dense.drift(positions)
        max_error = max(
            float(np.abs(call() - reference).max())
            for name, call in calls.items()
            if name != "dense"
        )

        best_sparse = min(seconds for name, seconds in timings.items() if name != "dense")
        rows.append(
            {
                "n": n,
                "cutoff": CUTOFF,
                "disc_radius": radius,
                "auto_engine": resolve_engine(
                    "auto", n_particles=n, cutoff=CUTOFF, domain_radius=radius
                ),
                "timings_seconds": timings,
                "max_abs_error_vs_dense": max_error,
                "speedup_best_sparse_vs_dense": timings["dense"] / best_sparse,
            }
        )
    return rows


def run_batch_scaling(
    sizes=FULL_SIZES, n_samples: int = BATCH_SAMPLES, repeats: int = REPEATS, seed: int = 0
) -> list[dict]:
    """Time one ensemble ``drift_batch`` per engine for each size."""
    rng = np.random.default_rng(seed)
    params = InteractionParams.clustering(2, self_distance=1.0, cross_distance=2.5, k=2.0)
    rows = []
    for n in sizes:
        radius = default_disc_radius(n)
        batch = uniform_disc_ensemble(n_samples, n, radius, rng)
        types = np.repeat([0, 1], [n - n // 2, n // 2])
        common = dict(types=types, params=params, scaling="F1", cutoff=CUTOFF)

        engines = {"sparse-cell": make_engine("sparse", **common)}
        if n <= DENSE_BATCH_MAX_N:
            engines["dense"] = make_engine("dense", **common)
        timings = median_wall_times(
            {name: partial(engine.drift_batch, batch) for name, engine in engines.items()},
            repeats,
        )
        # Correctness: the batched spatial hash must be *bit-identical* to
        # the dense kernel where it fits in memory (else to the sparse drift
        # of one sample at a time) — the contract that makes engine choice
        # pure perf.
        reference = batch_reference(engines, batch)
        bit_identical = all(
            np.array_equal(engine.drift_batch(batch), reference) for engine in engines.values()
        )
        rows.append(
            {
                "n": n,
                "n_samples": n_samples,
                "cutoff": CUTOFF,
                "timings_seconds": timings,
                "bit_identical": bit_identical,
            }
        )
    return rows


def _format_rows(rows: list[dict]) -> str:
    lines = []
    for row in rows:
        timings = "  ".join(
            f"{name} {seconds * 1e3:8.2f} ms" for name, seconds in row["timings_seconds"].items()
        )
        lines.append(
            f"  n = {row['n']:5d} (auto → {row['auto_engine']:6s}): {timings}  "
            f"| best sparse speedup ×{row['speedup_best_sparse_vs_dense']:.1f}, "
            f"max |Δdrift| = {row['max_abs_error_vs_dense']:.1e}"
        )
    return "\n".join(lines)


def _format_batch_rows(rows: list[dict]) -> str:
    lines = []
    for row in rows:
        timings = "  ".join(
            f"{name} {seconds * 1e3:8.2f} ms" for name, seconds in row["timings_seconds"].items()
        )
        lines.append(
            f"  m = {row['n_samples']}, n = {row['n']:5d}: {timings}  "
            f"| bit-identical: {row['bit_identical']}"
        )
    return "\n".join(lines)


def _check(rows: list[dict], batch_rows: list[dict]) -> None:
    # Correctness: every sparse variant reproduces the dense drift.
    for row in rows:
        assert row["max_abs_error_vs_dense"] <= 1e-10, row
    for row in batch_rows:
        assert row["bit_identical"], row
    # Performance: with a small cut-off the sparse engine wins at n ≥ 1000,
    # which is exactly where the "auto" heuristic switches over.
    large = [row for row in rows if row["n"] >= 1000]
    assert large, "sweep must include n >= 1000"
    for row in large:
        assert row["auto_engine"] == "sparse"
        assert row["speedup_best_sparse_vs_dense"] > 1.0, row


def trajectory_series(rows: list[dict], batch_rows: list[dict]) -> dict[str, float]:
    """Stable series keys of the recorded engine trajectory (BENCH_engine.json)."""
    return {
        **timings_series(rows, lambda row: f"single/n{row['n']}"),
        **timings_series(batch_rows, lambda row: f"batch/n{row['n']}"),
    }


def test_engine_scaling(benchmark, output_dir, bench_quick, perf_trajectory):
    sizes = QUICK_SIZES if bench_quick else FULL_SIZES
    # The smoke sweep's series are milliseconds on a shared CI box: more
    # rounds there, so their medians (and the headline ratios of them) are
    # the usual speed rather than one lucky or unlucky call.
    repeats = REPEATS_QUICK if bench_quick else REPEATS
    n_samples = BATCH_SAMPLES_QUICK if bench_quick else BATCH_SAMPLES

    def run_both():
        return (
            run_scaling(sizes=sizes, repeats=repeats),
            run_batch_scaling(sizes=sizes, n_samples=n_samples, repeats=repeats),
        )

    rows, batch_rows = benchmark.pedantic(run_both, rounds=1, iterations=1)
    save_json(
        output_dir / "engine_scaling.json",
        {"cutoff": CUTOFF, "rows": rows, "batch_rows": batch_rows},
    )
    announce("Engine scaling — dense vs sparse drift evaluation", _format_rows(rows))
    announce("Ensemble drift_batch — batched cell list vs dense", _format_batch_rows(batch_rows))
    benchmark.extra_info.update(
        {f"n{row['n']}_speedup": round(row["speedup_best_sparse_vs_dense"], 2) for row in rows}
    )
    _check(rows, batch_rows)
    perf_trajectory.submit(
        "engine", trajectory_series(rows, batch_rows), headline=dict(benchmark.extra_info)
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="tiny sweep, single repetition")
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).parent / "output" / "engine_scaling.json",
        help="JSON output path",
    )
    args = parser.parse_args(argv)
    sizes = QUICK_SIZES if args.quick else FULL_SIZES
    repeats = REPEATS_QUICK if args.quick else REPEATS
    rows = run_scaling(sizes=sizes, repeats=repeats)
    batch_rows = run_batch_scaling(
        sizes=sizes,
        n_samples=BATCH_SAMPLES_QUICK if args.quick else BATCH_SAMPLES,
        repeats=repeats,
    )
    save_json(args.output, {"cutoff": CUTOFF, "rows": rows, "batch_rows": batch_rows})
    announce("Engine scaling — dense vs sparse drift evaluation", _format_rows(rows))
    announce("Ensemble drift_batch — batched cell list vs dense", _format_batch_rows(batch_rows))
    print(f"results written to {args.output}")
    _check(rows, batch_rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
