"""Engine scaling — dense vs sparse drift evaluation across collective sizes.

Two sweeps, both with a fixed small cut-off radius at the paper's unit
initial density:

* **single** — collective size n over {50, 200, 1000, 5000} (quick mode:
  {50, 1000}); one drift evaluation per engine × neighbour backend, and a
  check that every sparse variant reproduces the dense kernel's drift.
* **batch** — ensemble snapshots ``(m, n, 2)`` through ``drift_batch``,
  comparing the batched cell-list query (one spatial hash over the whole
  snapshot) against the per-sample kdtree loop and, where memory allows,
  the dense broadcast.  This is the ensemble hot path; the check asserts
  the batched cell list beats the kdtree loop for n ≥ 1000.

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

from repro.particles.engine import make_engine, resolve_engine
from repro.particles.init_conditions import (
    default_disc_radius,
    uniform_disc,
    uniform_disc_ensemble,
)
from repro.particles.types import InteractionParams
from repro.viz import save_json

from bench_common import announce, median_wall_times, timings_series

#: Small relative to the collective diameter for n ≥ 1000 — the regime the
#: sparse engine is built for.
CUTOFF = 2.0
FULL_SIZES = (50, 200, 1000, 5000)
QUICK_SIZES = (50, 1000)
SPARSE_BACKENDS = ("brute", "cell", "kdtree")
#: Ensemble width of the batch sweep (quick mode: BATCH_SAMPLES_QUICK).
BATCH_SAMPLES = 8
BATCH_SAMPLES_QUICK = 4
#: The dense broadcast materialises (m, n, n) matrices; skip it past this n.
DENSE_BATCH_MAX_N = 1000
#: Timed rounds per series (the median is recorded, see median_wall_times).
REPEATS = 3
REPEATS_QUICK = 7


def run_scaling(sizes=FULL_SIZES, repeats: int = REPEATS, seed: int = 0) -> list[dict]:
    """Time one drift evaluation per engine/backend for each collective size."""
    rng = np.random.default_rng(seed)
    params = InteractionParams.clustering(2, self_distance=1.0, cross_distance=2.5, k=2.0)
    rows = []
    for n in sizes:
        radius = default_disc_radius(n)
        positions = uniform_disc(n, radius, rng)
        types = np.repeat([0, 1], [n - n // 2, n // 2])
        common = dict(types=types, params=params, scaling="F1", cutoff=CUTOFF)

        engines = {"dense": make_engine("dense", **common)}
        for backend in SPARSE_BACKENDS:
            engines[f"sparse-{backend}"] = make_engine("sparse", neighbors=backend, **common)
        timings = median_wall_times(
            {name: partial(engine.drift, positions) for name, engine in engines.items()},
            repeats,
        )
        reference = engines["dense"].drift(positions)
        max_error = max(
            float(np.abs(engine.drift(positions) - reference).max())
            for name, engine in engines.items()
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
    """Time one ensemble ``drift_batch`` per engine/backend for each size."""
    rng = np.random.default_rng(seed)
    params = InteractionParams.clustering(2, self_distance=1.0, cross_distance=2.5, k=2.0)
    rows = []
    for n in sizes:
        radius = default_disc_radius(n)
        batch = uniform_disc_ensemble(n_samples, n, radius, rng)
        types = np.repeat([0, 1], [n - n // 2, n // 2])
        common = dict(types=types, params=params, scaling="F1", cutoff=CUTOFF)

        engines = {
            "sparse-cell": make_engine("sparse", neighbors="cell", **common),
            "sparse-kdtree": make_engine("sparse", neighbors="kdtree", **common),
        }
        if n <= DENSE_BATCH_MAX_N:
            engines["dense"] = make_engine("dense", **common)
        timings = median_wall_times(
            {name: partial(engine.drift_batch, batch) for name, engine in engines.items()},
            repeats,
        )
        # Correctness: the batched spatial hash must be *bit-identical* to
        # the per-sample kdtree loop (and to the dense broadcast where it
        # fits in memory) — the contract that makes backend choice pure perf.
        reference = engines["sparse-kdtree"].drift_batch(batch)
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
                "speedup_cell_vs_kdtree": timings["sparse-kdtree"] / timings["sparse-cell"],
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
            f"| batched cell vs kdtree loop ×{row['speedup_cell_vs_kdtree']:.1f}, "
            f"bit-identical: {row['bit_identical']}"
        )
    return "\n".join(lines)


def _check(rows: list[dict], batch_rows: list[dict], smoke: bool = False) -> None:
    # Correctness: every sparse variant reproduces the dense drift.
    for row in rows:
        assert row["max_abs_error_vs_dense"] <= 1e-10, row
    for row in batch_rows:
        assert row["bit_identical"], row
    # Performance: with a small cut-off the sparse engine wins at n ≥ 1000,
    # which is exactly where the "auto" heuristic switches over — and on the
    # ensemble path the batched cell-list hash beats the per-sample kdtree
    # loop there.  The batch margin is ~2x (not the 21-116x of sparse vs
    # dense), so the single-repetition smoke run only sanity-checks it with
    # slack for timer noise on shared CI runners; the full sweep enforces
    # the real win.
    large = [row for row in rows if row["n"] >= 1000]
    assert large, "sweep must include n >= 1000"
    for row in large:
        assert row["auto_engine"] == "sparse"
        assert row["speedup_best_sparse_vs_dense"] > 1.0, row
    large_batch = [row for row in batch_rows if row["n"] >= 1000]
    assert large_batch, "batch sweep must include n >= 1000"
    cell_vs_kdtree_floor = 0.6 if smoke else 1.0
    for row in large_batch:
        assert row["speedup_cell_vs_kdtree"] > cell_vs_kdtree_floor, row


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
    announce(
        "Ensemble drift_batch — batched cell list vs per-sample kdtree loop",
        _format_batch_rows(batch_rows),
    )
    benchmark.extra_info.update(
        {f"n{row['n']}_speedup": round(row["speedup_best_sparse_vs_dense"], 2) for row in rows}
    )
    benchmark.extra_info.update(
        {
            f"batch_n{row['n']}_cell_speedup": round(row["speedup_cell_vs_kdtree"], 2)
            for row in batch_rows
        }
    )
    _check(rows, batch_rows, smoke=bench_quick)
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
    announce(
        "Ensemble drift_batch — batched cell list vs per-sample kdtree loop",
        _format_batch_rows(batch_rows),
    )
    print(f"results written to {args.output}")
    _check(rows, batch_rows, smoke=args.quick)
    return 0


if __name__ == "__main__":
    sys.exit(main())
