"""Information-dynamics scaling — shared-embedding + tree-backed pairwise TE.

Times the §7.3 pairwise transfer-entropy analysis on a synthetic driven
ensemble (a coupling chain, so the matrix has real structure) across three
implementations:

* **naive-dense** — the historical per-pair loop: every ordered pair calls
  :func:`repro.infotheory.transfer.transfer_entropy` with the dense backend,
  re-deriving the target's embedding and rebuilding O(m²) distance matrices
  from scratch (what the analysis did before the shared-embedding plan).
* **shared-dense** — :func:`repro.analysis.information_dynamics
  .pairwise_transfer_entropy` with ``backend="dense"``: embeddings computed
  once per particle, target-side distance blocks once per matrix row, the
  per-source aligned blocks cached across rows.
* **shared-kdtree** — the same plan with the tree-backed estimator backend
  (Chebyshev cKDTree candidate search, exact product-metric re-ranking).

A lagged-MI sweep records the same comparison for the cheaper screening
matrix, a ``n_jobs=2`` kdtree fan-out times the pooled row dispatch, and a
KSG2 multi-information pair (``multi_ksg2_dense`` / ``multi_ksg2_kdtree``)
times the rectangle estimator's tree backend on the pooled two-particle
clouds.  A streaming pair (``streaming_mi_window`` / ``streaming_te_window``)
replays the live-monitoring path (:mod:`repro.monitor`) over the recorded
trajectory — a windowed monitor re-emitting both metrics on a stride — and
asserts every emission equals the post-hoc estimator on the same window.  Correctness is asserted alongside the timings: the shared matrices
must be *bit-identical* to the naive loop per backend (the pooled fan-out
bit-identical to serial), and the backends must agree to tight tolerance.
The full sweep (not ``--bench-quick``) additionally enforces the headlines:
shared + kdtree beats the naive dense loop by ≥ 3× at n_particles ≥ 8 and
≥ 2000 pooled samples (the full case runs 4000, past the pairwise
dense/kdtree crossover), and the KSG2 tree backend beats dense by ≥ 2× on
the pooled clouds.

Results go to ``benchmarks/output/infodynamics_scaling.json``.  Run through
pytest (``pytest benchmarks/bench_infodynamics.py -m bench``, add
``--bench-quick`` for the smoke sweep) or directly::

    PYTHONPATH=src python benchmarks/bench_infodynamics.py [--quick]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from repro.analysis.information_dynamics import (
    pairwise_lagged_mutual_information,
    pairwise_transfer_entropy,
    particle_series,
)
from repro.infotheory.ksg import ksg_multi_information
from repro.infotheory.transfer import time_lagged_mutual_information, transfer_entropy
from repro.monitor import (
    StreamingMultiInformation,
    StreamingTransferEntropy,
    posthoc_window_value,
    replay_ensemble,
)
from repro.particles.trajectory import EnsembleTrajectory
from repro.viz import save_json

from bench_common import announce, median_wall_times, timings_series

#: Full-scale sweep: 8 particles, 200 × (21 - history) = 4000 pooled samples
#: (the regime where the tree backend has clearly overtaken even the shared
#: dense path — see TE_PAIRWISE_KDTREE_MIN_SAMPLES).
FULL_CASE = dict(n_particles=8, n_samples=200, n_steps=21)
#: Smoke sweep: small enough for CI, still exercises every code path.
QUICK_CASE = dict(n_particles=4, n_samples=40, n_steps=11)
HISTORY = 1
LAG = 1
K = 4
#: The dense-loop baseline only needs one repetition: it is the slow side and
#: single-run noise is far below the asserted margin.
SPEEDUP_FLOOR = 3.0


def make_driven_ensemble(
    n_particles: int, n_samples: int, n_steps: int, seed: int = 0
) -> EnsembleTrajectory:
    """Coupling chain: particle p is driven by particle p - 1 (AR(1) noise)."""
    rng = np.random.default_rng(seed)
    positions = np.zeros((n_steps, n_samples, n_particles, 2))
    for t in range(1, n_steps):
        noise = rng.standard_normal((n_samples, n_particles, 2))
        positions[t] = 0.5 * positions[t - 1] + noise
        positions[t, :, 1:] += 0.8 * positions[t - 1, :, :-1]
    return EnsembleTrajectory(positions=positions, types=np.zeros(n_particles, dtype=int))


def naive_pairwise_te(ensemble: EnsembleTrajectory, *, history: int, k: int, backend: str) -> np.ndarray:
    """The pre-shared-embedding baseline: one full estimator call per pair."""
    n = ensemble.n_particles
    series = [particle_series(ensemble, p) for p in range(n)]
    matrix = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                matrix[i, j] = transfer_entropy(series[j], series[i], history=history, k=k, backend=backend)
    return matrix


def naive_pairwise_lagged_mi(ensemble: EnsembleTrajectory, *, lag: int, k: int, backend: str) -> np.ndarray:
    n = ensemble.n_particles
    series = [particle_series(ensemble, p) for p in range(n)]
    matrix = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                matrix[i, j] = time_lagged_mutual_information(
                    series[j], series[i], lag=lag, k=k, backend=backend
                )
    return matrix


def _timed(fn, repeats: int = 1) -> tuple[float, np.ndarray]:
    # Median of repeats (see bench_common.median_wall_times); the
    # computations are deterministic, so any repetition's result is the result.
    results = []
    seconds = median_wall_times({"run": lambda: results.append(fn())}, repeats)["run"]
    return seconds, results[-1]


def run_infodynamics_scaling(case: dict, seed: int = 0, repeats: int = 1) -> dict:
    """Time the three TE implementations (and the lagged-MI pair) on one case."""
    ensemble = make_driven_ensemble(seed=seed, **case)
    pooled = ensemble.n_samples * (ensemble.n_steps - HISTORY)

    te_naive_seconds, te_naive = _timed(
        lambda: naive_pairwise_te(ensemble, history=HISTORY, k=K, backend="dense"), repeats
    )
    te_dense_seconds, te_dense = _timed(
        lambda: pairwise_transfer_entropy(ensemble, history=HISTORY, k=K, backend="dense"), repeats
    )
    te_kdtree_seconds, te_kdtree = _timed(
        lambda: pairwise_transfer_entropy(ensemble, history=HISTORY, k=K, backend="kdtree"), repeats
    )
    mi_dense_seconds, mi_dense = _timed(
        lambda: pairwise_lagged_mutual_information(ensemble, lag=LAG, k=K, backend="dense"), repeats
    )
    mi_kdtree_seconds, mi_kdtree = _timed(
        lambda: pairwise_lagged_mutual_information(ensemble, lag=LAG, k=K, backend="kdtree"), repeats
    )
    te_fanout_seconds, te_fanout = _timed(
        lambda: pairwise_transfer_entropy(
            ensemble, history=HISTORY, k=K, backend="kdtree", n_jobs=2
        ),
        repeats,
    )

    # The KSG2 rectangle estimator on the pooled two-particle point clouds —
    # the §7.3 multi-information row that gained a tree backend.  Pooled m is
    # n_steps * n_samples (4200 at full scale, past the measured ksg2
    # crossover of 256).
    blocks = [ensemble.positions[:, :, p, :].reshape(-1, 2) for p in (0, 1)]
    multi_dense_seconds, multi_dense = _timed(
        lambda: ksg_multi_information(blocks, k=K, variant="ksg2", backend="dense"), repeats
    )
    multi_kdtree_seconds, multi_kdtree = _timed(
        lambda: ksg_multi_information(blocks, k=K, variant="ksg2", backend="kdtree"), repeats
    )

    # The streaming monitor replayed over the recorded trajectory — the live
    # `repro watch` path.  Pairwise scope (the 0 -> 1 driven pair) so the
    # series times the per-emission estimator rebuild, not an all-particle
    # sweep; stride 2 halves the emissions the way a real watch would.
    stream_window = max(HISTORY + 2, ensemble.n_steps // 2)
    stream_mi = StreamingMultiInformation((0, 1), k=K, backend="dense")
    stream_te = StreamingTransferEntropy(0, 1, history=HISTORY, k=K, backend="dense")
    stream_mi_seconds, mi_rows = _timed(
        lambda: replay_ensemble(ensemble, [stream_mi], window=stream_window, stride=2).rows,
        repeats,
    )
    stream_te_seconds, te_rows = _timed(
        lambda: replay_ensemble(ensemble, [stream_te], window=stream_window, stride=2).rows,
        repeats,
    )
    streaming_matches_posthoc = all(
        row.value == posthoc_window_value(estimator, ensemble.positions, row.step, stream_window)
        for estimator, rows in ((stream_mi, mi_rows), (stream_te, te_rows))
        for row in rows
    )

    return {
        "n_particles": ensemble.n_particles,
        "n_samples": ensemble.n_samples,
        "n_steps": ensemble.n_steps,
        "pooled_samples": pooled,
        "history": HISTORY,
        "lag": LAG,
        "k": K,
        "timings_seconds": {
            "te_naive_dense_loop": te_naive_seconds,
            "te_shared_dense": te_dense_seconds,
            "te_shared_kdtree": te_kdtree_seconds,
            "te_shared_kdtree_fanout2": te_fanout_seconds,
            "lagged_mi_shared_dense": mi_dense_seconds,
            "lagged_mi_shared_kdtree": mi_kdtree_seconds,
            "multi_ksg2_dense": multi_dense_seconds,
            "multi_ksg2_kdtree": multi_kdtree_seconds,
            "streaming_mi_window": stream_mi_seconds,
            "streaming_te_window": stream_te_seconds,
        },
        "streaming_window": stream_window,
        "streaming_emissions": len(mi_rows),
        "streaming_matches_posthoc": bool(streaming_matches_posthoc),
        "shared_dense_matches_naive": bool(np.array_equal(te_dense, te_naive)),
        "fanout_matches_serial": bool(np.array_equal(te_fanout, te_kdtree)),
        "backend_max_abs_diff_bits": float(np.abs(te_dense - te_kdtree).max()),
        "lagged_mi_backend_max_abs_diff_bits": float(np.abs(mi_dense - mi_kdtree).max()),
        "multi_ksg2_backend_abs_diff_bits": float(abs(multi_dense - multi_kdtree)),
        "speedup_shared_dense_vs_naive": te_naive_seconds / te_dense_seconds,
        "speedup_shared_kdtree_vs_naive": te_naive_seconds / te_kdtree_seconds,
        "speedup_kdtree_vs_dense_lagged_mi": mi_dense_seconds / mi_kdtree_seconds,
        "speedup_multi_ksg2_kdtree_vs_dense": multi_dense_seconds / multi_kdtree_seconds,
    }


def _format_row(row: dict) -> str:
    timings = "  ".join(
        f"{name} {seconds * 1e3:9.1f} ms" for name, seconds in row["timings_seconds"].items()
    )
    return (
        f"  n = {row['n_particles']}, pooled m = {row['pooled_samples']}:\n"
        f"    {timings}\n"
        f"    shared kdtree vs naive dense ×{row['speedup_shared_kdtree_vs_naive']:.1f}, "
        f"shared dense vs naive ×{row['speedup_shared_dense_vs_naive']:.1f}, "
        f"ksg2 kdtree vs dense ×{row['speedup_multi_ksg2_kdtree_vs_dense']:.1f}, "
        f"backend max |Δ| = {row['backend_max_abs_diff_bits']:.2e} bits, "
        f"shared == naive: {row['shared_dense_matches_naive']}"
    )


def _check(row: dict, smoke: bool) -> None:
    # Correctness first: the shared-embedding plan is pure reuse, so it must
    # reproduce the per-pair loop bit-for-bit, and the two backends answer
    # the same queries, so they agree to estimator-count tolerance.
    # Backend tolerance: the dense and tree paths take different FP routes to
    # the same distances, and the joint k-th neighbour sits exactly at ε, so
    # per-pair strict counts can flip by ±1 (see the equivalence suite).
    assert row["shared_dense_matches_naive"], row
    assert row["fanout_matches_serial"], row
    # The streaming monitor is pure windowing over the same estimators, so
    # every emission reproduces the post-hoc value bitwise (dense backend).
    assert row["streaming_emissions"] > 0, row
    assert row["streaming_matches_posthoc"], row
    assert row["backend_max_abs_diff_bits"] < 1e-2, row
    assert row["lagged_mi_backend_max_abs_diff_bits"] < 1e-2, row
    assert row["multi_ksg2_backend_abs_diff_bits"] < 1e-2, row
    if smoke:
        # Timer-noise-proof sanity only: the shared plan must not be slower
        # than the naive loop by more than scheduling jitter at tiny scale.
        assert row["speedup_shared_dense_vs_naive"] > 0.5, row
        return
    # The headline: shared embeddings + tree-backed estimators beat the
    # historical per-pair dense loop by >= 3x at n >= 8, pooled m >= 2000.
    assert row["n_particles"] >= 8 and row["pooled_samples"] >= 2000, row
    assert row["speedup_shared_kdtree_vs_naive"] >= SPEEDUP_FLOOR, row
    # The KSG2 tree backend must clearly beat dense at full-scale pooled m
    # (4200, far past its measured crossover of 256 samples).
    assert row["speedup_multi_ksg2_kdtree_vs_dense"] >= 2.0, row


def trajectory_series(row: dict) -> dict[str, float]:
    """Stable series keys of the infodynamics trajectory (BENCH_infodynamics.json)."""
    return timings_series([row], lambda r: f"pairwise/n{r['n_particles']}")


def test_infodynamics_scaling(benchmark, output_dir, bench_quick, perf_trajectory):
    case = QUICK_CASE if bench_quick else FULL_CASE
    # Quick-mode series are tens-to-hundreds of ms: the median of 5 so a
    # recorded trajectory point is the code's usual speed, not the
    # scheduler's mood.  The full case stays single-shot (the naive loop is
    # the multi-second slow side; single-run noise is far below the asserted
    # margin).
    repeats = 5 if bench_quick else 1
    row = benchmark.pedantic(
        lambda: run_infodynamics_scaling(case, repeats=repeats), rounds=1, iterations=1
    )
    save_json(output_dir / "infodynamics_scaling.json", row)
    announce("Information dynamics — naive loop vs shared-embedding + kdtree", _format_row(row))
    benchmark.extra_info.update(
        {
            "pooled_samples": row["pooled_samples"],
            "shared_kdtree_speedup": round(row["speedup_shared_kdtree_vs_naive"], 2),
            "shared_dense_speedup": round(row["speedup_shared_dense_vs_naive"], 2),
            "ksg2_kdtree_speedup": round(row["speedup_multi_ksg2_kdtree_vs_dense"], 2),
        }
    )
    _check(row, smoke=bench_quick)
    perf_trajectory.submit(
        "infodynamics", trajectory_series(row), headline=dict(benchmark.extra_info)
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="tiny case, smoke checks only")
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).parent / "output" / "infodynamics_scaling.json",
        help="JSON output path",
    )
    args = parser.parse_args(argv)
    row = run_infodynamics_scaling(
        QUICK_CASE if args.quick else FULL_CASE, repeats=5 if args.quick else 1
    )
    save_json(args.output, row)
    announce("Information dynamics — naive loop vs shared-embedding + kdtree", _format_row(row))
    print(f"results written to {args.output}")
    _check(row, smoke=args.quick)
    return 0


if __name__ == "__main__":
    sys.exit(main())
