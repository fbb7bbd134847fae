"""Comparing multi-information estimators (the paper's §5.3 methodology choice).

The paper selects the Kraskov–Stögbauer–Grassberger (KSG) k-nearest-neighbour
estimator after comparing it against a kernel-density estimator (orders of
magnitude slower, higher variance in high dimension) and a shrinkage binning
estimator (badly over-estimates under sparse sampling).  This example re-runs
that comparison on two test beds:

1. correlated Gaussians with a known analytic multi-information, and
2. an actual aligned particle-ensemble snapshot from a small experiment.

Run with ``python examples/estimator_comparison.py``.
"""

from __future__ import annotations

import time

import numpy as np

from repro import EnsembleSimulator, InteractionParams, SimulationConfig
from repro.alignment import align_snapshot
from repro.infotheory import (
    histogram_multi_information,
    kde_multi_information,
    ksg_multi_information,
)
from repro.viz import series_table


def gaussian_benchmark(rho: float = 0.8, m: int = 500, n_vars: int = 6, seed: int = 0) -> None:
    """Estimate the multi-information of jointly Gaussian observers with a known value."""
    rng = np.random.default_rng(seed)
    # Common-cause construction: X_i = Z + noise, all pairwise correlations equal.
    noise = np.sqrt(1.0 / rho - 1.0)
    shared = rng.standard_normal((m, 1))
    variables = [shared + noise * rng.standard_normal((m, 1)) for _ in range(n_vars)]
    # Analytic multi-information of the equicorrelated Gaussian vector.
    correlation = 1.0 / (1.0 + noise**2)
    cov = np.full((n_vars, n_vars), correlation)
    np.fill_diagonal(cov, 1.0)
    analytic = -0.5 * np.log2(np.linalg.det(cov))

    rows: dict[str, list] = {"estimator": [], "estimate (bits)": [], "error": [], "runtime (s)": []}
    estimators = {
        "KSG (algorithm 2)": lambda vs: ksg_multi_information(vs, k=5, variant="ksg2"),
        "KSG (algorithm 1)": lambda vs: ksg_multi_information(vs, k=5, variant="ksg1"),
        "KSG (paper Eq.18)": lambda vs: ksg_multi_information(vs, k=5, variant="paper"),
        "Gaussian KDE": kde_multi_information,
        "histogram (8 bins)": lambda vs: histogram_multi_information(vs, n_bins=8),
        "shrinkage histogram": lambda vs: histogram_multi_information(vs, n_bins=8, shrinkage=True),
    }
    for name, estimator in estimators.items():
        start = time.perf_counter()
        value = float(estimator(variables))
        elapsed = time.perf_counter() - start
        rows["estimator"].append(name)
        rows["estimate (bits)"].append(value)
        rows["error"].append(value - analytic)
        rows["runtime (s)"].append(elapsed)

    print(f"Equicorrelated Gaussian test bed: {n_vars} scalar observers, m = {m} samples")
    print(f"analytic multi-information: {analytic:.3f} bits")
    print(
        series_table(
            {key: np.asarray(vals, dtype=object if key == "estimator" else float) for key, vals in rows.items()},
            float_format="{:.3f}",
        )
    )
    print()


def particle_benchmark(seed: int = 1) -> None:
    """Estimate the multi-information of an aligned particle snapshot with every estimator."""
    params = InteractionParams.clustering(2, self_distance=1.0, cross_distance=2.5, k=2.0)
    config = SimulationConfig(
        type_counts=(6, 6), params=params, force="F1", dt=0.02, substeps=3, n_steps=25,
        init_radius=3.0,
    )
    ensemble = EnsembleSimulator(config, 96, seed=seed).run()
    reduced = align_snapshot(ensemble.snapshot(ensemble.n_steps - 1), ensemble.types)
    observers = reduced.reduced  # (m, n, 2)

    print(f"Particle test bed: {observers.shape[1]} particle observers, m = {observers.shape[0]} samples")
    for name, estimator in (
        ("KSG (algorithm 2)", lambda vs: ksg_multi_information(vs, k=4)),
        ("Gaussian KDE", kde_multi_information),
        ("histogram (6 bins)", lambda vs: histogram_multi_information(vs, n_bins=6)),
    ):
        start = time.perf_counter()
        value = float(estimator(observers))
        elapsed = time.perf_counter() - start
        print(f"  {name:22s}: {value:8.2f} bits   ({elapsed:.2f} s)")
    print()
    print(
        "The histogram estimate explodes with the joint dimension (sparse sampling), and the\n"
        "KDE estimate is the slowest — the two observations that made the paper choose KSG."
    )


def main() -> None:
    gaussian_benchmark()
    particle_benchmark()


if __name__ == "__main__":
    main()
