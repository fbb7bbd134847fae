"""Ablation — simulation substrate choices: integrator order and neighbour search.

Two design choices of the simulation substrate are checked here:

* **Integrator.**  The paper integrates with Euler–Maruyama; the library also
  provides a stochastic Heun scheme.  For the step sizes used in the
  experiments both must produce statistically equivalent collectives — the
  ablation compares the final radius of gyration and nearest-neighbour
  spacing of matched ensembles.
* **Neighbour search.**  The sparse engine's cell list must agree with the
  brute-force search while scaling better for large, short-ranged
  collectives; the ablation times one sparse drift evaluation per search on
  a 600-particle collective.
"""

from __future__ import annotations

import time

import numpy as np

from repro.analysis import nearest_neighbor_distances, radius_of_gyration
from repro.particles.engine import sparse_drift_batch
from repro.particles.ensemble import EnsembleSimulator
from repro.particles.model import SimulationConfig, initial_ensemble_for
from repro.particles.neighbors import BruteForceNeighbors, CellListNeighbors
from repro.particles.types import InteractionParams
from repro.viz import save_json

from bench_common import announce


def _integrator_comparison():
    params = InteractionParams.clustering(2, self_distance=1.0, cross_distance=2.5, k=2.0)
    base = dict(
        type_counts=(8, 8),
        params=params,
        force="F1",
        dt=0.02,
        substeps=3,
        n_steps=25,
        init_radius=3.0,
    )
    stats = {}
    for integrator in ("euler-maruyama", "heun"):
        config = SimulationConfig(**base, integrator=integrator)
        ensemble = EnsembleSimulator(config, 32, seed=0).run()
        final = ensemble.positions[-1]
        stats[integrator] = {
            "radius_of_gyration": float(np.mean(radius_of_gyration(final))),
            "mean_nn_distance": float(
                np.mean([nearest_neighbor_distances(final[m]).mean() for m in range(final.shape[0])])
            ),
        }
    return stats


def _neighbor_search_timing():
    params = InteractionParams.single_type(k=1.0, r=1.0)
    config = SimulationConfig(
        type_counts=(600,), params=params, force="F1", cutoff=2.0, init_radius=14.0, n_steps=1
    )
    positions = initial_ensemble_for(config, 1, np.random.default_rng(0))
    timings = {}
    drifts = {}
    for name, search in (("brute", BruteForceNeighbors()), ("cell", CellListNeighbors())):
        start = time.perf_counter()
        drifts[name] = sparse_drift_batch(positions, config.types, params, "F1", 2.0, search)[0]
        timings[name] = time.perf_counter() - start
    return timings, drifts


def test_ablation_integrator_equivalence(benchmark, output_dir):
    stats = benchmark.pedantic(_integrator_comparison, rounds=1, iterations=1)
    save_json(output_dir / "ablation_integrators.json", stats)
    announce(
        "Ablation — Euler–Maruyama vs stochastic Heun",
        "\n".join(
            f"  {name:15s}: R_g = {row['radius_of_gyration']:.3f}, "
            f"mean NN distance = {row['mean_nn_distance']:.3f}"
            for name, row in stats.items()
        ),
    )
    euler, heun = stats["euler-maruyama"], stats["heun"]
    benchmark.extra_info.update({k: round(v, 4) for k, v in euler.items()})
    # Statistically equivalent collectives: bulk observables agree within 10 %.
    assert abs(euler["radius_of_gyration"] - heun["radius_of_gyration"]) < 0.1 * euler["radius_of_gyration"]
    assert abs(euler["mean_nn_distance"] - heun["mean_nn_distance"]) < 0.1 * euler["mean_nn_distance"]


def test_ablation_neighbor_backends(benchmark, output_dir):
    timings, drifts = benchmark.pedantic(_neighbor_search_timing, rounds=1, iterations=1)
    save_json(output_dir / "ablation_neighbors.json", timings)
    announce(
        "Ablation — neighbour searches (600 particles, r_c = 2)",
        "\n".join(f"  {name:7s}: {seconds*1e3:7.2f} ms per drift evaluation" for name, seconds in timings.items()),
    )
    benchmark.extra_info.update({name: round(seconds * 1e3, 2) for name, seconds in timings.items()})
    # Correctness: the cell list reproduces the brute-force drift.
    np.testing.assert_allclose(drifts["cell"], drifts["brute"], atol=1e-9)
