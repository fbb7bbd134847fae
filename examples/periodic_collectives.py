"""Collectives on the periodic torus: density-controlled steady states.

The paper's experiments live in the free plane, where a collective picks its
own size: attraction sets the equilibrium diameter and the initial disc only
seeds it.  On the torus ``[0, L)²`` the box side is a *control parameter* —
``n / L²`` fixes the global density forever, a regime free space cannot
express (the lattice-style interacting-particle-system setting).

This example runs the same 200-particle, two-type collective at three box
sides.  At high density the cut-off disc always contains neighbours and the
system settles into a space-filling foam; at low density the same particles
condense into isolated droplets separated by vacuum.  The mean
nearest-neighbour distance (measured with minimum-image displacements)
tracks the transition.

It also demonstrates the engine contract on wrapped domains: the run is
repeated with the dense broadcast and the sparse cell-list kernel on the
identical seed, and the trajectories agree bit for bit.

Run with ``PYTHONPATH=src python examples/periodic_collectives.py``.
"""

from __future__ import annotations

import time

import numpy as np

from repro import EnsembleSimulator, InteractionParams, SimulationConfig
from repro.particles.domain import PeriodicDomain


def make_config(box: float, engine: str = "auto") -> SimulationConfig:
    params = InteractionParams.clustering(2, self_distance=0.8, cross_distance=1.6, k=2.0)
    return SimulationConfig(
        type_counts=(100, 100),
        params=params,
        force="F2",
        cutoff=2.0,
        domain=f"periodic:{box}",
        dt=0.05,
        substeps=1,
        n_steps=25,
        noise_variance=0.01,
        engine=engine,
    )


def mean_nearest_neighbor_distance(snapshot: np.ndarray, domain: PeriodicDomain) -> float:
    """Mean over particles of the minimum-image distance to the closest other."""
    delta = domain.displacement(snapshot[:, None, :], snapshot[None, :, :])
    dist = np.sqrt(np.einsum("ijk,ijk->ij", delta, delta))
    np.fill_diagonal(dist, np.inf)
    return float(dist.min(axis=1).mean())


def main() -> None:
    print("density sweep: 200 particles, r_c = 2, periodic box of side L")
    for box in (12.0, 20.0, 40.0):
        config = make_config(box)
        density = config.n_particles / box**2
        simulator = EnsembleSimulator(config, 8, seed=3)
        start = time.perf_counter()
        trajectory = simulator.run()
        elapsed = time.perf_counter() - start
        domain = config.resolved_domain
        final = trajectory.positions[-1]
        nnd = float(np.mean([mean_nearest_neighbor_distance(s, domain) for s in final]))
        assert np.all(final >= 0.0) and np.all(final < box)
        print(
            f"  L = {box:5.1f}  density = {density:6.3f}  auto -> "
            f"{config.resolved_engine:6s}  mean NN distance = {nnd:5.2f}  "
            f"({elapsed * 1e3:6.1f} ms, m = 8)"
        )

    print("\nengine contract on the torus (identical seed, L = 20):")
    reference = None
    for engine in ("dense", "sparse"):
        config = make_config(20.0, engine=engine)
        positions = EnsembleSimulator(config, 8, seed=3).run().positions
        if reference is None:
            reference = positions
        else:
            print(f"  dense vs sparse bit-identical: {np.array_equal(positions, reference)}")


if __name__ == "__main__":
    main()
