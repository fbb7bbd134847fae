"""Scale past the paper: a 1000-particle collective on the sparse drift engine.

The paper's experiments stop at n = 120 particles, where the dense all-pairs
kernel is fastest.  This example shows the path beyond: with a short
interaction cut-off, ``SimulationConfig(engine="auto")`` switches to the
sparse neighbour-pair engine, whose cost scales with the number of
*interacting* pairs instead of n².  We run a short simulation of the large
collective, then time one drift evaluation of its initial state on both
engines and verify they agree.

Run with ``PYTHONPATH=src python examples/large_collective_engine.py``.
"""

from __future__ import annotations

import time

import numpy as np

from repro import EnsembleSimulator, InteractionParams, SimulationConfig
from repro.particles.engine import make_engine


def main() -> None:
    # Two types at unit initial density, preferred same-type distance 1.0,
    # and a cut-off of 2.0 — tiny compared to the ~36-unit collective
    # diameter, so almost every pair can be pruned.
    params = InteractionParams.clustering(2, self_distance=1.0, cross_distance=2.5, k=2.0)
    config = SimulationConfig(
        type_counts=(500, 500),
        params=params,
        force="F1",
        cutoff=2.0,
        dt=0.02,
        substeps=1,
        n_steps=20,
        engine="auto",
    )
    print(f"collective size n = {config.n_particles}, cutoff r_c = {config.cutoff}")
    print(f"engine = {config.engine!r}  ->  resolved to {config.resolved_engine!r}")

    # Run the large collective for a few steps — entirely on the sparse path.
    # A single run is an ensemble of one.
    start = time.perf_counter()
    positions = EnsembleSimulator(config, 1, seed=0).run().positions[:, 0]
    elapsed = time.perf_counter() - start

    # Compare one drift evaluation on both engines at the initial state.
    common = dict(types=config.types, params=params, scaling="F1", cutoff=config.cutoff)
    timings = {}
    drifts = {}
    for name in ("dense", "sparse"):
        engine = make_engine(name, **common)
        start = time.perf_counter()
        drifts[name] = engine.drift(positions[0])
        timings[name] = time.perf_counter() - start
    agreement = float(np.abs(drifts["sparse"] - drifts["dense"]).max())
    print(f"dense  drift: {timings['dense'] * 1e3:7.2f} ms")
    print(
        f"sparse drift: {timings['sparse'] * 1e3:7.2f} ms "
        f"(x{timings['dense'] / timings['sparse']:.1f} faster, "
        f"max |difference| = {agreement:.1e})"
    )

    displacement = np.linalg.norm(positions[-1] - positions[0], axis=-1)
    print(
        f"simulated {config.n_steps} steps in {elapsed:.2f} s "
        f"({elapsed / config.n_steps * 1e3:.1f} ms/step); "
        f"mean particle displacement {displacement.mean():.2f}"
    )


if __name__ == "__main__":
    main()
