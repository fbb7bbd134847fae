"""Adaptive engine selection on a contracting collective.

A strongly adhesive 300-particle collective starts as a ~10-unit disc —
wider than the 6-unit interaction cut-off, so the ``"auto"`` engine resolves
to the sparse neighbour-pair kernel.  As the attraction pulls the collective
together the cut-off disc stops pruning pairs, and the adaptive engine
(re-checking its choice at every recorded step against the live bounding
box) drops to the dense kernel mid-run.  Because the two kernels agree bit
for bit, the switch changes *nothing* about the trajectory — only how fast
it is computed, which this example demonstrates by re-running the identical
seed with each engine forced end-to-end.

Run with ``PYTHONPATH=src python examples/adaptive_engine_contraction.py``.
"""

from __future__ import annotations

import time

import numpy as np

from repro import EnsembleSimulator, InteractionParams, SimulationConfig
from repro.particles.engine import collective_radius, resolve_engine

SEED = 42


def make_config(engine: str) -> SimulationConfig:
    params = InteractionParams.clustering(2, self_distance=0.5, cross_distance=0.5, k=0.05)
    return SimulationConfig(
        type_counts=(150, 150),
        params=params,
        force="F1",
        cutoff=6.0,
        dt=0.05,
        substeps=1,
        n_steps=30,
        noise_variance=0.01,
        engine=engine,
    )


class EngineTrace:
    """Step observer reporting the kernel ``"auto"`` runs on.

    After every recorded step the adaptive engine re-resolves its choice
    from the live bounding box, so the same heuristic applied to the
    observed frame names the kernel the next step runs on.
    """

    def __init__(self, config: SimulationConfig) -> None:
        self.config = config
        self.choices = [config.resolved_engine]

    def on_step(self, step: int, positions: np.ndarray) -> None:
        if step == 0:
            return  # the initial choice comes from the initial disc radius
        radius = collective_radius(positions)
        resolved = resolve_engine(
            "auto",
            n_particles=self.config.n_particles,
            cutoff=self.config.cutoff,
            domain_radius=radius,
        )
        if resolved != self.choices[-1]:
            print(
                f"  step {step:3d}: collective radius {radius:5.2f} -> engine switched "
                f"{self.choices[-1]} -> {resolved}"
            )
        self.choices.append(resolved)


def run_adaptive() -> np.ndarray:
    config = make_config("auto")
    print(
        f"n = {config.n_particles}, r_c = {config.cutoff}, "
        f"initial disc radius = {config.disc_radius:.1f} "
        f"-> auto resolves to {config.resolved_engine!r}"
    )
    # A single run is an ensemble of one.
    simulator = EnsembleSimulator(config, 1, seed=SEED)
    trace = EngineTrace(config)
    simulator.add_observer(trace)
    positions = simulator.run().positions
    print(
        f"  final collective radius {collective_radius(positions[-1]):.2f}, "
        f"engine ended on {trace.choices[-1]!r}"
    )
    return positions


def main() -> None:
    adaptive = run_adaptive()

    # The same seed, with each engine forced end-to-end: identical bits,
    # different wall time (the adaptive run tracks whichever is cheaper).
    print("\nre-running the identical seed with each engine forced end-to-end:")
    for engine in ("auto", "dense", "sparse"):
        start = time.perf_counter()
        forced = EnsembleSimulator(make_config(engine), 1, seed=SEED).run().positions
        elapsed = time.perf_counter() - start
        identical = np.array_equal(forced, adaptive)
        print(f"  {engine:6s}: {elapsed * 1e3:7.1f} ms, bit-identical to adaptive: {identical}")


if __name__ == "__main__":
    main()
