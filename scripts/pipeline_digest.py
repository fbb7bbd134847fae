#!/usr/bin/env python
"""One SHA-256 per workload and seed over what the pipeline simulates and aligns.

Runs five quick workloads serially, without a store:

* ``fig4_unit`` — the quick fig4 unit (F1, free plane, three types);
* ``fig9_sweep`` — repeat 0 of the six quick fig9 cut-off units (F1);
* ``fig3_unit`` — the quick three-type fig3 unit (F2, no cut-off);
* ``periodic_unit`` — two F2 types on a periodic box, like
  ``examples/periodic_collectives.py`` but small enough for the dense kernel;
* ``channel_unit`` — two F1 types in a channel, like
  ``examples/channel_collectives.py``.

For every unit, in plan order, it hashes the simulated positions and the
mean force norms, and every ``align_snapshot`` result (``reduced``,
``rmse`` and ``reference_index``, in call order; ``align_snapshot`` is
wrapped at the name the analysis calls it by,
``repro.core.self_organization``)::

    PYTHONPATH=src python scripts/pipeline_digest.py --seeds 1 2 3

prints lines such as ``fig4_unit seed 1 <sha256>``.  A change meant to leave
the simulation and the alignment bitwise as they were must print the same
lines as its parent commit: run this file against each commit's ``src`` on
the same machine.  The digests depend on the LAPACK build (Kabsch's SVD) and
on the libm's ``exp``, so they are not comparable across machines or
environments.
"""

from __future__ import annotations

import argparse
import hashlib

import numpy as np

import repro.core.self_organization as self_organization
from repro.core.experiments import (
    ExperimentSpec,
    fig3_equilibria,
    fig4_multi_information_plan,
    fig9_radius_sweep_plan,
)
from repro.core.plan import ExperimentPlan
from repro.core.self_organization import AnalysisConfig
from repro.parallel.rng import derive_seed
from repro.particles import InteractionParams, SimulationConfig

SWEEP_UNITS = 6  # repeat 0 of the six fig9 cut-offs


def _domain_spec(name: str, domain: str, type_counts: tuple[int, int], force: str, seed: int) -> ExperimentSpec:
    simulation = SimulationConfig(
        type_counts=type_counts,
        params=InteractionParams.clustering(2, self_distance=0.8, cross_distance=1.6, k=2.0),
        force=force,
        cutoff=2.0,
        domain=domain,
        dt=0.05,
        n_steps=25,
        noise_variance=0.01,
        engine="dense",
    )
    return ExperimentSpec(
        name=name,
        description=f"{force} collective on {domain}",
        simulation=simulation,
        n_samples=16,
        analysis=AnalysisConfig(step_stride=5),
        seed=derive_seed(seed, name),
    )


def _plans(seed: int) -> dict[str, ExperimentPlan]:
    return {
        "fig4_unit": fig4_multi_information_plan(full=False, seed=seed),
        "fig9_sweep": fig9_radius_sweep_plan(full=False, seed=seed).limit(SWEEP_UNITS),
        "fig3_unit": ExperimentPlan.single(fig3_equilibria(3, full=False, seed=seed)),
        "periodic_unit": ExperimentPlan.single(
            _domain_spec("periodic", "periodic:8.0", (20, 20), "F2", seed)
        ),
        "channel_unit": ExperimentPlan.single(
            _domain_spec("channel", "channel:16,4", (16, 16), "F1", seed)
        ),
    }


def _update(digest, array) -> None:
    array = np.ascontiguousarray(array)
    digest.update(f"{array.dtype.str}{array.shape}".encode())
    digest.update(array.tobytes())


def pipeline_digest(plan: ExperimentPlan) -> str:
    """Execute ``plan`` serially without a store and hash what it simulates and aligns."""
    digest = hashlib.sha256()
    align_snapshot = self_organization.align_snapshot

    def recorded(*args, **kwargs):
        result = align_snapshot(*args, **kwargs)
        for array in (result.reduced, result.rmse, np.int64(result.reference_index)):
            _update(digest, array)
        return result

    self_organization.align_snapshot = recorded
    try:
        execution = plan.execute(None, n_jobs=None, keep_ensembles=True)
    finally:
        self_organization.align_snapshot = align_snapshot
    for result in execution.results:
        _update(digest, result.ensemble.positions)
        _update(digest, result.mean_force_norm)
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1], help="figure-factory seeds")
    args = parser.parse_args(argv)
    for seed in args.seeds:
        for workload, plan in _plans(seed).items():
            print(f"{workload} seed {seed} {pipeline_digest(plan)}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
