#!/usr/bin/env python
"""One SHA-256 per workload and seed over every alignment the pipeline makes.

Runs the quick fig4 unit and repeat 0 of the six quick fig9 cut-off units
serially, with ``align_snapshot`` wrapped at the name the analysis calls it
by (``repro.core.self_organization``), and hashes every result's
``reduced`` coordinates, ``rmse`` and ``reference_index`` in call order::

    PYTHONPATH=src python scripts/alignment_digest.py --seeds 1 2 3

prints lines such as ``fig4_unit seed 1 <sha256>``.  A change meant to leave
the alignment bitwise as it was must print the same lines as its parent
commit: run this file against each commit's ``src`` on the same machine.
The digests depend on the LAPACK build (Kabsch's SVD), so they are not
comparable across machines or environments.
"""

from __future__ import annotations

import argparse
import hashlib

import numpy as np

import repro.core.self_organization as self_organization
from repro.core.experiments import fig4_multi_information_plan, fig9_radius_sweep_plan

SWEEP_UNITS = 6  # repeat 0 of the six fig9 cut-offs


def _plans(seed: int) -> dict:
    return {
        "fig4_unit": fig4_multi_information_plan(full=False, seed=seed),
        "fig9_sweep": fig9_radius_sweep_plan(full=False, seed=seed).limit(SWEEP_UNITS),
    }


def alignment_digest(plan) -> str:
    """Execute ``plan`` serially without a store and hash every alignment it makes."""
    digest = hashlib.sha256()
    align_snapshot = self_organization.align_snapshot

    def recorded(*args, **kwargs):
        result = align_snapshot(*args, **kwargs)
        for array in (result.reduced, result.rmse, np.int64(result.reference_index)):
            array = np.ascontiguousarray(array)
            digest.update(f"{array.dtype.str}{array.shape}".encode())
            digest.update(array.tobytes())
        return result

    self_organization.align_snapshot = recorded
    try:
        plan.execute(None, n_jobs=None)
    finally:
        self_organization.align_snapshot = align_snapshot
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1], help="figure-factory seeds")
    args = parser.parse_args(argv)
    for seed in args.seeds:
        for workload, plan in _plans(seed).items():
            print(f"{workload} seed {seed} {alignment_digest(plan)}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
