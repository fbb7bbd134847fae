"""Parallel and reproducible-randomness utilities.

The heavy numerical work in :mod:`repro` is vectorised over the ensemble axis
(first optimisation lever, per the scientific-Python guidance: vectorise
before you parallelise).  The helpers in this subpackage cover the second
lever: independent random streams for ensemble members and a process-pool
map for embarrassingly parallel sweeps (parameter scans, repeated
experiments).
"""

from repro.parallel.rng import seed_streams, spawn_generator, derive_seed
from repro.parallel.pool import available_cpu_count, parallel_starmap
from repro.parallel.batch import batch_slices

__all__ = [
    "seed_streams",
    "spawn_generator",
    "derive_seed",
    "available_cpu_count",
    "parallel_starmap",
    "batch_slices",
]
