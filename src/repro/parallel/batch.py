"""Helpers for splitting large ensembles into memory-bounded batches.

The batched drift evaluation materialises an ``(m, n, n, 2)`` displacement
array per step.  For large ensembles this can exceed memory, so the ensemble
simulator processes samples in batches whose pairwise buffers stay below a
configurable byte budget.
"""

from __future__ import annotations

__all__ = ["batch_slices", "max_batch_for_budget"]


def max_batch_for_budget(
    n_particles: int,
    *,
    bytes_budget: int = 256 * 1024 * 1024,
    itemsize: int = 8,
    buffers_per_sample: int = 4,
) -> int:
    """Largest number of samples whose pairwise buffers fit the budget.

    The dominant temporary is the displacement tensor ``(batch, n, n, 2)``
    plus a handful of ``(batch, n, n)`` scalars; ``buffers_per_sample``
    approximates that constant factor.  Always returns at least 1 so a single
    sample is never refused.
    """
    if n_particles <= 0:
        raise ValueError("n_particles must be positive")
    per_sample = buffers_per_sample * n_particles * n_particles * 2 * itemsize
    return max(1, int(bytes_budget // max(per_sample, 1)))


def batch_slices(n_items: int, batch_size: int) -> list[slice]:
    """Contiguous slices covering ``range(n_items)`` with the given batch size."""
    if n_items < 0:
        raise ValueError("n_items must be non-negative")
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    return [slice(start, min(start + batch_size, n_items)) for start in range(0, n_items, batch_size)]
