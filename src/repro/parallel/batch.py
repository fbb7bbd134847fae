"""Helpers for splitting large ensembles into batches under a byte budget.

The ensemble simulator processes samples in batches sized by
:func:`max_batch_for_budget`.  The budget was set when the dense drift
kernel materialised an ``(m, n, n, 2)`` displacement array per step; the
kernel now works on cache-sized blocks of samples, so its memory no longer
grows with the batch.  The budget still fixes the batch *layout*, and the
layout seeds the per-batch random streams (one pair per batch), so every
stored trajectory depends on it: the arithmetic below must not change.
"""

from __future__ import annotations

__all__ = ["batch_slices", "max_batch_for_budget"]


def max_batch_for_budget(n_particles: int, *, bytes_budget: int = 256 * 1024 * 1024) -> int:
    """Batch size for ``n_particles``-particle samples under ``bytes_budget``.

    Sized for the former ``(batch, n, n, 2)`` float64 displacement tensor
    plus a handful of ``(batch, n, n)`` scalars (four such tensors per
    sample in all) and kept as is, because the batch layout seeds the random
    streams (see the module docstring).  Always returns at least 1 so a
    single sample is never refused.
    """
    if n_particles <= 0:
        raise ValueError("n_particles must be positive")
    per_sample = 4 * n_particles * n_particles * 2 * 8
    return max(1, int(bytes_budget // per_sample))


def batch_slices(n_items: int, batch_size: int) -> list[slice]:
    """Contiguous slices covering ``range(n_items)`` with the given batch size."""
    if n_items < 0:
        raise ValueError("n_items must be non-negative")
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    return [slice(start, min(start + batch_size, n_items)) for start in range(0, n_items, batch_size)]
