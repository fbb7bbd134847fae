"""Process-pool maps for embarrassingly parallel sweeps.

The particle ensembles themselves are vectorised with NumPy (see
:mod:`repro.particles.ensemble`); the pool here is for the *outer* loops of
the evaluation harness — independent parameter draws, radius sweeps, repeated
experiments — where each task is seconds of work and the pickling overhead is
negligible.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Callable, Iterable, Sequence, TypeVar

__all__ = [
    "parallel_starmap",
    "parallel_starmap_unordered",
    "available_cpu_count",
    "effective_n_jobs",
]

R = TypeVar("R")


def available_cpu_count() -> int:
    """CPUs actually available to *this process*, not merely present.

    ``os.cpu_count()`` reports the machine's cores even when a cgroup quota
    or a CPU-affinity mask (containerised CI, ``taskset``, SLURM cpusets)
    grants the process far fewer — sizing a pool from it oversubscribes the
    real allocation.  The scheduler affinity mask reflects those limits, so
    it wins wherever the platform exposes it.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return len(getaffinity(0)) or 1
        except OSError:  # pragma: no cover - exotic platform quirk
            pass
    return os.cpu_count() or 1


def effective_n_jobs(n_jobs: int | None) -> int:
    """Resolve an ``n_jobs`` request against the available CPU count.

    ``None`` or ``1`` → serial execution (1).  ``-1`` → all *available*
    cores (affinity/cgroup aware, see :func:`available_cpu_count`).
    Positive values are clipped to the number of available cores.
    """
    cpus = available_cpu_count()
    if n_jobs is None:
        return 1
    if n_jobs == -1:
        return cpus
    if n_jobs <= 0:
        raise ValueError(f"n_jobs must be positive, -1, or None; got {n_jobs}")
    return min(n_jobs, cpus)


def parallel_starmap(
    func: Callable[..., R],
    items: Sequence[tuple] | Iterable[tuple],
    *,
    n_jobs: int | None = None,
) -> list[R]:
    """Map ``func(*item)`` over an iterable of argument tuples, in input order.

    The parallel variant submits every task individually and collects the
    results in submission order, so the output is deterministic regardless of
    worker scheduling — the property the pairwise information-dynamics
    fan-out relies on.  Serial execution (``n_jobs in (None, 1)``) unpacks in
    a plain loop and therefore also works with non-picklable arguments.
    """
    items = [tuple(item) for item in items]
    jobs = effective_n_jobs(n_jobs)
    if jobs == 1 or len(items) <= 1:
        return [func(*item) for item in items]
    # Manual pool lifecycle: the `with` form's __exit__ calls
    # shutdown(wait=True), which blocks until *running* tasks finish even
    # after pending futures are cancelled — so one failed task would wait out
    # every in-flight task before the exception reaches the caller.
    pool = ProcessPoolExecutor(max_workers=jobs)
    try:
        futures = [pool.submit(func, *item) for item in items]
        results = [future.result() for future in futures]
    except BaseException:
        # A task error must not wait for the whole queue to drain: drop what
        # hasn't started and propagate immediately.  Already-running tasks
        # cannot be interrupted; they finish in the background while the
        # caller already has the exception.
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    pool.shutdown(wait=True)
    return results


def parallel_starmap_unordered(
    func: Callable[..., R],
    items: Sequence[tuple] | Iterable[tuple],
    *,
    n_jobs: int | None = None,
) -> Iterable[tuple[int, R]]:
    """Yield ``(index, result)`` pairs as tasks *complete*, in completion order.

    Unlike :func:`parallel_starmap`, which returns every result at once in
    input order, this surfaces each pair the moment its worker finishes,
    which is what incremental checkpointing needs to lose only genuinely
    in-flight work on interruption.  The index identifies the
    input item, so callers needing deterministic output reassemble by index.
    Serial execution (``n_jobs in (None, 1)``) yields in input order.
    """
    items = [tuple(item) for item in items]
    jobs = effective_n_jobs(n_jobs)
    if jobs == 1 or len(items) <= 1:
        for index, item in enumerate(items):
            yield index, func(*item)
        return
    # Manual pool lifecycle for the same reason as parallel_starmap: the
    # `with` form would block in shutdown(wait=True) on in-flight tasks.
    pool = ProcessPoolExecutor(max_workers=jobs)
    try:
        future_to_index = {pool.submit(func, *item): index for index, item in enumerate(items)}
        for future in as_completed(future_to_index):
            yield future_to_index[future], future.result()
    except BaseException:
        # Same early-exit discipline as parallel_starmap: an error
        # (e.g. a failed checkpoint write in the consumer) surfaces
        # immediately instead of after every queued and running task has run.
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    else:
        pool.shutdown(wait=True)
