"""Tests for repro.parallel.pool."""

from __future__ import annotations

import os
import time

import pytest

from repro.parallel.pool import (
    available_cpu_count,
    effective_n_jobs,
    parallel_starmap,
)


def _square(x: int) -> int:
    return x * x


def _sleepy_identity(delay: float) -> float:
    import time

    time.sleep(delay)
    return delay


def _weighted_sum(x: int, y: int, w: int = 1) -> int:
    return x + w * y


def _maybe_boom(delay: float, boom: bool) -> float:
    import time

    time.sleep(delay)
    if boom:
        raise ValueError("poison task")
    return delay


class TestEffectiveNJobs:
    def test_none_is_serial(self):
        assert effective_n_jobs(None) == 1

    def test_minus_one_uses_all_available_cores(self):
        assert effective_n_jobs(-1) == available_cpu_count()

    def test_clipped_to_available_cpu_count(self):
        assert effective_n_jobs(10_000) <= available_cpu_count()

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            effective_n_jobs(0)

    def test_negative_other_than_minus_one_rejected(self):
        with pytest.raises(ValueError):
            effective_n_jobs(-2)


class TestAvailableCpuCount:
    """The pool must size itself to the CPUs it may *use*, not those that exist.

    In a cgroup-limited CI container (or under ``taskset``) ``os.cpu_count()``
    reports the whole machine while the scheduler affinity mask holds the
    real allocation — resolving ``-1`` against the former oversubscribes the
    pool.  The affinity mask wins wherever the platform exposes it.
    """

    def test_affinity_mask_wins_over_cpu_count(self, monkeypatch):
        import repro.parallel.pool as pool_mod

        monkeypatch.setattr(pool_mod.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(pool_mod.os, "cpu_count", lambda: 64)
        assert pool_mod.available_cpu_count() == 2
        assert pool_mod.effective_n_jobs(-1) == 2
        assert pool_mod.effective_n_jobs(8) == 2

    def test_falls_back_to_cpu_count_without_affinity_support(self, monkeypatch):
        import repro.parallel.pool as pool_mod

        monkeypatch.delattr(pool_mod.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(pool_mod.os, "cpu_count", lambda: 7)
        assert pool_mod.available_cpu_count() == 7

    def test_never_returns_zero(self, monkeypatch):
        import repro.parallel.pool as pool_mod

        monkeypatch.setattr(pool_mod.os, "sched_getaffinity", lambda pid: set(), raising=False)
        monkeypatch.setattr(pool_mod.os, "cpu_count", lambda: None)
        assert pool_mod.available_cpu_count() == 1

    def test_matches_the_platform_affinity_mask_when_available(self):
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("platform has no sched_getaffinity")
        assert available_cpu_count() == len(os.sched_getaffinity(0))


class TestParallelStarmap:
    def test_serial_unpacks_tuples_in_order(self):
        items = [(1, 2), (3, 4), (5, 6)]
        assert parallel_starmap(_weighted_sum, items) == [3, 7, 11]

    def test_serial_supports_closures(self):
        offset = 10
        assert parallel_starmap(lambda x, y: x + y + offset, [(1, 2)], n_jobs=1) == [13]

    def test_empty_input(self):
        assert parallel_starmap(_weighted_sum, []) == []

    def test_parallel_matches_serial_and_preserves_order(self):
        items = [(i, i + 1) for i in range(15)]
        serial = parallel_starmap(_weighted_sum, items, n_jobs=1)
        pooled = parallel_starmap(_weighted_sum, items, n_jobs=2)
        assert pooled == serial == [2 * i + 1 for i in range(15)]

    def test_accepts_any_iterable_of_tuples(self):
        result = parallel_starmap(_weighted_sum, ((i, i) for i in range(4)))
        assert result == [0, 2, 4, 6]

    def test_single_item_never_spawns_pool(self):
        # Works with a non-picklable closure even when n_jobs > 1.
        assert parallel_starmap(lambda x: x - 1, [(5,)], n_jobs=4) == [4]

    def test_single_argument_tasks_match_builtin_map(self):
        items = list(range(12))
        pooled = parallel_starmap(_square, [(x,) for x in items], n_jobs=2)
        assert pooled == [x * x for x in items]


class TestParallelStarmapUnordered:
    def test_serial_yields_indexed_results_in_order(self):
        from repro.parallel.pool import parallel_starmap_unordered

        items = [(i, i + 1) for i in range(5)]
        pairs = list(parallel_starmap_unordered(_weighted_sum, items))
        assert pairs == [(i, 2 * i + 1) for i in range(5)]

    def test_parallel_covers_every_index_with_correct_results(self):
        from repro.parallel.pool import parallel_starmap_unordered

        items = [(i, i) for i in range(12)]
        pairs = dict(parallel_starmap_unordered(_weighted_sum, items, n_jobs=3))
        assert pairs == {i: 2 * i for i in range(12)}

    @pytest.mark.skipif(
        effective_n_jobs(2) < 2, reason="needs two workers to observe completion order"
    )
    def test_a_slow_early_task_does_not_block_later_results(self):
        from repro.parallel.pool import parallel_starmap_unordered

        first_index, _ = next(
            iter(parallel_starmap_unordered(_sleepy_identity, [(1.5,), (0.0,)], n_jobs=2))
        )
        assert first_index == 1  # the fast task surfaces before the slow one


class TestErrorPropagation:
    """A failed task must surface promptly, not after the queue drains.

    The old implementation wrapped the pool in a ``with`` block whose
    ``__exit__`` calls ``shutdown(wait=True)`` — so one poison task stalled
    behind every in-flight slow task before its exception reached the
    caller.  These tests submit an instantly-failing task next to multi-
    second sleepers and assert the exception arrives well before the
    sleepers could have finished.
    """

    @pytest.fixture(autouse=True)
    def _two_workers(self, monkeypatch):
        # A single-CPU box would clip n_jobs=2 to serial and bypass the pool
        # entirely; the race needs a real pool, and sleeping tasks don't
        # contend for the core.
        monkeypatch.setattr("repro.parallel.pool.available_cpu_count", lambda: 2)

    SLOW = 2.5  # seconds each slow task sleeps
    PROMPT = 1.5  # generous bound; the old code path needed >= SLOW

    # Poison first in submission order, three sleepers behind it: with two
    # workers the poison fails immediately while a sleeper is mid-flight and
    # more are queued.
    ITEMS = [(0.0, True), (SLOW, False), (SLOW, False), (SLOW, False)]

    def test_starmap_propagates_the_error_promptly(self):
        start = time.monotonic()
        with pytest.raises(ValueError, match="poison task"):
            parallel_starmap(_maybe_boom, self.ITEMS, n_jobs=2)
        assert time.monotonic() - start < self.PROMPT

    def test_starmap_unordered_propagates_the_error_promptly(self):
        from repro.parallel.pool import parallel_starmap_unordered

        start = time.monotonic()
        with pytest.raises(ValueError, match="poison task"):
            list(parallel_starmap_unordered(_maybe_boom, self.ITEMS, n_jobs=2))
        assert time.monotonic() - start < self.PROMPT

    def test_successful_batches_still_complete_after_the_fix(self):
        # The manual shutdown path must not leak pools or drop results on
        # the happy path.
        items = [(0.0, False)] * 6
        assert parallel_starmap(_maybe_boom, items, n_jobs=2) == [0.0] * 6
