"""Tests for repro.parallel.batch."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.parallel.batch import batch_slices, max_batch_for_budget


class TestMaxBatchForBudget:
    def test_at_least_one(self):
        assert max_batch_for_budget(10_000, bytes_budget=1) == 1

    def test_scales_inversely_with_particles(self):
        small = max_batch_for_budget(10)
        large = max_batch_for_budget(100)
        assert small > large

    def test_invalid_particles(self):
        with pytest.raises(ValueError):
            max_batch_for_budget(0)

    def test_budget_formula(self):
        # 4 buffers * n^2 * 2 coords * 8 bytes per sample
        n = 16
        per_sample = 4 * n * n * 2 * 8
        assert max_batch_for_budget(n, bytes_budget=10 * per_sample) == 10


class TestBatchSlices:
    def test_covers_range(self):
        slices = batch_slices(10, 3)
        covered = [i for sl in slices for i in range(sl.start, sl.stop)]
        assert covered == list(range(10))

    def test_zero_items(self):
        assert batch_slices(0, 5) == []

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            batch_slices(-1, 1)
        with pytest.raises(ValueError):
            batch_slices(5, 0)

    @given(st.integers(min_value=0, max_value=500), st.integers(min_value=1, max_value=64))
    def test_partition_property(self, n_items, batch_size):
        slices = batch_slices(n_items, batch_size)
        covered = [i for sl in slices for i in range(sl.start, sl.stop)]
        assert covered == list(range(n_items))
        assert all(sl.stop - sl.start <= batch_size for sl in slices)

