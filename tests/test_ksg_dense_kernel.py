"""Bitwise parity, squared-distance preimages and memory of the dense KSG kernel.

The dense backend of :func:`repro.infotheory.ksg.ksg_multi_information_with_diagnostics`
counts neighbours on squared distances, in one ``(n_vars, m, m)`` workspace.
Stored results depend on every count, so it must reproduce the stacked
distance-matrix branch it replaced exactly.  The reference below is that
branch, kept verbatim: one ``pairwise_euclidean`` matrix per variable,
``np.stack``-ed, the joint metric as their maximum, and boolean masks for the
counts.
"""

from __future__ import annotations

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import digamma

from repro.infotheory import ksg
from repro.infotheory.knn import k_nearest_neighbor_indices, pairwise_euclidean
from repro.infotheory.ksg import (
    _rect_value_from_counts,
    _squared_preimage,
    ksg_multi_information_with_diagnostics,
)
from repro.infotheory.variables import as_variable_list

VARIANTS = ("ksg1", "ksg2", "paper")
_LN2 = float(np.log(2.0))


# --- The stacked distance-matrix reference ----------------------------------


def _stacked_reference(variables, k, variant):
    var_list = as_variable_list(variables)
    n_vars = len(var_list)
    m = var_list[0].shape[0]
    per_var = np.stack([pairwise_euclidean(v) for v in var_list], axis=0)  # (n_vars, m, m)
    joint = per_var.max(axis=0)  # (m, m)
    knn_idx = k_nearest_neighbor_indices(joint, k)  # (m, k), sorted by distance
    kth_idx = knn_idx[:, -1]  # (m,)
    sample_idx = np.arange(m)

    if variant == "ksg1":
        # Single joint epsilon per sample; strict inequality against it.
        epsilon = joint[sample_idx, kth_idx]  # (m,)
        thresholds = np.broadcast_to(epsilon, (n_vars, m))
        inside = per_var < thresholds[:, :, None]
    elif variant == "paper":
        # Eq. 20 literally: the per-observer distance to the joint k-th
        # neighbour, counting strictly inside it.
        thresholds = per_var[:, sample_idx, kth_idx]  # (n_vars, m)
        inside = per_var < thresholds[:, :, None]
    else:
        # KSG algorithm 2: the per-observer extent of the smallest rectangle
        # containing all k joint neighbours, counted inclusively.
        neighbor_dists = per_var[:, sample_idx[:, None], knn_idx]  # (n_vars, m, k)
        thresholds = neighbor_dists.max(axis=2)  # (n_vars, m)
        inside = per_var <= thresholds[:, :, None]

    # counts[i, s] = #{s' != s : d_i(s, s') inside threshold[i, s]}
    diag = np.zeros((m, m), dtype=bool)
    np.fill_diagonal(diag, True)
    inside &= ~diag[None, :, :]
    counts = inside.sum(axis=2)  # (n_vars, m)

    if variant == "ksg1":
        psi_terms = digamma(counts + 1).sum(axis=0)
        value_nats = digamma(k) + (n_vars - 1) * digamma(m) - psi_terms.mean()
        value_bits = float(value_nats / _LN2)
    else:
        value_bits = _rect_value_from_counts(counts, k, m, variant)
    return counts, value_bits


def _assert_parity(blocks, k, variant):
    with np.errstate(invalid="ignore", over="ignore"):
        expected_counts, expected_value = _stacked_reference(blocks, k, variant)
        actual = ksg_multi_information_with_diagnostics(blocks, k, variant=variant, backend="dense")
    assert actual.counts.dtype == expected_counts.dtype
    np.testing.assert_array_equal(actual.counts, expected_counts)
    assert actual.value_bits == expected_value or (
        math.isnan(actual.value_bits) and math.isnan(expected_value)
    )


def _blocks(kind, m, n_vars, d, seed):
    """One test cloud per ``kind``; each stresses a different part of the counts."""
    rng = np.random.default_rng(seed)
    blocks = []
    for _ in range(n_vars):
        if kind == "grid":  # exact distances, massive ties
            block = rng.integers(0, 4, size=(m, d)).astype(float)
        elif kind == "duplicates":
            block = rng.standard_normal((m, d))
            block[m // 4 : m // 2] = block[: m // 2 - m // 4]
        elif kind == "tiny":
            block = 1e-6 * rng.standard_normal((m, d))
        elif kind == "huge":
            block = 1e6 * rng.standard_normal((m, d))
        elif kind == "offset":  # cancellation in the expanded square
            block = 1e4 + 1e-3 * rng.standard_normal((m, d))
        elif kind == "nonfinite":
            block = rng.standard_normal((m, d))
            rows = rng.integers(0, m, size=max(1, m // 16))
            block[rows, 0] = rng.choice([np.nan, np.inf, -np.inf], size=rows.size)
        else:
            block = rng.standard_normal((m, d))
        blocks.append(block)
    return blocks


KINDS = ("gauss", "grid", "duplicates", "tiny", "huge", "offset", "nonfinite")


# --- Parity -----------------------------------------------------------------


class TestStackedParity:
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize(
        ("m", "k"), [(m, k) for m in (2, 63, 65, 100, 500, 512) for k in range(1, 7) if k < m]
    )
    def test_gaussian_sizes(self, variant, m, k):
        n_vars = 3 if m >= 500 else 7
        _assert_parity(_blocks("gauss", m, n_vars, 2, seed=m * 10 + k), k, variant)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("k", [1, 4, 6])
    def test_degenerate_clouds(self, variant, kind, k):
        _assert_parity(_blocks(kind, 65, 5, 2, seed=k), k, variant)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n_vars", [2, 50])
    def test_variable_counts_and_dimensions(self, variant, d, n_vars):
        _assert_parity(_blocks("grid" if d == 1 else "gauss", 64, n_vars, d, seed=d), 4, variant)

    def test_array_input_of_strided_views(self):
        # An (m, n, d) array hands the kernel non-contiguous observer views.
        cloud = np.random.default_rng(5).standard_normal((100, 6, 2))
        for variant in VARIANTS:
            _assert_parity(cloud, 4, variant)

    def test_streaming_window_shape(self):
        # One watch emission: 50 particle blocks of 8 steps × 64 samples.
        _assert_parity(_blocks("gauss", 512, 50, 2, seed=11), 4, "ksg2")

    @pytest.mark.parametrize("budget", [1, 100, 1000, 3 * 64 * 64 + 1])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_any_block_budget_gives_the_same_bits(self, budget, variant):
        # m = 64 over several pass-1 row chunks and pass-2 variable chunks,
        # the last of each ragged.
        blocks = _blocks("duplicates", 64, 7, 2, seed=3)
        with mock.patch.object(ksg, "KSG_BLOCK_ELEMENTS", budget):
            _assert_parity(blocks, 4, variant)


@pytest.mark.fuzz
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    m=st.integers(min_value=2, max_value=90),
    n_vars=st.integers(min_value=2, max_value=12),
    d=st.integers(min_value=1, max_value=3),
    kind=st.sampled_from(KINDS),
    variant=st.sampled_from(VARIANTS),
    k=st.integers(min_value=1, max_value=6),
    budget=st.sampled_from([None, 1, 77, 2000]),
)
def test_dense_kernel_parity_fuzz(seed, m, n_vars, d, kind, variant, k, budget):
    k = min(k, m - 1)
    blocks = _blocks(kind, m, n_vars, d, seed)
    budget = ksg.KSG_BLOCK_ELEMENTS if budget is None else budget
    with mock.patch.object(ksg, "KSG_BLOCK_ELEMENTS", budget):
        _assert_parity(blocks, k, variant)


# --- The squared preimage ---------------------------------------------------


def _ulp_neighbourhood(t, ulps=8):
    """Every double within ``ulps`` steps of ``t*t`` (saturating at ±inf)."""
    with np.errstate(over="ignore", under="ignore"):
        centre = np.float64(t) * np.float64(t)
    values = [centre]
    for direction in (np.inf, -np.inf):
        q = centre
        for _ in range(ulps):
            q = np.nextafter(q, direction)
            values.append(q)
    return np.array(values + [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan])


def _assert_preimage_contract(t):
    q = _ulp_neighbourhood(t)
    for strict in (False, True):
        bound = _squared_preimage(np.array([t]), strict=strict)[0]
        with np.errstate(invalid="ignore"):
            root = np.sqrt(np.maximum(q, 0.0))
        passes = root < t if strict else root <= t
        np.testing.assert_array_equal(q <= bound, passes, err_msg=f"t={t!r} strict={strict}")
        if np.isfinite(bound):
            # ... and it is the largest such double.
            with np.errstate(over="ignore"):
                above = np.sqrt(np.nextafter(bound, np.inf))
            assert not (above < t if strict else above <= t)


SPECIAL_THRESHOLDS = [0.0, -0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e300, math.inf, math.nan]


class TestSquaredPreimage:
    @pytest.mark.parametrize("t", SPECIAL_THRESHOLDS)
    def test_special_thresholds(self, t):
        _assert_preimage_contract(t)

    def test_random_thresholds(self):
        rng = np.random.default_rng(8)
        thresholds = np.concatenate(
            [rng.uniform(0, 10, 200), np.exp(rng.uniform(-700, 700, 200)), rng.integers(0, 50, 50)]
        )
        for t in thresholds:
            _assert_preimage_contract(float(t))

    def test_vectorised_matches_elementwise(self):
        thresholds = np.array([0.5, 0.0, math.inf, math.nan, 3.0, 1e-200, 1e200])
        for strict in (False, True):
            whole = _squared_preimage(thresholds, strict=strict)
            single = [_squared_preimage(np.array([t]), strict=strict)[0] for t in thresholds]
            np.testing.assert_array_equal(whole, single)


@given(
    t=st.floats(min_value=0.0, allow_nan=False, allow_infinity=True, allow_subnormal=True),
)
def test_preimage_property(t):
    _assert_preimage_contract(t)


# --- Memory -----------------------------------------------------------------


def test_one_workspace_of_peak_memory():
    # The stacked branch held a list of per-variable matrices *and* their
    # stack (2.0× one (n_vars, m, m) float64 array at this shape); the
    # kernel holds one workspace plus O(m²) extras.
    m, n_vars = 256, 20
    blocks = _blocks("gauss", m, n_vars, 2, seed=4)
    workspace_bytes = n_vars * m * m * 8
    ksg_multi_information_with_diagnostics(blocks, 4, backend="dense")  # warm caches
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        ksg_multi_information_with_diagnostics(blocks, 4, backend="dense")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * workspace_bytes, peak / workspace_bytes
