"""Bitwise parity, squared-distance preimages and memory of the dense KSG kernel.

The dense backend of :func:`repro.infotheory.ksg.ksg_multi_information`
counts neighbours on squared distances, in one ``(n_vars, m, m)`` workspace.
Stored results depend on every count, so it must reproduce the stacked
distance-matrix branch it replaced exactly.  The reference below is that
branch, kept verbatim: one ``pairwise_euclidean`` matrix per variable,
``np.stack``-ed, the joint metric as their maximum, and boolean masks for the
counts.

The Frenzel–Pompe CMI (and with it the transfer entropy and the pairwise TE
rows) and the Kozachenko–Leonenko entropy run on the same kernels.  Their
references are the distance-matrix estimators they replaced, also kept
verbatim: ``_counts_within``, ``_cmi_from_dense_blocks``, ``_cmi_kdtree``,
the old ``_te_row`` and the old ``kth_neighbor_distances``.
"""

from __future__ import annotations

import contextlib
import math
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.spatial import cKDTree
from scipy.special import digamma

from repro.analysis import information_dynamics
from repro.infotheory import knn, ksg, transfer
from repro.infotheory.knn import EuclideanBallCounter, ProductMetricTree, k_nearest_neighbor_indices
from repro.infotheory.ksg import (
    _dense_ksg_counts,
    _rect_value_from_counts,
    _squared_preimage,
    ksg_multi_information,
)
from repro.infotheory.transfer import _cmi_value_from_counts, conditional_mutual_information
from repro.infotheory.variables import as_variable_list

VARIANTS = ("ksg1", "ksg2", "paper")
_LN2 = float(np.log(2.0))


# --- The deleted distance-matrix estimators, kept verbatim ------------------


def pairwise_euclidean(samples: np.ndarray) -> np.ndarray:
    """Dense Euclidean distance matrix of samples ``(m, d)`` → ``(m, m)``.

    Uses the expanded-square formulation (one matmul) which is considerably
    faster than broadcasting differences for moderate ``d``.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    sq = np.einsum("ij,ij->i", samples, samples)
    gram = samples @ samples.T
    dist_sq = sq[:, None] + sq[None, :] - 2.0 * gram
    np.maximum(dist_sq, 0.0, out=dist_sq)
    dist = np.sqrt(dist_sq)
    # The expanded-square formulation leaves ~1e-8 residue on the diagonal;
    # pin it to the exact value so self-distances never perturb neighbour counts.
    np.fill_diagonal(dist, 0.0)
    return dist


def _reference_kth_neighbor_distances(
    samples: np.ndarray, k: int, *, backend: str = "dense", workers: int = 1
) -> np.ndarray:
    """Euclidean distance of every sample to its k-th nearest neighbour.

    ``workers`` threads the kdtree query (scipy semantics, ``-1`` = all
    cores); it never changes the returned distances, only throughput, and
    defaults to 1 so CI runs stay single-threaded.  Ignored by the dense
    backend.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    m = samples.shape[0]
    if not 1 <= k <= m - 1:
        raise ValueError(f"k must be in [1, m-1] = [1, {m - 1}], got {k}")
    if backend == "kdtree":
        tree = cKDTree(samples)
        dist, _idx = tree.query(samples, k=k + 1, workers=workers)
        return dist[:, -1]
    if backend != "dense":
        raise ValueError(f"unknown backend {backend!r}")
    distance_matrix = pairwise_euclidean(samples)
    np.fill_diagonal(distance_matrix, np.inf)
    return np.partition(distance_matrix, kth=k - 1, axis=1)[:, k - 1]


def _counts_within(per_var_block: np.ndarray, epsilon: np.ndarray) -> np.ndarray:
    """Count, per sample, the points strictly inside ``epsilon`` for a block metric.

    The self-pair is excluded explicitly (the diagonal's contribution is
    subtracted) rather than by writing into the comparison result, so the
    helper never mutates shared distance blocks and repeated calls on the
    same block are idempotent.
    """
    per_var_block = np.asarray(per_var_block)
    inside = per_var_block < epsilon[:, None]
    counts = inside.sum(axis=1)
    self_inside = np.diagonal(per_var_block) < epsilon
    return counts - self_inside.astype(counts.dtype)


def _cmi_from_dense_blocks(
    d_ac: np.ndarray,
    d_b: np.ndarray,
    d_c: np.ndarray,
    k: int,
) -> float:
    """Frenzel–Pompe value from precomputed dense blocks.

    ``d_ac = max(d_A, d_C)`` is the target-side block (pair-independent in
    the pairwise analysis), ``d_b`` the source block, ``d_c`` the
    conditioning block.  Shared by :func:`conditional_mutual_information` and
    the shared-embedding pairwise plan, which is what makes the two paths
    bit-identical.
    """
    m = d_ac.shape[0]
    joint = np.maximum(d_ac, d_b)
    kth_idx = k_nearest_neighbor_indices(joint, k)[:, -1]
    epsilon = joint[np.arange(m), kth_idx]
    n_ac = _counts_within(d_ac, epsilon)
    n_bc = _counts_within(np.maximum(d_b, d_c), epsilon)
    n_c = _counts_within(d_c, epsilon)
    return _cmi_value_from_counts(n_ac, n_bc, n_c, k)


def _cmi_kdtree(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    k: int,
    *,
    ac_tree: ProductMetricTree | None = None,
    c_counter: EuclideanBallCounter | None = None,
    workers: int = 1,
) -> float:
    """Tree-backed Frenzel–Pompe value.

    The joint k-th-neighbour radius comes from the product-metric tree; the
    conditioning count ``n_C`` is a single-block count and uses the list-free
    :class:`EuclideanBallCounter`; the (A, C) and (B, C) counts use
    product-metric candidate filtering.  The (A, C) tree and the C counter
    depend only on the target side, so the pairwise analysis builds them once
    per matrix row and passes them in — a fresh structure yields the same
    counts, which keeps the shared path bit-identical to the per-pair one.
    """
    joint = ProductMetricTree([a, b, c], workers=workers)
    epsilon = joint.kth_neighbor_distances(k)
    ac = ac_tree if ac_tree is not None else ProductMetricTree([a, c], workers=workers)
    cc = c_counter if c_counter is not None else EuclideanBallCounter(c, workers=workers)
    n_ac = ac.counts_within(epsilon)
    n_bc = ProductMetricTree([b, c], workers=workers).counts_within(epsilon)
    n_c = cc.counts_within(epsilon)
    return _cmi_value_from_counts(n_ac, n_bc, n_c, k)


def _reference_cmi(a, b, c, k, backend):
    """The body of the old ``conditional_mutual_information`` after validation."""
    if backend == "kdtree":
        return _cmi_kdtree(a, b, c, k)
    d_c = pairwise_euclidean(c)
    d_ac = np.maximum(pairwise_euclidean(a), d_c)
    return _cmi_from_dense_blocks(d_ac, pairwise_euclidean(b), d_c, k)


def _reference_te_row(
    skip_indices: tuple[int, ...],
    future_i: np.ndarray,
    past_i: np.ndarray,
    aligned_blocks: list[np.ndarray],
    k: int,
    backend: str,
    workers: int = 1,
    cross_row_cache: dict | None = None,
) -> np.ndarray:
    """One row of the transfer-entropy matrix: every source j against target i.

    The target-side structures (``max(d_future, d_past)`` dense block, or the
    conditioning-space candidate sweep of the tree backend) are built once
    and reused across the row's sources.  ``cross_row_cache`` (serial mode only)
    additionally shares the per-source aligned-embedding distance matrices
    across rows.
    """
    n = len(aligned_blocks)
    row = np.zeros(n)
    sources = [j_index for j_index in range(n) if j_index not in skip_indices]
    if not sources:
        return row
    if backend == "dense":
        d_future = pairwise_euclidean(future_i)
        d_past = pairwise_euclidean(past_i)
        d_fp = np.maximum(d_future, d_past)
        for j_index in sources:
            if cross_row_cache is None:
                d_source = pairwise_euclidean(aligned_blocks[j_index])
            else:
                d_source = cross_row_cache.get(j_index)
                if d_source is None:
                    d_source = cross_row_cache.setdefault(
                        j_index, pairwise_euclidean(aligned_blocks[j_index])
                    )
            row[j_index] = _cmi_from_dense_blocks(d_fp, d_source, d_past, k)
    else:
        # The (A, C) = (future, past) tree and the conditioning-ball counter
        # depend only on the target, so one of each serves the whole row.
        ac_tree = ProductMetricTree([future_i, past_i], workers=workers)
        c_counter = EuclideanBallCounter(past_i, workers=workers)
        for j_index in sources:
            row[j_index] = _cmi_kdtree(
                future_i,
                aligned_blocks[j_index],
                past_i,
                k,
                ac_tree=ac_tree,
                c_counter=c_counter,
                workers=workers,
            )
    return row


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
        counts = _dense_ksg_counts(as_variable_list(blocks), k, variant)
        value = ksg_multi_information(blocks, k, variant=variant, backend="dense")
    assert counts.dtype == expected_counts.dtype
    np.testing.assert_array_equal(counts, expected_counts)
    assert value == expected_value or (math.isnan(value) and math.isnan(expected_value))


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


# --- CMI, TE and KL entropy against the distance-matrix estimators ----------

_REFERENCE = sys.modules[__name__]
_FINITE_KINDS = tuple(kind for kind in KINDS if kind != "nonfinite")  # cKDTree rejects NaN/inf


@contextlib.contextmanager
def _recorded_counts(module):
    """Record the ``(n_AC, n_BC, n_C)`` table of every CMI value ``module`` computes."""
    tables = []
    value_from_counts = module._cmi_value_from_counts

    def record(n_ac, n_bc, n_c, k):
        tables.append(np.stack([n_ac, n_bc, n_c]))
        return value_from_counts(n_ac, n_bc, n_c, k)

    with mock.patch.object(module, "_cmi_value_from_counts", record):
        yield tables


def _assert_same_value(actual, expected):
    assert actual == expected or (math.isnan(actual) and math.isnan(expected)), (actual, expected)


def _assert_same_tables(actual, expected):
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def _assert_cmi_parity(a, b, c, k, backend):
    with np.errstate(invalid="ignore", over="ignore"):
        with _recorded_counts(_REFERENCE) as expected_counts:
            expected = _reference_cmi(a, b, c, k, backend)
        with _recorded_counts(transfer) as actual_counts:
            actual = conditional_mutual_information(a, b, c, k, backend=backend)
    _assert_same_tables(actual_counts, expected_counts)
    _assert_same_value(actual, expected)


def _assert_kl_parity(samples, k):
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        expected_eps = _reference_kth_neighbor_distances(samples, k)
        with mock.patch.object(knn, "kth_neighbor_distances", _reference_kth_neighbor_distances):
            expected = knn.kozachenko_leonenko_entropy(samples, k, backend="dense")
        actual_eps = knn.kth_neighbor_distances(samples, k)
        actual = knn.kozachenko_leonenko_entropy(samples, k, backend="dense")
    np.testing.assert_array_equal(actual_eps, expected_eps)
    assert actual_eps.tobytes() == expected_eps.tobytes()  # signed zeros and NaN payloads too
    _assert_same_value(actual, expected)


def _te_rows(blocks, k, backend="dense"):
    """Pairwise-TE row arguments: ``blocks`` split into futures, pasts and aligned sources."""
    n = len(blocks) // 3
    futures, pasts, aligneds = blocks[:n], blocks[n : 2 * n], blocks[2 * n : 3 * n]
    return [((i,), futures[i], pasts[i], aligneds, k, backend, 1) for i in range(n)]


def _reference_te_rows(rows):
    cache: dict = {}
    return np.stack([_reference_te_row(*args, cache) for args in rows])


def _assert_te_rows_parity(blocks, k, backend="dense"):
    """Serial rows, sharing the cross-row cache as ``pairwise_transfer_entropy`` does."""
    rows = _te_rows(blocks, k, backend)
    cache: dict = {}
    with np.errstate(invalid="ignore", over="ignore"):
        with _recorded_counts(_REFERENCE) as expected_counts:
            expected = _reference_te_rows(rows)
        with _recorded_counts(information_dynamics) as actual_counts:
            actual = np.stack([information_dynamics._te_row(*args, cache) for args in rows])
    _assert_same_tables(actual_counts, expected_counts)
    np.testing.assert_array_equal(actual, expected)
    assert actual.tobytes() == expected.tobytes()


class TestDistanceMatrixEstimatorParity:
    @pytest.mark.parametrize(
        ("kind", "backend"),
        [(kind, "dense") for kind in KINDS] + [(kind, "kdtree") for kind in _FINITE_KINDS],
    )
    @pytest.mark.parametrize("m", [3, 33])
    def test_cmi_small_clouds(self, kind, backend, m):
        for d in (1, 2, 3):
            for k in range(1, min(6, m - 1) + 1):
                a, b, c = _blocks(kind, m, 3, d, seed=10 * d + k)
                _assert_cmi_parity(a, b, c, k, backend)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("m", [448, 513])
    def test_cmi_large_clouds(self, kind, m):
        for k in range(1, 7):
            a, b, c = _blocks(kind, m, 3, 1 + k % 3, seed=m + k)
            _assert_cmi_parity(a, b, c, k, "dense")

    @pytest.mark.parametrize("kind", ["gauss", "grid", "duplicates"])
    def test_cmi_large_clouds_kdtree(self, kind):
        a, b, c = _blocks(kind, 513, 3, 2, seed=6)
        _assert_cmi_parity(a, b, c, 4, "kdtree")

    def test_cmi_of_strided_views(self):
        cloud = np.random.default_rng(5).standard_normal((100, 3, 2))
        for backend in ("dense", "kdtree"):
            _assert_cmi_parity(cloud[:, 0], cloud[:, 1], cloud[:, 2], 4, backend)

    def test_watch_transfer_entropy_shape(self):
        # One streaming TE emission at the watch defaults: a window of 8
        # steps of 64 samples, history 1, so the CMI pools m = 448 samples.
        rng = np.random.default_rng(17)
        source = rng.standard_normal((64, 8, 2)).cumsum(axis=1)
        target = 0.6 * np.roll(source, 1, axis=1) + rng.standard_normal((64, 8, 2))

        def reference_cmi(a, b, c, k, backend, workers):
            return _reference_cmi(a, b, c, k, backend)

        with _recorded_counts(_REFERENCE) as expected_counts:
            with mock.patch.object(transfer, "conditional_mutual_information", reference_cmi):
                expected = transfer.transfer_entropy(source, target, history=1, k=4, backend="dense")
        with _recorded_counts(transfer) as actual_counts:
            actual = transfer.transfer_entropy(source, target, history=1, k=4, backend="dense")
        assert expected_counts[0].shape == (3, 448)
        _assert_same_tables(actual_counts, expected_counts)
        _assert_same_value(actual, expected)

    @pytest.mark.parametrize(
        ("kind", "backend"),
        [(kind, "dense") for kind in KINDS] + [(kind, "kdtree") for kind in _FINITE_KINDS],
    )
    def test_te_rows_with_the_cross_row_cache(self, kind, backend):
        for k in (1, 4, 6):
            _assert_te_rows_parity(_blocks(kind, 33, 12, 1 + k % 3, seed=k), k, backend)

    def test_te_rows_at_the_watch_shape(self):
        _assert_te_rows_parity(_blocks("gauss", 448, 9, 2, seed=2), 4)

    def test_te_rows_of_strided_views(self):
        cloud = np.random.default_rng(6).standard_normal((64, 12, 2))
        _assert_te_rows_parity([cloud[:, i] for i in range(12)], 4)

    def test_pooled_te_rows(self, monkeypatch):
        # Two pooled workers compute the rows from their own arguments; the
        # matrix must equal the serial reference rows.
        monkeypatch.setattr("repro.parallel.pool.available_cpu_count", lambda: 2)
        rows = _te_rows(_blocks("duplicates", 448, 12, 2, seed=8), 4)
        pooled = information_dynamics._fan_out_rows(information_dynamics._te_row, rows, n_jobs=2)
        expected = _reference_te_rows(rows)
        np.testing.assert_array_equal(pooled, expected)
        assert pooled.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("m", [3, 33, 448, 513])
    def test_kl_entropy(self, kind, m):
        for d in (1, 2, 3):
            for k in range(1, min(6, m - 1) + 1):
                (samples,) = _blocks(kind, m, 1, d, seed=10 * d + k)
                _assert_kl_parity(samples, k)

    def test_kl_entropy_of_strided_views(self):
        values = np.random.default_rng(7).standard_normal((64, 50, 2))
        for i in (0, 17, 49):
            _assert_kl_parity(values[:, i, :], 4)
        _assert_kl_parity(values.reshape(64, -1), 4)

    @pytest.mark.parametrize("budget", [1, 100, 12289])
    def test_any_block_budget_gives_the_same_bits(self, budget):
        with mock.patch.object(ksg, "KSG_BLOCK_ELEMENTS", budget):
            _assert_cmi_parity(*_blocks("duplicates", 448, 3, 2, seed=9), 4, "dense")
            _assert_te_rows_parity(_blocks("grid", 33, 9, 2, seed=9), 3)
            _assert_kl_parity(_blocks("offset", 448, 1, 2, seed=9)[0], 4)


@pytest.mark.fuzz
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    m=st.integers(min_value=2, max_value=90),
    d=st.integers(min_value=1, max_value=3),
    kind=st.sampled_from(KINDS),
    k=st.integers(min_value=1, max_value=6),
    budget=st.sampled_from([None, 1, 77, 2000]),
)
def test_cmi_te_and_kl_parity_fuzz(seed, m, d, kind, k, budget):
    k = min(k, m - 1)
    blocks = _blocks(kind, m, 9, d, seed)
    budget = ksg.KSG_BLOCK_ELEMENTS if budget is None else budget
    with mock.patch.object(ksg, "KSG_BLOCK_ELEMENTS", budget):
        _assert_cmi_parity(*blocks[:3], k, "dense")
        _assert_te_rows_parity(blocks, k)
        if kind != "nonfinite":
            _assert_cmi_parity(*blocks[:3], k, "kdtree")
            _assert_te_rows_parity(blocks, k, "kdtree")
        _assert_kl_parity(blocks[0], k)


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
    ksg_multi_information(blocks, 4, backend="dense")  # warm caches
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        ksg_multi_information(blocks, 4, backend="dense")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * workspace_bytes, peak / workspace_bytes
