"""Bitwise parity of the lockstep k-means with the per-fit loop it replaced.

``kmeans`` fits its restarts, and ``coarse_grain_snapshot`` every (sample,
restart) fit of a type, in one batched call.  Stored results depend on every
bit of the cluster-mean observers, so the batched kernel must reproduce the
per-fit loop exactly, generator state included.  The reference below is that
loop, kept verbatim: one ``rng.choice`` k-means++ seeding per restart, Lloyd
iterations with one ``members.mean(axis=0)`` per cluster, and one ``kmeans``
call per sample and type.

The verbatim canonical order sorts by the first two coordinates only; the
kernel sorts by every coordinate.  The two agree unless two centres tie
exactly in their first two coordinates, so inputs with ``d > 2`` are
continuous or fully coincident here.  For ``d = 1`` numpy's ``mean`` sums
pairwise and the old code never returned, so those centres are pinned by
property tests in ``test_cluster_kmeans.py`` instead.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from repro.cluster.coarse_grain import clusters_per_type, coarse_grain_snapshot
from repro.cluster.kmeans import KMeansResult, kmeans
from repro.parallel.rng import as_generator


# --- The per-fit reference implementation ----------------------------------


def _loop_plus_plus_init(
    points: np.ndarray,
    n_clusters: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """k-means++ seeding: spread the initial centres proportionally to squared distance."""
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    centers = np.empty((n_clusters, points.shape[1]))
    first = int(rng.integers(n))
    centers[0] = points[first]
    closest_sq = np.einsum("ij,ij->i", points - centers[0], points - centers[0])
    for c in range(1, n_clusters):
        total = closest_sq.sum()
        if total <= 0:
            # All remaining points coincide with an existing centre; fall back
            # to uniform choice to keep the centre count.
            idx = int(rng.integers(n))
        else:
            probs = closest_sq / total
            idx = int(rng.choice(n, p=probs))
        centers[c] = points[idx]
        delta = points - centers[c]
        closest_sq = np.minimum(closest_sq, np.einsum("ij,ij->i", delta, delta))
    return centers


def _loop_assign(points: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    delta = points[:, None, :] - centers[None, :, :]
    dist_sq = np.einsum("nkd,nkd->nk", delta, delta)
    labels = dist_sq.argmin(axis=1)
    return labels, dist_sq[np.arange(points.shape[0]), labels]


def _loop_canonical_order(centers: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    order = np.lexsort((centers[:, 1], centers[:, 0]))
    remap = np.empty_like(order)
    remap[order] = np.arange(order.size)
    return centers[order], remap[labels]


def _loop_kmeans(
    points: np.ndarray,
    n_clusters: int,
    *,
    rng: np.random.Generator | int | None = None,
    n_init: int = 4,
    max_iterations: int = 100,
    tolerance: float = 1e-8,
) -> KMeansResult:
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = points.shape[0]
    if n_clusters <= 0:
        raise ValueError("n_clusters must be positive")
    if n < n_clusters:
        raise ValueError(f"need at least n_clusters={n_clusters} points, got {n}")
    if n_init <= 0:
        raise ValueError("n_init must be positive")
    if max_iterations <= 0:
        raise ValueError("max_iterations must be positive")
    rng = as_generator(rng)

    best: KMeansResult | None = None
    for _restart in range(n_init):
        centers = _loop_plus_plus_init(points, n_clusters, rng)
        labels = np.full(n, -1)
        converged = False
        iterations = 0
        for iterations in range(1, max_iterations + 1):
            new_labels, sq_dist = _loop_assign(points, centers)
            new_centers = centers.copy()
            for c in range(n_clusters):
                members = points[new_labels == c]
                if members.shape[0]:
                    new_centers[c] = members.mean(axis=0)
                else:
                    # Re-seed empty clusters at the worst-served point.
                    new_centers[c] = points[sq_dist.argmax()]
            center_shift = float(np.abs(new_centers - centers).max())
            centers = new_centers
            if np.array_equal(new_labels, labels) and center_shift < tolerance:
                labels = new_labels
                converged = True
                break
            labels = new_labels
        labels, sq_dist = _loop_assign(points, centers)
        inertia = float(sq_dist.sum())
        if best is None or inertia < best.inertia:
            ordered_centers, ordered_labels = _loop_canonical_order(centers, labels)
            best = KMeansResult(
                centers=ordered_centers,
                labels=ordered_labels,
                inertia=inertia,
                n_iterations=iterations,
                converged=converged,
            )
    assert best is not None
    return best


def _loop_match_to_reference(centers: np.ndarray, reference: np.ndarray) -> np.ndarray:
    delta = centers[:, None, :] - reference[None, :, :]
    cost = np.einsum("ijk,ijk->ij", delta, delta)
    rows, cols = linear_sum_assignment(cost)
    perm = np.empty(centers.shape[0], dtype=int)
    perm[cols] = rows
    return perm


def _loop_coarse_grain(snapshot, types, n_clusters, *, rng=None, reference_sample=0, n_init=2):
    """The per-sample loop of ``coarse_grain_snapshot``: ``(means, observer_types, n_clusters_per_type)``."""
    snapshot = np.asarray(snapshot, dtype=float)
    types = np.asarray(types, dtype=int)
    rng = as_generator(rng)

    unique_types = np.unique(types)
    per_type_counts: list[int] = []
    observer_types: list[int] = []
    blocks: list[np.ndarray] = []  # each (n_samples, k_t, 2)

    for type_id in unique_types:
        idx = np.nonzero(types == type_id)[0]
        k_t = clusters_per_type(idx.size, n_clusters)
        per_type_counts.append(k_t)
        observer_types.extend([int(type_id)] * k_t)

        centers_per_sample = np.empty((snapshot.shape[0], k_t, 2))
        for m in range(snapshot.shape[0]):
            result = _loop_kmeans(snapshot[m, idx], k_t, rng=rng, n_init=n_init)
            centers_per_sample[m] = result.centers
        reference_centers = centers_per_sample[reference_sample]
        for m in range(snapshot.shape[0]):
            if m == reference_sample:
                continue
            perm = _loop_match_to_reference(centers_per_sample[m], reference_centers)
            centers_per_sample[m] = centers_per_sample[m][perm]
        blocks.append(centers_per_sample)

    means = np.concatenate(blocks, axis=1)
    return means, np.asarray(observer_types, dtype=int), tuple(per_type_counts)


# --- Helpers ----------------------------------------------------------------


def _assert_bitwise(actual, expected):
    """Equal values, dtype and shape, and equal bits, so signed zeros count too."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    np.testing.assert_array_equal(actual, expected)
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


def _generators(seed: int, cached: bool):
    """Two identical generators; ``cached`` leaves half of a 64-bit draw buffered."""
    pair = np.random.default_rng(seed), np.random.default_rng(seed)
    if cached:
        for g in pair:
            g.integers(7)
    return pair


def _assert_kmeans_parity(points, n_clusters, seed=0, *, cached=False, **kwargs):
    ours, theirs = _generators(seed, cached)
    expected = _loop_kmeans(points, n_clusters, rng=theirs, **kwargs)
    actual = kmeans(points, n_clusters, rng=ours, **kwargs)
    _assert_bitwise(actual.centers, expected.centers)
    _assert_bitwise(actual.labels, expected.labels)
    assert actual.inertia.hex() == expected.inertia.hex()
    assert type(actual.n_iterations) is int and actual.n_iterations == expected.n_iterations
    assert type(actual.converged) is bool and actual.converged == expected.converged
    assert ours.bit_generator.state == theirs.bit_generator.state
    return actual


def _assert_coarse_parity(snapshot, types, n_clusters, seed=0, *, cached=False, **kwargs):
    ours, theirs = _generators(seed, cached)
    means, observer_types, per_type = _loop_coarse_grain(snapshot, types, n_clusters, rng=theirs, **kwargs)
    actual = coarse_grain_snapshot(snapshot, types, n_clusters, rng=ours, **kwargs)
    _assert_bitwise(actual.means, means)
    _assert_bitwise(actual.observer_types, observer_types)
    assert actual.n_clusters_per_type == per_type
    assert ours.bit_generator.state == theirs.bit_generator.state
    return actual


def _blob_frame(rng, counts, n_samples, *, blobs=4, spread=0.3):
    """Aligned-looking frames: each type sits in a few jittered blobs per sample."""
    types = np.repeat(np.arange(len(counts)), counts)
    snapshot = np.empty((n_samples, types.size, 2))
    for t, count in enumerate(counts):
        idx = np.nonzero(types == t)[0]
        centres = rng.uniform(-4.0, 4.0, size=(blobs, 2))
        for m in range(n_samples):
            home = centres[rng.integers(blobs, size=count)] + rng.normal(scale=0.5, size=2)
            snapshot[m, idx] = home + spread * rng.standard_normal((count, 2))
    return snapshot, types


def _grid(rng, shape, step):
    """Points rounded to a grid of spacing ``step``: duplicates, ties and ``-0.0``."""
    return np.round(rng.normal(size=shape) / step) * step


# --- Parity ----------------------------------------------------------------


class TestCoarseGrainParity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fig4_shaped_frame(self, seed):
        rng = np.random.default_rng(100 + seed)
        snapshot, types = _blob_frame(rng, (17, 17, 16), 64)
        _assert_coarse_parity(snapshot, types, 4, seed, n_init=2)

    def test_fig4_shaped_uniform_frame(self, rng):
        types = np.repeat(np.arange(3), (17, 17, 16))
        snapshot = rng.uniform(-3.0, 3.0, size=(64, types.size, 2))
        _assert_coarse_parity(snapshot, types, 4, 5, cached=True, n_init=2)

    @pytest.mark.parametrize("case", range(24))
    def test_random_shapes_and_clamping(self, case):
        rng = np.random.default_rng(1000 + case)
        counts = tuple(int(c) for c in rng.integers(1, 31, size=rng.integers(1, 4)))
        n_samples = int(rng.integers(1, 71))
        snapshot, types = _blob_frame(rng, counts, n_samples, blobs=int(rng.integers(1, 6)))
        if case % 3 == 0:
            snapshot = _grid(rng, snapshot.shape, 0.5)
        _assert_coarse_parity(
            snapshot,
            types,
            int(rng.integers(1, 7)),
            case,
            cached=bool(case % 2),
            n_init=int(rng.integers(1, 5)),
            reference_sample=int(rng.integers(n_samples)),
        )

    def test_coincident_points_take_the_uniform_seeding_branch(self):
        # Every centre after the first of an all-coincident type is drawn by
        # the ``total <= 0`` branch; type 1 has two distinct points only.
        types = np.repeat(np.arange(3), (6, 7, 5))
        snapshot = np.zeros((9, types.size, 2))
        snapshot[:, 6:13] = np.where(np.arange(7)[:, None] < 3, 1.5, -0.0)
        snapshot[:, 13:] = np.random.default_rng(3).normal(size=(9, 5, 2))
        _assert_coarse_parity(snapshot, types, 4, 11, n_init=3)

    def test_rounded_grid_frames(self):
        rng = np.random.default_rng(7)
        types = np.repeat(np.arange(3), (17, 17, 16))
        for step in (0.5, 1.0, 2.0):
            snapshot = _grid(rng, (40, types.size, 2), step)
            _assert_coarse_parity(snapshot, types, 4, int(step * 10), n_init=2)

    def test_one_sample_and_one_particle_types(self, rng):
        types = np.arange(5)
        snapshot = rng.normal(size=(1, 5, 2))
        _assert_coarse_parity(snapshot, types, 3, 2)


class TestKMeansParity:
    @pytest.mark.parametrize("d", [2, 3, 100])
    @pytest.mark.parametrize("n_init", [1, 4])
    def test_dimensions(self, d, n_init):
        rng = np.random.default_rng(d * 10 + n_init)
        for k in (1, 2, 3, 5):
            points = rng.normal(size=(int(rng.integers(k, 40)), d))
            points[: points.shape[0] // 3] += 4.0
            _assert_kmeans_parity(points, k, k, n_init=n_init)

    def test_fig6_shaped_shapes(self, rng):
        # bench_fig06 clusters flattened (m, 2n) shapes into two categories.
        flattened = rng.normal(size=(60, 100)) + np.repeat([[0.0], [1.5]], 30, axis=0)
        _assert_kmeans_parity(flattened, 2, 0, n_init=4)

    @pytest.mark.parametrize("d", [2, 3, 100])
    def test_coincident_points(self, d):
        for k in (2, 4):
            _assert_kmeans_parity(np.full((9, d), 0.25), k, k, cached=True)

    def test_few_distinct_points(self):
        points = np.repeat([[0.0, 1.0], [2.0, -0.0], [0.0, 1.0]], 4, axis=0)
        for k in (1, 2, 3, 4, 6):
            _assert_kmeans_parity(points, k, k)

    @pytest.mark.parametrize("step", [0.25, 0.5, 1.0, 3.0])
    def test_rounded_grids(self, step):
        rng = np.random.default_rng(int(step * 4))
        for trial in range(20):
            points = _grid(rng, (int(rng.integers(6, 30)), 2), step)
            _assert_kmeans_parity(points, int(rng.integers(1, 7)), trial, cached=bool(trial % 2))

    def test_negative_zero_coordinates(self):
        points = np.array([[-0.0, -0.0], [-0.0, 1.0], [2.0, -0.0], [-0.0, -0.0], [2.0, 1.0], [0.0, -0.0]])
        for k in (1, 2, 3, 4, 6):
            _assert_kmeans_parity(points, k, k, n_init=3)

    @pytest.mark.parametrize("max_iterations", [1, 2, 3])
    def test_fits_stop_unconverged(self, rng, max_iterations):
        points = rng.normal(size=(50, 2))
        result = _assert_kmeans_parity(points, 5, 3, n_init=4, max_iterations=max_iterations)
        assert not result.converged

    @pytest.mark.parametrize("tolerance", [0.0, 10.0])
    def test_tolerance(self, rng, tolerance):
        # With tolerance 0 no fit converges: shift < 0 never holds.
        _assert_kmeans_parity(rng.normal(size=(30, 3)), 3, 1, tolerance=tolerance, max_iterations=12)

    def test_empty_cluster_moves_to_the_worst_served_point(self):
        # Two bands of points.  With this seed the second Lloyd iteration
        # leaves cluster 0 without members, and it moves to point 4, the one
        # farthest from its nearest centre (found by search; rare).
        rng = np.random.default_rng(5615)
        rng.integers(2, 7), rng.integers(3, 14)
        points = rng.normal(size=(10, 2)) * np.array([1, 0.01]) + rng.integers(0, 2, size=(10, 1)) * 3
        _assert_kmeans_parity(points, 3, 5615, n_init=1)

    def test_overflowing_distances_raise_like_the_loop(self):
        points = np.array([[0.0, 0.0], [1e200, 0.0], [2e200, 1.0]])
        with pytest.raises(ValueError), np.errstate(invalid="ignore"):
            _loop_kmeans(points, 2, rng=0)
        with pytest.raises(ValueError):
            kmeans(points, 2, rng=0)


class _ScriptedGenerator(np.random.Generator):
    """A generator whose ``integers`` and ``random`` return scripted values."""

    def __init__(self, integers, uniforms):
        super().__init__(np.random.PCG64(0))
        self._integers, self._uniforms = list(integers), list(uniforms)

    def integers(self, high, size=None):
        if size is None:
            return self._integers.pop(0)
        return np.array([self._integers.pop(0) for _ in range(size)], dtype=np.int64)

    def random(self, size=None):
        if size in (None, ()):  # rng.choice asks for shape ()
            return self._uniforms.pop(0)
        return np.array([self._uniforms.pop(0) for _ in range(size)])


class TestSeedingPickRule:
    """The batched pick is ``rng.choice``'s, down to draws that hit a ``cdf`` value exactly."""

    @staticmethod
    def _boundary_draws(points):
        closest_sq = np.einsum("ij,ij->i", points - points[0], points - points[0])
        cdf = np.cumsum(closest_sq / closest_sq.sum())
        edges = [0.0, *cdf.tolist(), *(cdf / cdf[-1]).tolist(), np.nextafter(1.0, 0.0)]
        return [u for u in edges if u < 1.0]  # random() draws from [0, 1)

    @pytest.mark.parametrize(
        "points",
        [
            np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
            # Before choice's renormalisation their cumsum(p) ends at
            # 0.9999999999999998 and 1.0000000000000002.
            np.random.default_rng(13).normal(size=(12, 2)),
            np.random.default_rng(13).normal(size=(7, 3)),
        ],
        ids=["dyadic", "normal-2d", "normal-3d"],
    )
    def test_boundary_draws(self, points):
        from repro.cluster.kmeans import _plus_plus_seeds

        for u in self._boundary_draws(points):
            expected = _loop_plus_plus_init(points, 2, _ScriptedGenerator([0], [u]))
            actual = _plus_plus_seeds(points[None], 2, _ScriptedGenerator([0], [u]))[0]
            _assert_bitwise(actual, expected)


@pytest.mark.fuzz
@given(
    counts=st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=3),
    n_samples=st.integers(min_value=1, max_value=40),
    n_clusters=st.integers(min_value=1, max_value=6),
    n_init=st.integers(min_value=1, max_value=4),
    step=st.sampled_from([None, 0.5, 1.5]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    cached=st.booleans(),
)
def test_coarse_grain_matches_the_per_fit_loop(counts, n_samples, n_clusters, n_init, step, seed, cached):
    rng = np.random.default_rng(seed)
    snapshot, types = _blob_frame(rng, tuple(counts), n_samples, blobs=int(rng.integers(1, 5)))
    if step is not None:
        snapshot = _grid(rng, snapshot.shape, step)
    _assert_coarse_parity(snapshot, types, n_clusters, seed, cached=cached, n_init=n_init)


@pytest.mark.fuzz
@given(
    n=st.integers(min_value=1, max_value=40),
    d=st.sampled_from([2, 3, 8]),
    n_clusters=st.integers(min_value=1, max_value=6),
    n_init=st.integers(min_value=1, max_value=4),
    max_iterations=st.sampled_from([1, 2, 100]),
    grid=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_kmeans_matches_the_per_fit_loop(n, d, n_clusters, n_init, max_iterations, grid, seed):
    rng = np.random.default_rng(seed)
    n_clusters = min(n_clusters, n)
    if grid and d == 2:
        points = _grid(rng, (n, d), 1.0)
    else:
        points = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0)
    _assert_kmeans_parity(points, n_clusters, seed, cached=bool(seed % 2), n_init=n_init, max_iterations=max_iterations)
