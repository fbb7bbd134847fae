"""Estimator equivalence and property suite for the information-dynamics engine.

Pins the contracts introduced with the batched analysis pipeline:

* the ``dense`` and ``kdtree`` estimator backends answer the *same* queries,
  so CMI / lagged-MI / TE agree to tight tolerance on generic data and
  exactly on data whose distances are exactly representable (tied integer
  grids, duplicated points, constant conditioning columns);
* the shared-embedding pairwise analysis is pure reuse: its matrices match
  the naive per-pair estimator loop bit-for-bit, for both backends, any
  ``n_jobs``;
* the estimators recover closed-form values on correlated Gaussians and a
  coupled AR(1) pair, vanish on independent pairs, and behave as kNN
  estimators should under affine rescaling.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.information_dynamics import (
    _te_row,
    pairwise_lagged_mutual_information,
    pairwise_transfer_entropy,
    particle_series,
)
from repro.infotheory.knn import (
    ESTIMATOR_BACKENDS,
    EuclideanBallCounter,
    ProductMetricTree,
    k_nearest_neighbor_indices,
    resolve_estimator_backend,
)
from repro.infotheory.ksg import _squared_distances
from repro.infotheory.transfer import (
    _cmi_workspace,
    _dense_cmi_counts,
    conditional_mutual_information,
    time_lagged_mutual_information,
    transfer_entropy,
)
from repro.particles.trajectory import EnsembleTrajectory

from test_ksg_dense_kernel import pairwise_euclidean

#: Cross-backend tolerance on generic continuous data.  The two backends
#: compute identical quantities, but through different floating-point routes
#: (the dense path's expanded-square matrices vs direct coordinate
#: differences in the trees) — and every sample's joint k-th neighbour sits
#: *exactly* at distance ε in whichever block attains the joint max, so that
#: boundary pair's strict count can flip by ±1 wherever the two formulas
#: disagree in the last ulp.  A handful of ±1 count flips moves the digamma
#: average by at most a few 1e-3 bits, far below estimator bias/variance;
#: on exactly-representable (integer-grid) data both formulas are exact and
#: agreement is bitwise — asserted separately below.
BACKEND_ATOL = 5e-3


def _random_cloud(m: int, dims: tuple[int, ...], seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((m, d)) for d in dims]


def _tied_integer_cloud(m: int, dims: tuple[int, ...], seed: int) -> list[np.ndarray]:
    """Small-integer coordinates: every distance is exactly representable,
    ties (including exact duplicates) are massive, and both backends must
    resolve them identically."""
    rng = np.random.default_rng(seed)
    blocks = [rng.integers(0, 4, size=(m, d)).astype(float) for d in dims]
    for block in blocks:
        block[m // 4 : m // 2] = block[: m // 4]  # exact duplicate samples
    return blocks


class TestProductMetricPrimitives:
    """The tree primitives against the dense reference, query by query."""

    @pytest.mark.parametrize("dims", [(2, 2, 2), (1, 1, 1), (2, 1, 3), (2,)])
    @pytest.mark.parametrize("k", [1, 4])
    def test_kth_distances_and_counts_match_dense(self, dims, k):
        blocks = _random_cloud(180, dims, seed=len(dims) * 10 + k)
        m = blocks[0].shape[0]
        joint = np.stack([pairwise_euclidean(b) for b in blocks]).max(axis=0)
        kth_idx = k_nearest_neighbor_indices(joint, k)[:, -1]
        eps_dense = joint[np.arange(m), kth_idx]
        tree = ProductMetricTree(blocks)
        eps_tree = tree.kth_neighbor_distances(k)
        np.testing.assert_allclose(eps_tree, eps_dense, rtol=1e-9)
        inside = joint < eps_dense[:, None]
        np.fill_diagonal(inside, False)
        np.testing.assert_array_equal(tree.counts_within(eps_tree), inside.sum(axis=1))

    def test_exact_on_tied_integer_grid(self):
        blocks = _tied_integer_cloud(120, (2, 1), seed=3)
        m = blocks[0].shape[0]
        joint = np.stack([pairwise_euclidean(b) for b in blocks]).max(axis=0)
        tree = ProductMetricTree(blocks)
        for k in (1, 3, 6):
            kth_idx = k_nearest_neighbor_indices(joint, k)[:, -1]
            eps_dense = joint[np.arange(m), kth_idx]
            np.testing.assert_array_equal(tree.kth_neighbor_distances(k), eps_dense)
            inside = joint < eps_dense[:, None]
            np.fill_diagonal(inside, False)
            np.testing.assert_array_equal(tree.counts_within(eps_dense), inside.sum(axis=1))

    @pytest.mark.parametrize("dims", [(2, 2, 2), (1, 1, 1), (2, 1, 3), (2,)])
    @pytest.mark.parametrize("k", [1, 4])
    def test_joint_neighbor_indices_match_dense(self, dims, k):
        # The rectangle variants (KSG2, "paper") need the neighbours
        # themselves: the tree must pick the dense (distance, index) order.
        blocks = _random_cloud(180, dims, seed=len(dims) * 10 + k)
        joint = np.stack([pairwise_euclidean(b) for b in blocks]).max(axis=0)
        np.testing.assert_array_equal(
            ProductMetricTree(blocks).k_joint_neighbor_indices(k),
            k_nearest_neighbor_indices(joint, k),
        )

    def test_joint_neighbor_indices_exact_on_tied_integer_grid(self):
        # Many neighbours tie at the k-th distance; ties go to the lower
        # sample index on both paths.
        blocks = _tied_integer_cloud(120, (2, 1), seed=3)
        joint = np.stack([pairwise_euclidean(b) for b in blocks]).max(axis=0)
        tree = ProductMetricTree(blocks)
        for k in (1, 3, 6):
            np.testing.assert_array_equal(
                tree.k_joint_neighbor_indices(k), k_nearest_neighbor_indices(joint, k)
            )

    def test_euclidean_counter_matches_dense_strict_counts(self):
        # Radii strictly between the 3rd and 4th neighbour distances: every
        # point's count is exactly 3 under any floating-point formula.
        (block,) = _random_cloud(250, (2,), seed=7)
        dist = pairwise_euclidean(block)
        work = dist.copy()
        np.fill_diagonal(work, np.inf)
        ordered = np.sort(work, axis=1)
        radii = 0.5 * (ordered[:, 2] + ordered[:, 3])
        counter = EuclideanBallCounter(block)
        inside = dist < radii[:, None]
        np.fill_diagonal(inside, False)
        np.testing.assert_array_equal(counter.counts_within(radii), inside.sum(axis=1))
        np.testing.assert_array_equal(counter.counts_within(radii), np.full(250, 3))

    def test_euclidean_counter_strict_at_representable_ties(self):
        # Integer grid: a radius that equals a distance exactly must exclude
        # the boundary points (strict inequality), identically to the dense
        # comparison.
        block = np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 5.0], [6.0, 8.0], [0.0, 1.0]])
        counter = EuclideanBallCounter(block)
        radii = np.full(5, 5.0)  # points at distance exactly 5 are outside
        dist = pairwise_euclidean(block)
        inside = dist < radii[:, None]
        np.fill_diagonal(inside, False)
        np.testing.assert_array_equal(counter.counts_within(radii), inside.sum(axis=1))

    def test_euclidean_counter_zero_radius(self):
        block = np.zeros((10, 2))  # all duplicates: strict ball of radius 0 is empty
        counter = EuclideanBallCounter(block)
        np.testing.assert_array_equal(counter.counts_within(np.zeros(10)), np.zeros(10, dtype=int))

    def test_backend_registry(self):
        assert resolve_estimator_backend("dense", n_samples=10**6) == "dense"
        assert resolve_estimator_backend("kdtree", n_samples=4) == "kdtree"
        assert resolve_estimator_backend("auto", n_samples=8) == "dense"
        assert resolve_estimator_backend("auto", n_samples=10**6) == "kdtree"
        assert resolve_estimator_backend("auto", n_samples=10, min_samples=10) == "kdtree"
        assert set(ESTIMATOR_BACKENDS) == {"dense", "kdtree"}
        with pytest.raises(ValueError):
            resolve_estimator_backend("sparse", n_samples=100)


class TestBackendEquivalence:
    @pytest.mark.parametrize("dims", [(1, 1, 1), (2, 2, 2), (2, 1, 3)])
    def test_cmi_backends_agree_on_random_clouds(self, dims):
        a, b, c = _random_cloud(400, dims, seed=sum(dims))
        dense = conditional_mutual_information(a, b, c, k=4, backend="dense")
        kdtree = conditional_mutual_information(a, b, c, k=4, backend="kdtree")
        assert kdtree == pytest.approx(dense, abs=BACKEND_ATOL)

    def test_cmi_backends_agree_on_tied_distances(self):
        a, b, c = _tied_integer_cloud(160, (2, 2, 2), seed=5)
        dense = conditional_mutual_information(a, b, c, k=4, backend="dense")
        kdtree = conditional_mutual_information(a, b, c, k=4, backend="kdtree")
        assert kdtree == dense  # exactly representable distances: bit-identical

    def test_cmi_backends_agree_with_constant_conditioning(self):
        rng = np.random.default_rng(11)
        m = 300
        a = rng.standard_normal((m, 2))
        b = a + 0.5 * rng.standard_normal((m, 2))
        c = np.full((m, 1), 2.5)  # zero-variance conditioning column
        dense = conditional_mutual_information(a, b, c, k=4, backend="dense")
        kdtree = conditional_mutual_information(a, b, c, k=4, backend="kdtree")
        assert np.isfinite(dense)
        assert kdtree == pytest.approx(dense, abs=BACKEND_ATOL)
        # Conditioning on a constant must not destroy the dependence.
        assert dense > 0.5

    def test_lagged_mi_and_te_backends_agree(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((50, 12, 2))
        y = 0.7 * np.roll(x, 1, axis=1) + rng.standard_normal((50, 12, 2))
        for func, kwargs in (
            (time_lagged_mutual_information, dict(lag=1, k=4)),
            (transfer_entropy, dict(history=2, k=4)),
        ):
            dense = func(x, y, backend="dense", **kwargs)
            kdtree = func(x, y, backend="kdtree", **kwargs)
            assert kdtree == pytest.approx(dense, abs=BACKEND_ATOL)

    def test_unknown_backend_rejected(self):
        a, b, c = _random_cloud(60, (1, 1, 1), seed=0)
        with pytest.raises(ValueError):
            conditional_mutual_information(a, b, c, k=3, backend="sparse")
        with pytest.raises(ValueError):
            transfer_entropy(np.zeros((4, 6, 1)), np.zeros((4, 6, 1)), backend="warp")

    @pytest.mark.slow
    def test_backends_agree_at_scale(self):
        # Larger-m check at the regime where "auto" switches to the tree
        # backend; slow-marked so selective runs can exclude it.
        rng = np.random.default_rng(13)
        m = 1500
        a = rng.standard_normal((m, 2))
        c = a + 0.5 * rng.standard_normal((m, 2))
        b = c + 0.5 * rng.standard_normal((m, 2))
        dense = conditional_mutual_information(a, b, c, k=5, backend="dense")
        kdtree = conditional_mutual_information(a, b, c, k=5, backend="kdtree")
        auto = conditional_mutual_information(a, b, c, k=5, backend="auto")
        assert kdtree == pytest.approx(dense, abs=BACKEND_ATOL)
        assert auto == kdtree  # m >= KDTREE_MIN_SAMPLES resolves to the tree
        x = rng.standard_normal((100, 16, 2)).cumsum(axis=1)
        y = 0.6 * np.roll(x, 1, axis=1) + rng.standard_normal((100, 16, 2))
        te_dense = transfer_entropy(x, y, history=1, k=4, backend="dense")
        te_kdtree = transfer_entropy(x, y, history=1, k=4, backend="kdtree")
        assert te_kdtree == pytest.approx(te_dense, abs=BACKEND_ATOL)


def _driven_ensemble(n_samples=30, n_steps=18, n_particles=4, seed=0) -> EnsembleTrajectory:
    rng = np.random.default_rng(seed)
    positions = np.zeros((n_steps, n_samples, n_particles, 2))
    for t in range(1, n_steps):
        noise = rng.standard_normal((n_samples, n_particles, 2))
        positions[t] = 0.5 * positions[t - 1] + noise
        positions[t, :, 1:] += 0.8 * positions[t - 1, :, :-1]
    return EnsembleTrajectory(positions=positions, types=np.zeros(n_particles, dtype=int))


class TestSharedEmbeddingMatchesNaiveLoop:
    @pytest.fixture(scope="class")
    def ensemble(self):
        return _driven_ensemble()

    @pytest.fixture(scope="class")
    def series(self, ensemble):
        return [particle_series(ensemble, p) for p in range(ensemble.n_particles)]

    @pytest.mark.parametrize("backend", ["dense", "kdtree"])
    def test_pairwise_te_matches_per_pair_loop_exactly(self, ensemble, series, backend):
        n = ensemble.n_particles
        shared = pairwise_transfer_entropy(ensemble, history=2, k=4, backend=backend)
        naive = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                if i != j:
                    naive[i, j] = transfer_entropy(
                        series[j], series[i], history=2, k=4, backend=backend
                    )
        np.testing.assert_array_equal(shared, naive)

    @pytest.mark.parametrize("backend", ["dense", "kdtree"])
    def test_pairwise_lagged_mi_matches_per_pair_loop_exactly(self, ensemble, series, backend):
        n = ensemble.n_particles
        shared = pairwise_lagged_mutual_information(ensemble, lag=1, k=4, backend=backend)
        naive = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                if i != j:
                    naive[i, j] = time_lagged_mutual_information(
                        series[j], series[i], lag=1, k=4, backend=backend
                    )
        np.testing.assert_array_equal(shared, naive)

    def test_step_stride_matches_thinned_naive_loop(self, ensemble, series):
        shared = pairwise_transfer_entropy(ensemble, history=1, k=4, step_stride=3, backend="dense")
        n = ensemble.n_particles
        naive = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                if i != j:
                    naive[i, j] = transfer_entropy(
                        series[j][:, ::3, :], series[i][:, ::3, :], history=1, k=4, backend="dense"
                    )
        np.testing.assert_array_equal(shared, naive)

    @pytest.mark.parametrize("backend", ["dense", "kdtree"])
    def test_parallel_fan_out_is_deterministic(self, ensemble, backend):
        serial = pairwise_transfer_entropy(ensemble, history=1, k=4, backend=backend, n_jobs=1)
        pooled = pairwise_transfer_entropy(ensemble, history=1, k=4, backend=backend, n_jobs=2)
        np.testing.assert_array_equal(serial, pooled)
        serial_mi = pairwise_lagged_mutual_information(ensemble, lag=1, k=4, backend=backend, n_jobs=1)
        pooled_mi = pairwise_lagged_mutual_information(ensemble, lag=1, k=4, backend=backend, n_jobs=2)
        np.testing.assert_array_equal(serial_mi, pooled_mi)

    def test_auto_equals_resolved_backend(self, ensemble):
        auto = pairwise_transfer_entropy(ensemble, history=1, k=4, backend="auto")
        dense = pairwise_transfer_entropy(ensemble, history=1, k=4, backend="dense")
        np.testing.assert_array_equal(auto, dense)  # small m resolves to dense

    def test_duplicate_particles_keep_zero_self_entries(self, ensemble):
        # The zero diagonal is by particle *identity*: repeating an index
        # must not report self-transfer between the duplicate entries.
        te = pairwise_transfer_entropy(ensemble, particles=[0, 0, 1], history=1, k=4)
        assert te[0, 1] == te[1, 0] == 0.0
        assert te[2, 0] == te[2, 1] != 0.0
        mi = pairwise_lagged_mutual_information(ensemble, particles=[2, 2], lag=1, k=4)
        np.testing.assert_array_equal(mi, np.zeros((2, 2)))

    def test_particle_subset_matches_full_matrix(self, ensemble):
        full = pairwise_transfer_entropy(ensemble, history=1, k=4, backend="dense")
        sub = pairwise_transfer_entropy(ensemble, particles=[2, 0], history=1, k=4, backend="dense")
        assert sub.shape == (2, 2)
        assert sub[0, 1] == full[2, 0]
        assert sub[1, 0] == full[0, 2]


class TestVariantAndWorkersThreading:
    """variant= and workers= must thread through the pairwise pipeline."""

    @pytest.fixture(scope="class")
    def ensemble(self):
        return _driven_ensemble(seed=5)

    @pytest.mark.parametrize("backend", ["dense", "kdtree"])
    @pytest.mark.parametrize("variant", ["paper", "ksg1", "ksg2"])
    def test_pairwise_lagged_mi_variant_matches_per_pair_loop(self, ensemble, backend, variant):
        series = [particle_series(ensemble, p) for p in range(ensemble.n_particles)]
        n = ensemble.n_particles
        shared = pairwise_lagged_mutual_information(
            ensemble, lag=1, k=4, backend=backend, variant=variant
        )
        naive = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                if i != j:
                    naive[i, j] = time_lagged_mutual_information(
                        series[j], series[i], lag=1, k=4, backend=backend, variant=variant
                    )
        np.testing.assert_array_equal(shared, naive)

    def test_variants_differ_on_the_same_data(self, ensemble):
        # Guards against a silently ignored variant=: the three estimators
        # apply different counting rules, so their matrices must not coincide.
        values = {
            variant: pairwise_lagged_mutual_information(
                ensemble, lag=1, k=4, backend="dense", variant=variant
            )
            for variant in ("paper", "ksg1", "ksg2")
        }
        assert not np.array_equal(values["paper"], values["ksg1"])
        assert not np.array_equal(values["ksg1"], values["ksg2"])

    @pytest.mark.parametrize("backend", ["dense", "kdtree"])
    def test_workers_are_bitwise_invariant(self, ensemble, backend):
        base_te = pairwise_transfer_entropy(ensemble, history=1, k=4, backend=backend, workers=1)
        many_te = pairwise_transfer_entropy(ensemble, history=1, k=4, backend=backend, workers=-1)
        np.testing.assert_array_equal(base_te, many_te)
        base_mi = pairwise_lagged_mutual_information(
            ensemble, lag=1, k=4, backend=backend, variant="ksg2", workers=1
        )
        many_mi = pairwise_lagged_mutual_information(
            ensemble, lag=1, k=4, backend=backend, variant="ksg2", workers=-1
        )
        np.testing.assert_array_equal(base_mi, many_mi)

    def test_unknown_variant_is_rejected_upfront(self, ensemble):
        with pytest.raises(ValueError, match="unknown variant"):
            pairwise_lagged_mutual_information(ensemble, lag=1, k=4, variant="warp")


class TestPooledFanOut:
    """Pooled matrix rows equal the serial rows bit for bit."""

    @pytest.fixture(autouse=True)
    def _two_workers(self, monkeypatch):
        # A single-CPU box would clip n_jobs=2 to serial and never exercise
        # the pool; the rows are tiny, so sharing one core is fine.
        monkeypatch.setattr("repro.parallel.pool.available_cpu_count", lambda: 2)

    def test_forked_pool_matches_serial_bitwise(self):
        ensemble = _driven_ensemble(seed=9)
        serial_te = pairwise_transfer_entropy(ensemble, history=1, k=4, n_jobs=1)
        pooled_te = pairwise_transfer_entropy(ensemble, history=1, k=4, n_jobs=2)
        np.testing.assert_array_equal(serial_te, pooled_te)
        serial_mi = pairwise_lagged_mutual_information(
            ensemble, lag=1, k=4, variant="ksg2", n_jobs=1
        )
        pooled_mi = pairwise_lagged_mutual_information(
            ensemble, lag=1, k=4, variant="ksg2", n_jobs=2
        )
        np.testing.assert_array_equal(serial_mi, pooled_mi)


class TestCountsWithinContract:
    """The dense CMI counts never mutate shared blocks and never count the self pair."""

    @staticmethod
    def _dense_counts(a, b, c, k):
        work = _cmi_workspace(a, c)
        return _dense_cmi_counts(work, _squared_distances(b, work[1]), k)

    def test_repeated_calls_are_idempotent_and_do_not_mutate(self):
        # Two passes over the same TE row share the cross-row cache of
        # squared source blocks, as the serial pairwise plan does.
        rng = np.random.default_rng(21)
        future, past, *sources = (rng.standard_normal((40, 2)) for _ in range(5))
        cache: dict = {}
        first = _te_row((0,), future, past, sources, 4, "dense", 1, cache)
        snapshot = {j_index: q.copy() for j_index, q in cache.items()}
        second = _te_row((0,), future, past, sources, 4, "dense", 1, cache)
        np.testing.assert_array_equal(first, second)
        assert cache.keys() == snapshot.keys() == {1, 2}
        for j_index, q in cache.items():
            np.testing.assert_array_equal(q, snapshot[j_index])

    def test_self_pair_excluded_even_with_duplicates(self):
        # Three identical points and one at distance 1 in every subspace:
        # each duplicate's 3rd neighbour is the far point, so its ball holds
        # the other two duplicates, never itself.
        block = np.array([[0.0], [0.0], [0.0], [1.0]])
        counts = self._dense_counts(block, block, block, 3)
        np.testing.assert_array_equal(counts, np.tile([2, 2, 2, 0], (3, 1)))

    def test_zero_epsilon_counts_nothing(self):
        block = np.zeros((4, 1))
        np.testing.assert_array_equal(
            self._dense_counts(block, block, block, 1), np.zeros((3, 4), dtype=int)
        )


def _coupled_ar1(n_real, n_steps, a_x, a_y, c, seed, burn=50):
    """Stationary coupled AR(1) pair: y is driven by x with gain ``c``."""
    rng = np.random.default_rng(seed)
    total = n_steps + burn
    x = np.zeros((n_real, total, 1))
    y = np.zeros((n_real, total, 1))
    for t in range(1, total):
        x[:, t] = a_x * x[:, t - 1] + rng.standard_normal((n_real, 1))
        y[:, t] = a_y * y[:, t - 1] + c * x[:, t - 1] + rng.standard_normal((n_real, 1))
    return x[:, burn:], y[:, burn:]


def _ar1_transfer_entropy_bits(a_x: float, a_y: float, c: float) -> float:
    """Closed-form ``T_{x→y}`` for the coupled AR(1) pair (unit noise).

    ``T = I(y_{t+1}; x_t | y_t) = ½ log2(1 + c² Var[x](1 - ρ²))`` with ρ the
    stationary correlation of (x_t, y_t): conditioning on y_t leaves
    ``c² Var[x | y] = c² Var[x](1 - ρ²)`` of driver variance on top of the
    unit innovation of y.
    """
    var_x = 1.0 / (1.0 - a_x**2)
    cov_xy = a_x * c * var_x / (1.0 - a_x * a_y)
    var_y = (c * c * var_x + 2.0 * a_y * c * cov_xy + 1.0) / (1.0 - a_y**2)
    rho_sq = cov_xy**2 / (var_x * var_y)
    return 0.5 * np.log2(1.0 + c * c * var_x * (1.0 - rho_sq))


class TestAnalyticValues:
    @pytest.mark.parametrize("backend", ["dense", "kdtree"])
    def test_lagged_mi_recovers_gaussian_value(self, backend):
        rho = 0.7
        expected = -0.5 * np.log2(1.0 - rho**2)
        rng = np.random.default_rng(0)
        n_real, n_steps = 300, 9
        x = rng.standard_normal((n_real, n_steps, 1))
        y = np.zeros((n_real, n_steps, 1))
        y[:, 1:] = rho * x[:, :-1] + np.sqrt(1.0 - rho**2) * rng.standard_normal(
            (n_real, n_steps - 1, 1)
        )
        value = time_lagged_mutual_information(x, y, lag=1, k=4, backend=backend)
        assert value == pytest.approx(expected, abs=0.08)

    @pytest.mark.parametrize("backend", ["dense", "kdtree"])
    def test_te_recovers_coupled_ar1_value(self, backend):
        a_x, a_y, c = 0.5, 0.5, 0.8
        expected = _ar1_transfer_entropy_bits(a_x, a_y, c)
        x, y = _coupled_ar1(500, 5, a_x, a_y, c, seed=1)
        value = transfer_entropy(x, y, history=1, k=4, backend=backend)
        assert value == pytest.approx(expected, abs=0.08)

    @pytest.mark.parametrize("backend", ["dense", "kdtree"])
    def test_te_of_independent_pair_is_near_zero(self, backend):
        x, y = _coupled_ar1(400, 5, 0.5, 0.5, 0.0, seed=2)
        value = transfer_entropy(x, y, history=1, k=4, backend=backend)
        assert abs(value) < 0.05

    @pytest.mark.parametrize("backend", ["dense", "kdtree"])
    def test_uniform_power_of_two_rescaling_is_exact(self, backend):
        # Scaling every series by the same power of two scales every distance
        # exactly, so neighbour identities and counts are bit-identical.
        x, y = _coupled_ar1(200, 5, 0.5, 0.5, 0.8, seed=3)
        base = transfer_entropy(x, y, history=1, k=4, backend=backend)
        scaled = transfer_entropy(4.0 * x, 4.0 * y, history=1, k=4, backend=backend)
        assert scaled == base

    @pytest.mark.parametrize("backend", ["dense", "kdtree"])
    def test_per_series_affine_rescaling_is_invariant(self, backend):
        # The kNN estimators are (asymptotically) invariant under separate
        # affine maps of each marginal; at finite m the joint max-metric
        # reweights the blocks, so allow estimator-level tolerance.
        x, y = _coupled_ar1(400, 5, 0.5, 0.5, 0.8, seed=4)
        base = transfer_entropy(x, y, history=1, k=4, backend=backend)
        moved = transfer_entropy(3.0 * x - 7.0, 0.25 * y + 11.0, history=1, k=4, backend=backend)
        assert moved == pytest.approx(base, abs=0.1)
        mi_base = time_lagged_mutual_information(x, y, lag=1, k=4, backend=backend)
        mi_moved = time_lagged_mutual_information(
            -2.0 * x + 1.5, 0.5 * y - 3.0, lag=1, k=4, backend=backend
        )
        assert mi_moved == pytest.approx(mi_base, abs=0.1)
