"""Tests for repro.infotheory.ksg (the paper's core estimator)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.infotheory.ksg import _dense_ksg_counts, _ksg_tree_counts, ksg_multi_information
from repro.infotheory.variables import as_variable_list


def _correlated_gaussians(rho: float, m: int, seed: int = 0) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    cov = [[1.0, rho], [rho, 1.0]]
    xy = rng.multivariate_normal([0.0, 0.0], cov, size=m)
    return [xy[:, :1], xy[:, 1:]]


def _gaussian_mi_bits(rho: float) -> float:
    return -0.5 * np.log2(1.0 - rho * rho)


def _counts(values, k, variant, backend):
    """One backend's ``(n_vars, m)`` count table."""
    var_list = as_variable_list(values)
    if backend == "kdtree":
        return _ksg_tree_counts(var_list, k, variant)
    return _dense_ksg_counts(var_list, k, variant)


class TestAgainstAnalyticGaussian:
    @pytest.mark.parametrize("rho", [0.3, 0.6, 0.9])
    @pytest.mark.parametrize("variant", ["ksg1", "ksg2"])
    def test_bivariate_gaussian(self, rho, variant):
        variables = _correlated_gaussians(rho, m=1500)
        estimate = ksg_multi_information(variables, k=5, variant=variant)
        assert estimate == pytest.approx(_gaussian_mi_bits(rho), abs=0.12)

    @pytest.mark.parametrize("variant", ["ksg1", "ksg2"])
    def test_independent_is_near_zero(self, variant):
        rng = np.random.default_rng(1)
        variables = [rng.standard_normal((1500, 1)), rng.standard_normal((1500, 1))]
        assert abs(ksg_multi_information(variables, k=5, variant=variant)) < 0.08

    def test_three_variable_common_cause(self):
        # X, Y = X + noise, Z independent: I(X,Y,Z) = I(X;Y).
        rng = np.random.default_rng(2)
        m = 1500
        x = rng.standard_normal((m, 1))
        y = x + 0.5 * rng.standard_normal((m, 1))
        z = rng.standard_normal((m, 1))
        # Analytic: correlation between X and Y is 1/sqrt(1.25)
        rho = 1.0 / np.sqrt(1.25)
        expected = _gaussian_mi_bits(rho)
        estimate = ksg_multi_information([x, y, z], k=5, variant="ksg2")
        assert estimate == pytest.approx(expected, abs=0.2)

    def test_vector_valued_observers(self):
        rng = np.random.default_rng(3)
        m = 1200
        shared = rng.standard_normal((m, 2))
        a = shared + 0.7 * rng.standard_normal((m, 2))
        b = shared + 0.7 * rng.standard_normal((m, 2))
        dependent = ksg_multi_information([a, b], k=5)
        independent = ksg_multi_information(
            [rng.standard_normal((m, 2)), rng.standard_normal((m, 2))], k=5
        )
        assert dependent > independent + 0.5


class TestEstimatorProperties:
    def test_paper_variant_preserves_ordering(self):
        # The literal Eq. 18/20 transcription is offset but must remain
        # monotone in the underlying dependence.
        weak = ksg_multi_information(_correlated_gaussians(0.2, 800, seed=4), k=4, variant="paper")
        strong = ksg_multi_information(_correlated_gaussians(0.9, 800, seed=4), k=4, variant="paper")
        assert strong > weak

    def test_insensitive_to_k_in_paper_range(self):
        variables = _correlated_gaussians(0.8, 1200, seed=5)
        estimates = [ksg_multi_information(variables, k=k) for k in (2, 4, 5, 10)]
        assert max(estimates) - min(estimates) < 0.15

    def test_invariant_under_variable_permutation(self):
        variables = _correlated_gaussians(0.7, 600, seed=6)
        forward = ksg_multi_information(variables, k=5)
        backward = ksg_multi_information(list(reversed(variables)), k=5)
        assert forward == pytest.approx(backward, abs=1e-9)

    def test_invariant_under_per_variable_isometry(self):
        # Rotating or translating an observer's coordinates must not change
        # the estimate (the metric per observer is Euclidean).
        rng = np.random.default_rng(7)
        m = 800
        shared = rng.standard_normal((m, 2))
        a = shared + 0.5 * rng.standard_normal((m, 2))
        b = shared + 0.5 * rng.standard_normal((m, 2))
        theta = 1.1
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        base = ksg_multi_information([a, b], k=5)
        transformed = ksg_multi_information([a @ rot.T + 3.0, b], k=5)
        assert transformed == pytest.approx(base, abs=1e-9)

    def test_increases_with_coupling_strength(self):
        rng = np.random.default_rng(8)
        m = 700
        shared = rng.standard_normal((m, 1))
        estimates = []
        for noise in (2.0, 1.0, 0.5, 0.25):
            a = shared + noise * rng.standard_normal((m, 1))
            b = shared + noise * rng.standard_normal((m, 1))
            estimates.append(ksg_multi_information([a, b], k=5))
        assert all(np.diff(estimates) > 0)

    def test_accepts_3d_array_input(self):
        rng = np.random.default_rng(9)
        arr = rng.standard_normal((300, 4, 2))
        value = ksg_multi_information(arr, k=3)
        assert np.isfinite(value)

    def test_counts_shape(self):
        variables = _correlated_gaussians(0.5, 200, seed=10)
        counts = _counts(variables, 3, "ksg2", "dense")
        assert counts.shape == (2, 200)
        assert np.all(counts >= 1)

    def test_ksg2_counts_at_least_k(self):
        variables = _correlated_gaussians(0.5, 300, seed=11)
        counts = _counts(variables, 4, "ksg2", "dense")
        # The rectangle containing the k joint neighbours contains at least k
        # points in every projection.
        assert np.all(counts >= 4)

    def test_invalid_inputs(self):
        variables = _correlated_gaussians(0.5, 50, seed=12)
        with pytest.raises(ValueError):
            ksg_multi_information(variables, k=0)
        with pytest.raises(ValueError):
            ksg_multi_information(variables, k=50)
        with pytest.raises(ValueError):
            ksg_multi_information(variables, k=5, variant="ksg3")


class TestBackends:
    """The tree backends must answer exactly the dense path's queries."""

    @pytest.mark.parametrize("m", [60, 300])
    @pytest.mark.parametrize("n_vars", [2, 4])
    def test_ksg1_kdtree_matches_dense(self, m, n_vars):
        rng = np.random.default_rng(100 + m + n_vars)
        values = rng.standard_normal((m, n_vars, 2))
        for i in range(1, n_vars):
            values[:, i] += 0.6 * values[:, i - 1]
        dense = ksg_multi_information(values, k=4, variant="ksg1", backend="dense")
        tree = ksg_multi_information(values, k=4, variant="ksg1", backend="kdtree")
        assert tree == pytest.approx(dense, abs=1e-9)

    def test_ksg1_kdtree_matches_dense_counts_exactly_on_grid(self):
        # Integer coordinates make every pairwise distance exactly
        # representable, so the two backends must agree bit-for-bit.
        rng = np.random.default_rng(7)
        values = rng.integers(0, 12, size=(120, 3, 2)).astype(float)
        np.testing.assert_array_equal(_counts(values, 3, "ksg1", "dense"), _counts(values, 3, "ksg1", "kdtree"))
        dense = ksg_multi_information(values, k=3, variant="ksg1", backend="dense")
        assert ksg_multi_information(values, k=3, variant="ksg1", backend="kdtree") == dense

    def test_auto_resolves_by_sample_count(self):
        from repro.infotheory.ksg import KSG1_KDTREE_MIN_SAMPLES

        rng = np.random.default_rng(8)
        small = rng.standard_normal((KSG1_KDTREE_MIN_SAMPLES - 1, 2, 1))
        large = rng.standard_normal((KSG1_KDTREE_MIN_SAMPLES, 2, 1))
        for values in (small, large):
            auto = ksg_multi_information(values, k=3, variant="ksg1", backend="auto")
            dense = ksg_multi_information(values, k=3, variant="ksg1", backend="dense")
            assert auto == pytest.approx(dense, abs=1e-9)

    @pytest.mark.parametrize("variant", ["ksg2", "paper"])
    @pytest.mark.parametrize("m", [60, 300])
    def test_rect_variant_kdtree_matches_dense(self, variant, m):
        variables = _correlated_gaussians(0.5, m, seed=13)
        dense = ksg_multi_information(variables, k=3, variant=variant, backend="dense")
        tree = ksg_multi_information(variables, k=3, variant=variant, backend="kdtree")
        assert tree == pytest.approx(dense, abs=1e-9)

    @pytest.mark.parametrize("variant", ["ksg2", "paper"])
    def test_rect_variant_kdtree_matches_dense_counts_exactly_on_grid(self, variant):
        # Integer coordinates make every pairwise distance exactly
        # representable and force heavy distance ties at the k-th neighbour;
        # the canonical (distance, index) tie-breaking shared by the two
        # backends must make them agree bit-for-bit anyway.
        rng = np.random.default_rng(17)
        values = rng.integers(0, 12, size=(120, 3, 2)).astype(float)
        np.testing.assert_array_equal(_counts(values, 3, variant, "dense"), _counts(values, 3, variant, "kdtree"))
        dense = ksg_multi_information(values, k=3, variant=variant, backend="dense")
        assert ksg_multi_information(values, k=3, variant=variant, backend="kdtree") == dense

    @pytest.mark.parametrize("variant", ["ksg1", "ksg2", "paper"])
    def test_duplicates_and_constant_blocks_agree_bitwise(self, variant):
        # Exact duplicate rows and a constant observer are the worst tie
        # cases (zero distances everywhere in one block).
        rng = np.random.default_rng(21)
        values = rng.integers(0, 4, size=(90, 3, 2)).astype(float)
        values[10:20] = values[0:10]
        values[:, 2, :] = 1.0
        np.testing.assert_array_equal(_counts(values, 4, variant, "dense"), _counts(values, 4, variant, "kdtree"))
        dense = ksg_multi_information(values, k=4, variant=variant, backend="dense")
        assert ksg_multi_information(values, k=4, variant=variant, backend="kdtree") == dense

    def test_auto_crossover_is_per_variant(self):
        from repro.infotheory.ksg import (
            KSG1_KDTREE_MIN_SAMPLES,
            KSG2_KDTREE_MIN_SAMPLES,
            PAPER_KDTREE_MIN_SAMPLES,
            _resolve_ksg_backend,
        )

        minimums = {
            "ksg1": KSG1_KDTREE_MIN_SAMPLES,
            "ksg2": KSG2_KDTREE_MIN_SAMPLES,
            "paper": PAPER_KDTREE_MIN_SAMPLES,
        }
        for variant, minimum in minimums.items():
            assert _resolve_ksg_backend("auto", variant, minimum - 1) == "dense"
            assert _resolve_ksg_backend("auto", variant, minimum) == "kdtree"

    def test_workers_do_not_change_tree_results(self):
        variables = _correlated_gaussians(0.6, 400, seed=30)
        for variant in ("ksg1", "ksg2", "paper"):
            one = ksg_multi_information(
                variables, k=4, variant=variant, backend="kdtree", workers=1
            )
            many = ksg_multi_information(
                variables, k=4, variant=variant, backend="kdtree", workers=-1
            )
            assert one == many

    @pytest.mark.slow
    @pytest.mark.parametrize("variant", ["ksg2", "paper"])
    def test_rect_variant_kdtree_matches_dense_at_scale(self, variant):
        # Above the measured crossover the tree path is the one "auto"
        # actually takes; agreement must hold there too, not just at the
        # small sizes the quick tests cover.
        variables = _correlated_gaussians(0.4, 3000, seed=31)
        dense = ksg_multi_information(variables, k=4, variant=variant, backend="dense")
        tree = ksg_multi_information(variables, k=4, variant=variant, backend="kdtree")
        assert tree == pytest.approx(dense, abs=1e-7)

    def test_unknown_backend_is_rejected(self):
        variables = _correlated_gaussians(0.5, 50, seed=14)
        with pytest.raises(ValueError, match="unknown estimator backend"):
            ksg_multi_information(variables, k=3, variant="ksg1", backend="warp")

    def test_lagged_mi_path_delegates_to_the_same_registry(self):
        # The §7.3 lagged-MI estimator forwards its backend request here, so
        # dense/kdtree must agree through that entry point too.
        from repro.infotheory.transfer import time_lagged_mutual_information

        rng = np.random.default_rng(15)
        source = rng.standard_normal((20, 20, 2))
        target = np.roll(source, 1, axis=1) + 0.1 * rng.standard_normal((20, 20, 2))
        dense = time_lagged_mutual_information(source, target, lag=1, k=3, backend="dense")
        tree = time_lagged_mutual_information(source, target, lag=1, k=3, backend="kdtree")
        assert tree == pytest.approx(dense, abs=1e-9)
