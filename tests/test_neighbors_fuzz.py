"""Cross-backend fuzz/property suite for the neighbour backends and engines.

This file is the contract that makes backend and engine choice a pure
performance decision: for *any* configuration — random positions, radii
(including pairs exactly at the cut-off), box sizes, duplicate positions,
degenerate geometries — every backend must return the identical sorted pair
set, the batched query must equal the per-sample queries, and the drift
evaluated through the sparse engine must be bit-identical to the dense
kernel.  The vectorised cell list and the adaptive ``"auto"`` engine lean on
these properties to swap implementations mid-run without observable effect.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.particles.domain import ChannelDomain, PeriodicDomain, ReflectingDomain, get_domain
from repro.particles.engine import DenseDriftEngine, SparseDriftEngine
from repro.particles.neighbors import (
    NEIGHBOR_BACKENDS,
    BruteForceNeighbors,
    CellListNeighbors,
    get_neighbor_search,
)
from repro.particles.types import InteractionParams

#: Per-push CI runs these at 25 examples (`-m "not slow"`); the nightly job at 400.
pytestmark = pytest.mark.fuzz

BACKEND_NAMES = sorted(NEIGHBOR_BACKENDS)


def _canonical(i_idx: np.ndarray, j_idx: np.ndarray) -> np.ndarray:
    """Pairs as a canonical (sorted) 2-column array, for exact comparison."""
    pairs = np.column_stack([np.asarray(i_idx, dtype=np.int64), np.asarray(j_idx, dtype=np.int64)])
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    return pairs[order]


def _fuzz_cloud(seed: int, n: int, box: float, radius: float) -> np.ndarray:
    """Random cloud seasoned with the adversarial cases: duplicate positions
    and pairs at *exactly* the cut-off radius (where squared-distance and
    sqrt-based comparisons disagree)."""
    rng = np.random.default_rng(seed)
    positions = rng.uniform(-box, box, size=(n, 2))
    n_dup = n // 5
    if n_dup:
        positions[:n_dup] = positions[rng.integers(n_dup, n, size=n_dup)]
    n_snap = n // 4
    for k in range(1, n_snap):
        angle = rng.uniform(0.0, 2.0 * np.pi)
        anchor = rng.integers(n_snap, n)
        positions[k] = positions[anchor] + radius * np.array([np.cos(angle), np.sin(angle)])
    return positions


@given(
    seed=st.integers(min_value=0, max_value=100_000),
    n=st.integers(min_value=1, max_value=40),
    box=st.floats(min_value=0.05, max_value=50.0),
    radius=st.floats(min_value=0.05, max_value=60.0),
)
def test_all_backends_return_identical_sorted_pair_sets(seed, n, box, radius):
    positions = _fuzz_cloud(seed, n, box, radius)
    reference = _canonical(*BruteForceNeighbors().pairs(positions, radius))
    for name in BACKEND_NAMES:
        result = _canonical(*get_neighbor_search(name).pairs(positions, radius))
        np.testing.assert_array_equal(result, reference, err_msg=f"backend {name}")


@given(
    seed=st.integers(min_value=0, max_value=100_000),
    m=st.integers(min_value=1, max_value=4),
    n=st.integers(min_value=1, max_value=25),
    box=st.floats(min_value=0.1, max_value=30.0),
    radius=st.floats(min_value=0.05, max_value=40.0),
)
def test_pairs_batch_equals_per_sample_pairs(seed, m, n, box, radius):
    batch = np.stack([_fuzz_cloud(seed + s, n, box, radius) for s in range(m)])
    expected_parts = []
    for s in range(m):
        si, sj = BruteForceNeighbors().pairs(batch[s], radius)
        expected_parts.append(_canonical(si, sj) + s * n)
    expected = np.concatenate(expected_parts) if expected_parts else np.empty((0, 2), int)
    for name in BACKEND_NAMES:
        i_idx, j_idx = get_neighbor_search(name).pairs_batch(batch, radius)
        result = np.column_stack([i_idx, j_idx])
        # pairs_batch must come out already in lexicographic (sample, i, j)
        # order — the exact order the sparse segment-sum consumes.
        np.testing.assert_array_equal(result, expected, err_msg=f"backend {name}")


@given(
    seed=st.integers(min_value=0, max_value=100_000),
    m=st.integers(min_value=1, max_value=3),
    n=st.integers(min_value=2, max_value=20),
    radius=st.floats(min_value=0.3, max_value=8.0),
    force=st.sampled_from(["F1", "F2"]),
)
def test_drift_bit_identical_through_both_engines(seed, m, n, radius, force):
    rng = np.random.default_rng(seed)
    params = InteractionParams.random(2, rng=rng)
    types = rng.integers(0, 2, size=n)
    batch = np.stack([_fuzz_cloud(seed + 7 * s, n, 5.0, radius) for s in range(m)])
    dense = DenseDriftEngine(types, params, force, radius)
    reference_batch = dense.drift_batch(batch)
    reference_single = dense.drift(batch[0])
    for name in BACKEND_NAMES:
        sparse = SparseDriftEngine(types, params, force, radius, neighbors=name)
        np.testing.assert_array_equal(
            sparse.drift_batch(batch), reference_batch, err_msg=f"backend {name}"
        )
        np.testing.assert_array_equal(
            sparse.drift(batch[0]), reference_single, err_msg=f"backend {name}"
        )


def _wrapped_fuzz_cloud(seed: int, n: int, box: float, radius: float) -> np.ndarray:
    """Random torus cloud seasoned with the wrapped adversarial cases.

    Some points are deliberately left *outside* the box (backends must wrap),
    some duplicate each other, and some are placed at exactly the cut-off
    radius from an anchor measured through the seam — including diagonal
    offsets whose minimum image straddles a corner of the box.
    """
    rng = np.random.default_rng(seed)
    positions = rng.uniform(-box, 2.0 * box, size=(n, 2))
    n_dup = n // 6
    if n_dup:
        positions[:n_dup] = positions[rng.integers(n_dup, n, size=n_dup)]
    n_snap = n // 3
    for k in range(1, n_snap):
        angle = rng.uniform(0.0, 2.0 * np.pi)
        # Anchors hug the box edges/corners so the exact-radius offset lands
        # across the seam once wrapped.
        corner = rng.uniform(0.0, 0.05 * box, size=2) * rng.choice([1.0, -1.0], size=2)
        anchor = np.mod(corner, box)
        positions[k] = anchor + radius * np.array([np.cos(angle), np.sin(angle)])
    return positions


@given(
    seed=st.integers(min_value=0, max_value=100_000),
    n=st.integers(min_value=1, max_value=40),
    box=st.floats(min_value=0.4, max_value=40.0),
    radius_fraction=st.floats(min_value=0.01, max_value=1.4),
)
def test_all_backends_agree_on_the_torus(seed, n, box, radius_fraction):
    # radius_fraction > 1/2 exercises the tiny-box fallbacks (cell list with
    # fewer than three wrapped cells per axis, kdtree past half the box).
    radius = radius_fraction * box / 2.0
    domain = PeriodicDomain(box=box)
    positions = _wrapped_fuzz_cloud(seed, n, box, radius)
    reference = _canonical(*BruteForceNeighbors().pairs(positions, radius, domain))
    for name in BACKEND_NAMES:
        result = _canonical(*get_neighbor_search(name).pairs(positions, radius, domain))
        np.testing.assert_array_equal(result, reference, err_msg=f"backend {name}")


@given(
    seed=st.integers(min_value=0, max_value=100_000),
    n=st.integers(min_value=1, max_value=40),
    box=st.floats(min_value=0.4, max_value=40.0),
    radius=st.floats(min_value=0.05, max_value=60.0),
)
def test_all_backends_agree_in_a_reflecting_box(seed, n, box, radius):
    # Reflecting displacements are the free-space ones; positions are
    # pre-folded into the box as the integrators guarantee.
    domain = ReflectingDomain(box=box)
    positions = domain.wrap(_fuzz_cloud(seed, n, box, min(radius, box)))
    reference = _canonical(*BruteForceNeighbors().pairs(positions, radius, domain))
    for name in BACKEND_NAMES:
        result = _canonical(*get_neighbor_search(name).pairs(positions, radius, domain))
        np.testing.assert_array_equal(result, reference, err_msg=f"backend {name}")


@given(
    seed=st.integers(min_value=0, max_value=100_000),
    m=st.integers(min_value=1, max_value=4),
    n=st.integers(min_value=1, max_value=25),
    box=st.floats(min_value=0.5, max_value=25.0),
    radius_fraction=st.floats(min_value=0.02, max_value=1.2),
)
def test_pairs_batch_equals_per_sample_pairs_on_the_torus(seed, m, n, box, radius_fraction):
    radius = radius_fraction * box / 2.0
    domain = PeriodicDomain(box=box)
    batch = np.stack([_wrapped_fuzz_cloud(seed + s, n, box, radius) for s in range(m)])
    expected_parts = []
    for s in range(m):
        si, sj = BruteForceNeighbors().pairs(batch[s], radius, domain)
        expected_parts.append(_canonical(si, sj) + s * n)
    expected = np.concatenate(expected_parts) if expected_parts else np.empty((0, 2), int)
    for name in BACKEND_NAMES:
        i_idx, j_idx = get_neighbor_search(name).pairs_batch(batch, radius, domain)
        result = np.column_stack([i_idx, j_idx])
        np.testing.assert_array_equal(result, expected, err_msg=f"backend {name}")


@given(
    seed=st.integers(min_value=0, max_value=100_000),
    m=st.integers(min_value=1, max_value=3),
    n=st.integers(min_value=2, max_value=20),
    box=st.floats(min_value=2.0, max_value=12.0),
    force=st.sampled_from(["F1", "F2"]),
)
def test_drift_bit_identical_through_both_engines_on_wrapped_domains(seed, m, n, box, force):
    rng = np.random.default_rng(seed)
    params = InteractionParams.random(2, rng=rng)
    types = rng.integers(0, 2, size=n)
    radius = float(rng.uniform(0.1, box / 2.0))
    for domain in (PeriodicDomain(box=box), ReflectingDomain(box=box)):
        batch = domain.wrap(
            np.stack([_wrapped_fuzz_cloud(seed + 7 * s, n, box, radius) for s in range(m)])
        )
        dense = DenseDriftEngine(types, params, force, radius, domain=domain)
        reference_batch = dense.drift_batch(batch)
        reference_single = dense.drift(batch[0])
        for name in BACKEND_NAMES:
            sparse = SparseDriftEngine(
                types, params, force, radius, neighbors=name, domain=domain
            )
            np.testing.assert_array_equal(
                sparse.drift_batch(batch), reference_batch,
                err_msg=f"backend {name} on {domain.spec}",
            )
            np.testing.assert_array_equal(
                sparse.drift(batch[0]), reference_single,
                err_msg=f"backend {name} on {domain.spec}",
            )


@given(
    seed=st.integers(min_value=0, max_value=100_000),
    n=st.integers(min_value=1, max_value=40),
    box_x=st.floats(min_value=0.4, max_value=40.0),
    aspect=st.floats(min_value=0.1, max_value=1.0),
    radius_fraction=st.floats(min_value=0.01, max_value=1.4),
    kind=st.sampled_from(["periodic", "channel", "reflecting"]),
)
def test_all_backends_agree_on_anisotropic_and_mixed_domains(
    seed, n, box_x, aspect, radius_fraction, kind
):
    # Anisotropic boxes and the mixed-boundary channel: the pair-set contract
    # holds per axis — modular images on periodic axes, none across the
    # reflecting walls.  radius_fraction > 1/2 of the smallest axis exercises
    # the per-axis tiny-box fallbacks.
    box_y = max(aspect * box_x, 0.05)
    radius = radius_fraction * min(box_x, box_y) / 2.0
    domain = get_domain(f"{kind}:{box_x!r},{box_y!r}")
    rng = np.random.default_rng(seed)
    positions = np.column_stack(
        [
            rng.uniform(-box_x, 2.0 * box_x, size=n),
            rng.uniform(-box_y, 2.0 * box_y, size=n),
        ]
    )
    # Seam-hugging points at exactly the cut-off from a corner anchor.
    n_snap = n // 3
    for k in range(1, n_snap):
        angle = rng.uniform(0.0, 2.0 * np.pi)
        corner = rng.uniform(0.0, 0.05, size=2) * np.array([box_x, box_y])
        positions[k] = corner + radius * np.array([np.cos(angle), np.sin(angle)])
    positions = domain.wrap(positions)
    reference = _canonical(*BruteForceNeighbors().pairs(positions, radius, domain))
    for name in BACKEND_NAMES:
        result = _canonical(*get_neighbor_search(name).pairs(positions, radius, domain))
        np.testing.assert_array_equal(
            result, reference, err_msg=f"backend {name} on {domain.spec}"
        )


@given(
    seed=st.integers(min_value=0, max_value=100_000),
    m=st.integers(min_value=1, max_value=4),
    n=st.integers(min_value=1, max_value=25),
    box_x=st.floats(min_value=0.5, max_value=25.0),
    aspect=st.floats(min_value=0.15, max_value=1.0),
    radius_fraction=st.floats(min_value=0.02, max_value=1.2),
    kind=st.sampled_from(["periodic", "channel"]),
)
def test_pairs_batch_equals_per_sample_pairs_on_mixed_domains(
    seed, m, n, box_x, aspect, radius_fraction, kind
):
    box_y = max(aspect * box_x, 0.08)
    radius = radius_fraction * min(box_x, box_y) / 2.0
    domain = get_domain(f"{kind}:{box_x!r},{box_y!r}")
    rng = np.random.default_rng(seed)
    batch = domain.wrap(
        np.stack(
            [
                np.column_stack(
                    [
                        rng.uniform(-box_x, 2.0 * box_x, size=n),
                        rng.uniform(-box_y, 2.0 * box_y, size=n),
                    ]
                )
                for _ in range(m)
            ]
        )
    )
    expected_parts = []
    for s in range(m):
        si, sj = BruteForceNeighbors().pairs(batch[s], radius, domain)
        expected_parts.append(_canonical(si, sj) + s * n)
    expected = np.concatenate(expected_parts) if expected_parts else np.empty((0, 2), int)
    for name in BACKEND_NAMES:
        i_idx, j_idx = get_neighbor_search(name).pairs_batch(batch, radius, domain)
        result = np.column_stack([i_idx, j_idx])
        np.testing.assert_array_equal(
            result, expected, err_msg=f"backend {name} on {domain.spec}"
        )


@given(
    seed=st.integers(min_value=0, max_value=100_000),
    m=st.integers(min_value=1, max_value=3),
    n=st.integers(min_value=2, max_value=20),
    box_x=st.floats(min_value=2.0, max_value=12.0),
    aspect=st.floats(min_value=0.25, max_value=1.0),
    force=st.sampled_from(["F1", "F2"]),
)
def test_drift_bit_identical_through_both_engines_on_mixed_domains(
    seed, m, n, box_x, aspect, force
):
    rng = np.random.default_rng(seed)
    params = InteractionParams.random(2, rng=rng)
    types = rng.integers(0, 2, size=n)
    box_y = max(aspect * box_x, 0.5)
    radius = float(rng.uniform(0.1, min(box_x, box_y) / 2.0))
    for domain in (
        PeriodicDomain(box=(box_x, box_y)),
        ChannelDomain(box=(box_x, box_y)),
        ReflectingDomain(box=(box_x, box_y)),
    ):
        batch = domain.wrap(
            np.stack(
                [
                    np.column_stack(
                        [
                            rng.uniform(0.0, box_x, size=n),
                            rng.uniform(0.0, box_y, size=n),
                        ]
                    )
                    for _ in range(m)
                ]
            )
        )
        dense = DenseDriftEngine(types, params, force, radius, domain=domain)
        reference_batch = dense.drift_batch(batch)
        reference_single = dense.drift(batch[0])
        for name in BACKEND_NAMES:
            sparse = SparseDriftEngine(
                types, params, force, radius, neighbors=name, domain=domain
            )
            np.testing.assert_array_equal(
                sparse.drift_batch(batch), reference_batch,
                err_msg=f"backend {name} on {domain.spec}",
            )
            np.testing.assert_array_equal(
                sparse.drift(batch[0]), reference_single,
                err_msg=f"backend {name} on {domain.spec}",
            )


class TestMixedBoundaryExactCutoff:
    """Deterministic per-axis seam semantics for anisotropic/mixed domains."""

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_channel_wraps_x_but_never_the_reflecting_walls(self, name):
        domain = ChannelDomain(box=(10.0, 4.0))
        radius = 2.0
        # [0] <-> [1]: through the x seam at distance exactly 0.5+1.5 = 2.0.
        # [2] <-> [3]: 0.25 above the bottom wall and 0.25 below the top one —
        # 'through the wall' would be 0.5, but y does not wrap, and the direct
        # distance 3.5 is out of range: this pair must NOT appear.
        positions = np.array(
            [[0.5, 2.0], [8.5, 2.0], [5.0, 0.25], [5.0, 3.75], [2.0, 1.0]]
        )
        reference = _canonical(*BruteForceNeighbors().pairs(positions, radius, domain))
        result = _canonical(*get_neighbor_search(name).pairs(positions, radius, domain))
        np.testing.assert_array_equal(result, reference)
        listed = result.tolist()
        assert [0, 1] in listed
        assert [2, 3] not in listed

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_anisotropic_seam_at_exact_cutoff_per_axis(self, name):
        domain = PeriodicDomain(box=(12.0, 4.0))
        # x-seam pair exactly at the cut-off: 0.5 + (12 - 11.0) = 1.5.
        # y-seam pair exactly at the cut-off: 0.25 + (4 - 2.75) = 1.5.
        radius = 1.5
        positions = np.array(
            [[0.5, 2.0], [11.0, 2.0], [6.0, 0.25], [6.0, 2.75], [3.0, 1.0]]
        )
        reference = _canonical(*BruteForceNeighbors().pairs(positions, radius, domain))
        result = _canonical(*get_neighbor_search(name).pairs(positions, radius, domain))
        np.testing.assert_array_equal(result, reference)
        listed = result.tolist()
        assert [0, 1] in listed and [2, 3] in listed

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_anisotropic_corner_straddling_image(self, name):
        domain = PeriodicDomain(box=(8.0, 3.0))
        # (0.1, 0.2) vs (7.9, 2.8): minimum image crosses both seams with
        # per-axis lengths, distance hypot(0.2, 0.4) ≈ 0.447.
        positions = np.array([[0.1, 0.2], [7.9, 2.8], [4.0, 1.5]])
        for radius in (0.45, 0.44):
            reference = _canonical(*BruteForceNeighbors().pairs(positions, radius, domain))
            result = _canonical(*get_neighbor_search(name).pairs(positions, radius, domain))
            np.testing.assert_array_equal(result, reference, err_msg=f"radius {radius}")
        included = _canonical(*get_neighbor_search(name).pairs(positions, 0.45, domain))
        assert [0, 1] in included.tolist()

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_channel_tiny_periodic_axis_falls_back(self, name):
        # Fewer than three wrapped cells along x: per-axis fallback must still
        # agree with brute force while y stays a plain padded axis.
        domain = ChannelDomain(box=(1.0, 6.0))
        rng = np.random.default_rng(33)
        positions = domain.wrap(
            np.column_stack(
                [rng.uniform(0.0, 1.0, size=16), rng.uniform(0.0, 6.0, size=16)]
            )
        )
        for radius in (0.4, 0.5):
            reference = _canonical(*BruteForceNeighbors().pairs(positions, radius, domain))
            result = _canonical(*get_neighbor_search(name).pairs(positions, radius, domain))
            np.testing.assert_array_equal(result, reference, err_msg=f"radius {radius}")


class TestWrappedExactCutoff:
    """Deterministic seam/corner cases for the torus backends."""

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_pair_exactly_at_cutoff_across_the_seam(self, name):
        box, radius = 10.0, 2.0
        domain = PeriodicDomain(box=box)
        # Minimum image of (0.5, 5.0) -> (9.0, 5.0) crosses the x seam at
        # distance 0.5 + (10 - 9) = 1.5 < 2; the second pair is exactly at
        # the cut-off through the seam: 0.25 + (10 - 8.25) = 2.0.
        positions = np.array([[0.5, 5.0], [9.0, 5.0], [0.25, 1.0], [8.25, 1.0], [5.0, 5.0]])
        reference = _canonical(*BruteForceNeighbors().pairs(positions, radius, domain))
        result = _canonical(*get_neighbor_search(name).pairs(positions, radius, domain))
        np.testing.assert_array_equal(result, reference)
        assert [0, 1] in reference.tolist() and [2, 3] in reference.tolist()

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_images_straddling_a_corner(self, name):
        box = 8.0
        domain = PeriodicDomain(box=box)
        # (0.1, 0.2) and (7.9, 7.8): minimum image is the diagonal through
        # the corner, distance hypot(0.3, 0.4) = 0.5 exactly.
        positions = np.array([[0.1, 0.2], [7.9, 7.8], [4.0, 4.0], [0.1, 7.9]])
        for radius in (0.5, 0.49):
            reference = _canonical(*BruteForceNeighbors().pairs(positions, radius, domain))
            result = _canonical(*get_neighbor_search(name).pairs(positions, radius, domain))
            np.testing.assert_array_equal(result, reference, err_msg=f"radius {radius}")
        included = _canonical(*get_neighbor_search(name).pairs(positions, 0.5, domain))
        assert [0, 1] in included.tolist()

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_lattice_on_the_torus(self, name):
        # A 4x4 unit lattice on a 4-box: every axis neighbour sits at exactly
        # radius 1, including the wrap-around ones, so each particle has
        # exactly 4 axis neighbours (and 4 diagonal at sqrt(2)).
        box = 4.0
        domain = PeriodicDomain(box=box)
        xs, ys = np.meshgrid(np.arange(4.0), np.arange(4.0))
        positions = np.column_stack([xs.ravel(), ys.ravel()])
        for radius, degree in ((1.0, 4), (float(np.sqrt(2.0)), 8)):
            reference = _canonical(*BruteForceNeighbors().pairs(positions, radius, domain))
            result = _canonical(*get_neighbor_search(name).pairs(positions, radius, domain))
            np.testing.assert_array_equal(result, reference, err_msg=f"radius {radius}")
            counts = np.bincount(result[:, 0], minlength=16)
            assert np.all(counts == degree), (radius, counts)

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_tiny_box_fallback_matches_brute(self, name):
        # Fewer than three wrapped cells per axis: the cell list (and the
        # kdtree past half the box) must fall back without disagreeing.
        domain = PeriodicDomain(box=1.0)
        rng = np.random.default_rng(21)
        positions = rng.uniform(0.0, 1.0, size=(14, 2))
        for radius in (0.4, 0.5):
            reference = _canonical(*BruteForceNeighbors().pairs(positions, radius, domain))
            result = _canonical(*get_neighbor_search(name).pairs(positions, radius, domain))
            np.testing.assert_array_equal(result, reference, err_msg=f"radius {radius}")


class TestNonFiniteRadiusValidation:
    """The unified cut-off validation contract: NaN rejected, inf = all pairs."""

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_nan_radius_rejected_everywhere(self, name):
        backend = get_neighbor_search(name)
        positions = np.zeros((3, 2))
        batch = np.zeros((2, 3, 2))
        with pytest.raises(ValueError, match="NaN"):
            backend.pairs(positions, float("nan"))
        with pytest.raises(ValueError, match="NaN"):
            backend.pairs_batch(batch, float("nan"))

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    @pytest.mark.parametrize("domain", [None, "periodic:5.0", "reflecting:5.0"])
    def test_infinite_radius_means_all_pairs_everywhere(self, name, domain):
        backend = get_neighbor_search(name)
        domain = get_domain(domain)
        rng = np.random.default_rng(9)
        positions = rng.uniform(0.0, 5.0, size=(7, 2))
        result = _canonical(*backend.pairs(positions, np.inf, domain))
        assert len(result) == 7 * 6
        batch = rng.uniform(0.0, 5.0, size=(2, 4, 2))
        i_idx, j_idx = backend.pairs_batch(batch, np.inf, domain)
        assert len(i_idx) == 2 * 4 * 3
        assert np.all((i_idx // 4) == (j_idx // 4))  # no cross-sample pairs

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_non_positive_radius_rejected(self, name):
        backend = get_neighbor_search(name)
        for bad in (0.0, -1.0, -np.inf):
            with pytest.raises(ValueError, match="positive"):
                backend.pairs(np.zeros((3, 2)), bad)
            with pytest.raises(ValueError, match="positive"):
                backend.pairs_batch(np.zeros((2, 3, 2)), bad)


class TestExactCutoffPairs:
    """Pairs whose distance lands exactly on the radius are kept by every backend."""

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_lattice_at_exact_radius(self, name):
        # Unit lattice probed at radius exactly 1.0 and exactly sqrt(2):
        # axis-aligned (and diagonal) neighbours sit exactly on the cut-off.
        xs, ys = np.meshgrid(np.arange(4.0), np.arange(4.0))
        positions = np.column_stack([xs.ravel(), ys.ravel()])
        for radius in (1.0, float(np.sqrt(2.0))):
            reference = _canonical(*BruteForceNeighbors().pairs(positions, radius))
            result = _canonical(*get_neighbor_search(name).pairs(positions, radius))
            np.testing.assert_array_equal(result, reference)
            assert len(reference) > 0

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_rotated_exact_radius_pair(self, name):
        # A rotated offset whose *squared* norm exceeds radius² while its
        # rounded Euclidean norm equals the radius — the regression case the
        # sqrt-based comparison contract exists for.
        radius = 2.0
        rng = np.random.default_rng(123)
        for _ in range(10_000):
            v = rng.normal(size=2)
            v = v / np.sqrt(v @ v) * radius
            if v @ v > radius * radius and np.sqrt(v @ v) <= radius:
                break
        else:  # pragma: no cover - rng-dependent
            pytest.skip("no representable boundary pair found")
        positions = np.array([[0.0, 0.0], v])
        result = _canonical(*get_neighbor_search(name).pairs(positions, radius))
        np.testing.assert_array_equal(result, [[0, 1], [1, 0]])


class TestBatchedVsLoopedEdgeCases:
    """The satellite cases: empty neighbourhoods and duplicates in a batch."""

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_empty_neighbourhood_samples(self, name):
        # Sample 0: a tight cluster (everything interacts).  Sample 1: points
        # farther apart than the radius (no pairs at all).  Sample 2: one
        # isolated particle amid a pair.
        batch = np.array(
            [
                [[0.0, 0.0], [0.1, 0.0], [0.0, 0.1]],
                [[0.0, 0.0], [50.0, 0.0], [0.0, 50.0]],
                [[0.0, 0.0], [0.2, 0.0], [30.0, 30.0]],
            ]
        )
        backend = get_neighbor_search(name)
        i_idx, j_idx = backend.pairs_batch(batch, radius=1.0)
        expected = {(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)}  # sample 0
        expected |= {(6, 7), (7, 6)}  # sample 2, flattened offset 2 * 3
        assert set(zip(i_idx.tolist(), j_idx.tolist())) == expected

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_duplicate_positions_within_and_across_samples(self, name):
        point = [1.25, -3.5]
        batch = np.array(
            [
                [point, point, [10.0, 10.0]],  # exact duplicate within a sample
                [point, [10.0, 10.0], [10.0, 10.0]],  # same point reused across samples
            ]
        )
        backend = get_neighbor_search(name)
        i_idx, j_idx = backend.pairs_batch(batch, radius=0.5)
        # Duplicates are distance 0 <= radius; no cross-sample pairs appear
        # even though identical coordinates hash into the same spatial cell.
        assert set(zip(i_idx.tolist(), j_idx.tolist())) == {
            (0, 1), (1, 0), (4, 5), (5, 4)
        }

    def test_empty_batch_dimensions(self):
        backend = CellListNeighbors()
        i_idx, j_idx = backend.pairs_batch(np.zeros((0, 5, 2)), radius=1.0)
        assert i_idx.size == 0 and j_idx.size == 0
        i_idx, j_idx = backend.pairs_batch(np.zeros((3, 0, 2)), radius=1.0)
        assert i_idx.size == 0 and j_idx.size == 0


class TestCellListDegenerateGeometries:
    """Degenerate cases surfaced by the vectorised spatial hash."""

    def test_all_particles_in_one_cell(self):
        rng = np.random.default_rng(3)
        positions = rng.uniform(0.0, 0.05, size=(12, 2))  # one bucket at radius 1
        reference = _canonical(*BruteForceNeighbors().pairs(positions, 1.0))
        result = _canonical(*CellListNeighbors().pairs(positions, 1.0))
        np.testing.assert_array_equal(result, reference)
        assert len(result) == 12 * 11

    def test_radius_larger_than_bounding_box(self):
        rng = np.random.default_rng(4)
        positions = rng.uniform(-1.0, 1.0, size=(9, 2))
        reference = _canonical(*BruteForceNeighbors().pairs(positions, 100.0))
        result = _canonical(*CellListNeighbors().pairs(positions, 100.0))
        np.testing.assert_array_equal(result, reference)

    def test_single_particle(self):
        i_idx, j_idx = CellListNeighbors().pairs(np.array([[3.0, -2.0]]), radius=1.0)
        assert i_idx.size == 0 and j_idx.size == 0
        i_idx, j_idx = CellListNeighbors().pairs_batch(
            np.array([[[3.0, -2.0]], [[0.5, 0.5]]]), radius=1.0
        )
        assert i_idx.size == 0 and j_idx.size == 0

    def test_two_coincident_particles(self):
        positions = np.array([[1.0, 1.0], [1.0, 1.0]])
        result = _canonical(*CellListNeighbors().pairs(positions, radius=0.5))
        np.testing.assert_array_equal(result, [[0, 1], [1, 0]])

    def test_collinear_particles_on_cell_boundaries(self):
        # Points sitting exactly on cell edges must not be double-counted.
        positions = np.column_stack([np.arange(6.0), np.zeros(6)])
        reference = _canonical(*BruteForceNeighbors().pairs(positions, 1.0))
        result = _canonical(*CellListNeighbors().pairs(positions, 1.0))
        np.testing.assert_array_equal(result, reference)

    def test_extreme_aspect_ratio_cloud(self):
        rng = np.random.default_rng(5)
        positions = np.column_stack(
            [rng.uniform(-500.0, 500.0, size=40), rng.uniform(-0.01, 0.01, size=40)]
        )
        reference = _canonical(*BruteForceNeighbors().pairs(positions, 2.0))
        result = _canonical(*CellListNeighbors().pairs(positions, 2.0))
        np.testing.assert_array_equal(result, reference)
