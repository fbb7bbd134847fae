"""Tests for repro.particles.neighbors."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.particles.neighbors import BruteForceNeighbors, CellListNeighbors


def _pairs_as_set(i_idx, j_idx):
    return set(zip(i_idx.tolist(), j_idx.tolist()))


BACKENDS = [BruteForceNeighbors(), CellListNeighbors()]


@pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.name)
class TestBackendsAgainstBruteForce:
    def test_simple_triangle(self, backend):
        positions = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]])
        i_idx, j_idx = backend.pairs(positions, radius=2.0)
        assert _pairs_as_set(i_idx, j_idx) == {(0, 1), (1, 0)}

    def test_no_self_pairs(self, backend):
        positions = np.random.default_rng(0).uniform(-3, 3, size=(20, 2))
        i_idx, j_idx = backend.pairs(positions, radius=2.0)
        assert np.all(i_idx != j_idx)

    def test_symmetric_pairs(self, backend):
        positions = np.random.default_rng(1).uniform(-3, 3, size=(15, 2))
        pairs = _pairs_as_set(*backend.pairs(positions, radius=1.5))
        assert all((j, i) in pairs for (i, j) in pairs)

    def test_matches_brute_force(self, backend):
        rng = np.random.default_rng(7)
        positions = rng.uniform(-5, 5, size=(40, 2))
        reference = _pairs_as_set(*BruteForceNeighbors().pairs(positions, radius=2.2))
        result = _pairs_as_set(*backend.pairs(positions, radius=2.2))
        assert result == reference

    def test_infinite_radius_gives_all_pairs(self, backend):
        positions = np.random.default_rng(3).uniform(-2, 2, size=(6, 2))
        pairs = _pairs_as_set(*backend.pairs(positions, radius=np.inf))
        assert len(pairs) == 6 * 5

    def test_empty_input(self, backend):
        i_idx, j_idx = backend.pairs(np.zeros((0, 2)), radius=1.0)
        assert i_idx.size == 0 and j_idx.size == 0

    def test_invalid_radius(self, backend):
        with pytest.raises(ValueError):
            backend.pairs(np.zeros((3, 2)), radius=0.0)

    def test_invalid_shape(self, backend):
        with pytest.raises(ValueError):
            backend.pairs(np.zeros((3, 3)), radius=1.0)


def _boundary_offset(radius: float) -> np.ndarray | None:
    """A 2-vector whose squared norm exceeds ``radius**2`` while its rounded
    Euclidean norm equals ``radius`` — the cut-off edge case where squared-
    distance and sqrt-based comparisons disagree."""
    rng = np.random.default_rng(123)
    for _ in range(10_000):
        v = rng.normal(size=2)
        v = v / np.sqrt(v @ v) * radius
        q = v[0] * v[0] + v[1] * v[1]
        if q > radius * radius and np.sqrt(q) <= radius:
            return v
    return None


@pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.name)
def test_cutoff_boundary_pairs_match_brute_force(backend):
    # Regression: cell/kdtree used to prune on squared distances, dropping
    # pairs whose rounded distance lands exactly on the radius — pairs the
    # dense drift kernel (and brute force) includes.
    radius = 2.0
    offset = _boundary_offset(radius)
    assert offset is not None, "no representable boundary pair found"
    positions = np.array([[0.0, 0.0], offset])
    pairs = _pairs_as_set(*backend.pairs(positions, radius))
    assert pairs == {(0, 1), (1, 0)}


@given(
    st.integers(min_value=2, max_value=30),
    st.floats(min_value=0.3, max_value=4.0),
    st.integers(min_value=0, max_value=1000),
)
def test_cell_list_matches_brute_force_property(n, radius, seed):
    positions = np.random.default_rng(seed).uniform(-4, 4, size=(n, 2))
    brute = _pairs_as_set(*BruteForceNeighbors().pairs(positions, radius))
    cell = _pairs_as_set(*CellListNeighbors().pairs(positions, radius))
    assert cell == brute


class TestPairsLayout:
    def test_pairs_match_a_known_layout(self):
        positions = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
        i_idx, j_idx = BruteForceNeighbors().pairs(positions, radius=1.5)
        assert sorted(j_idx[i_idx == 0].tolist()) == [1, 2]
        assert j_idx[i_idx == 3].size == 0

    def test_all_backends_identical_and_sorted_on_seeded_cloud(self):
        # The batched query is the sparse kernel's input: every backend must
        # produce the same int64 pairs in strictly ascending (i, j) order.
        positions = np.random.default_rng(42).uniform(-6, 6, size=(1, 60, 2))
        reference = BruteForceNeighbors().pairs_batch(positions, radius=2.0)
        key = reference[0] * 60 + reference[1]
        assert np.all(np.diff(key) > 0)
        for backend in BACKENDS:
            i_idx, j_idx = backend.pairs_batch(positions, radius=2.0)
            assert i_idx.dtype == j_idx.dtype == np.int64
            np.testing.assert_array_equal(i_idx, reference[0])
            np.testing.assert_array_equal(j_idx, reference[1])

    def test_isolated_particles_have_no_pairs(self):
        positions = np.array([[0.0, 0.0], [100.0, 0.0]])
        i_idx, j_idx = BruteForceNeighbors().pairs(positions, radius=1.0)
        assert i_idx.size == j_idx.size == 0

    def test_empty_input(self):
        for backend in BACKENDS:
            i_idx, j_idx = backend.pairs(np.zeros((0, 2)), radius=1.0)
            assert i_idx.size == j_idx.size == 0


class TestPairsBatch:
    @pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.name)
    def test_matches_per_sample_pairs(self, backend):
        rng = np.random.default_rng(5)
        batch = rng.uniform(-4, 4, size=(3, 20, 2))
        i_idx, j_idx = backend.pairs_batch(batch, radius=2.0)
        expected = set()
        for sample in range(3):
            si, sj = backend.pairs(batch[sample], radius=2.0)
            expected |= {(sample * 20 + a, sample * 20 + b) for a, b in zip(si, sj)}
        assert _pairs_as_set(i_idx, j_idx) == expected

    @pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.name)
    def test_lexicographic_order(self, backend):
        rng = np.random.default_rng(6)
        batch = rng.uniform(-4, 4, size=(2, 15, 2))
        i_idx, j_idx = backend.pairs_batch(batch, radius=2.5)
        keys = list(zip(i_idx.tolist(), j_idx.tolist()))
        assert keys == sorted(keys)

    def test_validates_shape(self):
        with pytest.raises(ValueError):
            BruteForceNeighbors().pairs_batch(np.zeros((4, 2)), radius=1.0)


class TestGridIdOverflow:
    """The free-plane cell list on a bounding box too wide for ``int64`` ids.

    A bounding box astronomically wider than the cell size would need more
    padded cell ids than ``int64`` holds; ``_grid_ids`` then closes the empty
    runs of cells along each axis, and both queries keep hashing.
    """

    def _overflow_cloud(self) -> np.ndarray:
        # Two interacting points amid far-flung loners: the extent/radius
        # ratio is ~1e13 per axis, so the padded id space would need ~1e26
        # cells — far past int64.
        return np.array(
            [
                [0.0, 0.0],
                [1e-3, 0.0],
                [1e10, 1e10],
                [-1e10, 3e9],
            ]
        )

    def test_grid_ids_close_the_empty_runs_on_overflow(self):
        from repro.particles.neighbors import _grid_ids

        ids, stride = _grid_ids(self._overflow_cloud(), radius=2e-3)
        # Columns become 2, 2, 4, 0 and rows 0, 0, 4, 2 (the two close points
        # share a cell), shifted past the ghost cells: stride 4 + 3.
        assert stride == 7
        assert ids.tolist() == [3 * 7 + 1, 3 * 7 + 1, 5 * 7 + 5, 1 * 7 + 3]
        # A benign cloud keeps its plain cell coordinates.
        ids, stride = _grid_ids(np.array([[0.0, 0.0], [2.5, 0.5]]), radius=1.0)
        assert stride == 3 and ids.tolist() == [1 * 3 + 1, 3 * 3 + 1]

    def test_grid_ids_overflow_via_sample_blocks(self):
        from repro.particles.neighbors import _grid_ids

        # Each sample's block is ~(1.5e9)^2 cells; a handful of samples pushes
        # the flattened id space over int64 even though one block fits.
        positions = np.concatenate([np.zeros((2, 2)), np.full((2, 2), 1.5e9)])
        tiled = np.tile(positions, (4, 1))
        sample = np.repeat(np.arange(4, dtype=np.int64), positions.shape[0])
        _, stride = _grid_ids(positions, radius=1.0)
        assert stride > 1e9
        ids, stride = _grid_ids(tiled, radius=1.0, sample=sample)
        assert stride == 5 and ids.max() < 4 * 5 * 5
        assert len(set(ids.tolist())) == 8  # two cells per sample, none shared

    def test_pairs_match_brute(self):
        positions = self._overflow_cloud()
        reference = _pairs_as_set(*BruteForceNeighbors().pairs(positions, radius=2e-3))
        result = _pairs_as_set(*CellListNeighbors().pairs(positions, radius=2e-3))
        assert result == reference == {(0, 1), (1, 0)}

    def test_pairs_batch_matches_per_sample_brute(self):
        rng = np.random.default_rng(8)
        base = self._overflow_cloud()
        batch = np.stack([base + rng.normal(scale=1e-4, size=base.shape) for _ in range(3)])
        i_idx, j_idx = CellListNeighbors().pairs_batch(batch, radius=2e-3)
        expected = set()
        for s in range(3):
            si, sj = BruteForceNeighbors().pairs(batch[s], radius=2e-3)
            expected |= {(s * 4 + a, s * 4 + b) for a, b in zip(si.tolist(), sj.tolist())}
        assert _pairs_as_set(i_idx, j_idx) == expected
        assert len(expected) == 3 * 2

    def test_batch_overflow_preserves_lexicographic_order(self):
        batch = np.stack([self._overflow_cloud()] * 2)
        i_idx, j_idx = CellListNeighbors().pairs_batch(batch, radius=2e-3)
        keys = list(zip(i_idx.tolist(), j_idx.tolist()))
        assert keys == sorted(keys)

    def test_one_particle_at_1e300(self):
        # Past the range cKDTree could search: the cell list must still
        # return the brute-force pairs, single and batched.
        rng = np.random.default_rng(12)
        positions = rng.uniform(-5.0, 5.0, size=(300, 2))
        positions[7] = (1e300, 1e300)
        reference = BruteForceNeighbors().pairs_batch(positions[None], radius=1.0)
        for result in (
            CellListNeighbors().pairs(positions, radius=1.0),
            CellListNeighbors().pairs_batch(positions[None], radius=1.0),
        ):
            np.testing.assert_array_equal(result[0], reference[0])
            np.testing.assert_array_equal(result[1], reference[1])


class TestCellBoundaries:
    @pytest.mark.parametrize("domain", [None, "reflecting:5.0"])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_pair_at_the_cutoff_two_cell_edges_apart(self, domain, axis):
        # 1 - 2**-53 and 2.0 are 1.0 apart once rounded, so they interact at
        # r_c = 1, yet cells exactly r_c wide would put them in cells 0 and 2.
        positions = np.zeros((2, 2))
        positions[:, axis] = (1.0 - 2.0**-53, 2.0)
        for backend in BACKENDS:
            pairs = _pairs_as_set(*backend.pairs(positions, 1.0, domain))
            assert pairs == {(0, 1), (1, 0)}, backend.name
            batched = _pairs_as_set(*backend.pairs_batch(positions[None], 1.0, domain))
            assert batched == {(0, 1), (1, 0)}, backend.name


class TestNonFinitePositions:
    @pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.name)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "domain", ["free", "periodic:20.0", "channel:20.0,16.0", "reflecting:20.0"]
    )
    def test_rejected_single_and_batched(self, backend, bad, domain):
        positions = np.random.default_rng(4).uniform(0.0, 16.0, size=(300, 2))
        positions[11, 1] = bad
        with pytest.raises(ValueError, match="positions must be finite"):
            backend.pairs(positions, 1.0, domain)
        with pytest.raises(ValueError, match="positions must be finite"):
            backend.pairs_batch(np.stack([positions[::-1], positions]), 1.0, domain)


class TestPairDtypes:
    @pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.name)
    def test_pairs_are_int64(self, backend):
        rng = np.random.default_rng(11)
        positions = rng.uniform(-3, 3, size=(12, 2))
        for radius in (1.5, np.inf):
            i_idx, j_idx = backend.pairs(positions, radius)
            assert i_idx.dtype == np.int64 and j_idx.dtype == np.int64, radius
        i_idx, j_idx = backend.pairs_batch(positions[None], 1.5)
        assert i_idx.dtype == np.int64 and j_idx.dtype == np.int64
