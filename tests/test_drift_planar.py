"""Bitwise parity of the planar blocked dense kernel, and the drift call count.

:func:`repro.particles.forces.drift_batch` evaluates the drift on per-axis
planes, laid out ``[j, i, sample]`` (a block of output particles at a time)
when the ensemble is at least as wide as the collective and ``[sample, j,
i]`` (a block of samples at a time) otherwise.  Stored results depend on
every bit of the trajectory, so both layouts must reproduce the all-pairs
broadcast kernel the planes replaced exactly.  The reference below is that
kernel, kept verbatim: one ``(m, n, n, 2)`` displacement tensor, ``einsum``
distances and an ``einsum`` contraction over ``j``.

The ensemble simulator passes each recorded step's equilibrium diagnostic to
the next step instead of evaluating the same drift twice; the call-count
tests below pin how many evaluations a batch makes.
"""

from __future__ import annotations

import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import repro.particles.ensemble as ensemble_module
from repro.core.experiments import all_figure_plans
from repro.parallel.batch import batch_slices, max_batch_for_budget
from repro.particles import forces
from repro.particles.domain import get_domain
from repro.particles.engine import DenseDriftEngine, engine_for_config, sparse_drift_batch
from repro.particles.ensemble import EnsembleSimulator
from repro.particles.forces import (
    DriftWorkspace,
    ForceScaling,
    drift_batch,
    get_force_scaling,
    planar_pair_operands,
)
from repro.particles.neighbors import CellListNeighbors
from repro.particles.model import SimulationConfig
from repro.particles.types import InteractionParams, random_symmetric_matrix


def _random_params(n_types: int, rng: np.random.Generator) -> InteractionParams:
    """Symmetric k in [1, 10], r in [0, 1] and tau in [1, 10], drawn in that order; sigma = 1."""
    k, r, tau = (
        random_symmetric_matrix(n_types, low, high, rng)
        for low, high in ((1.0, 10.0), (0.0, 1.0), (1.0, 10.0))
    )
    return InteractionParams(k=k, r=r, sigma=np.ones((n_types, n_types)), tau=tau)


DOMAINS = [
    "free",
    "periodic:9",
    "periodic:9,6",
    "reflecting:9",
    "reflecting:9,5",
    "channel:9,11",
    "channel:8,8",
]


# --- The broadcast-plus-einsum reference ------------------------------------


def _einsum_drift_batch(positions, types, params, scaling, cutoff=None, *, pair=None, domain=None):
    positions = np.asarray(positions, dtype=float)
    types = np.asarray(types, dtype=int)
    scaling = get_force_scaling(scaling)
    domain = get_domain(domain)
    if pair is None:
        pair = params.pair_matrices(types)
    delta = domain.displacement(positions[:, :, None, :], positions[:, None, :, :])
    dist = np.sqrt(np.einsum("mijk,mijk->mij", delta, delta))
    weights = -scaling.scale(dist, pair["k"], pair["r"], pair["sigma"], pair["tau"])
    n = positions.shape[1]
    eye = np.eye(n, dtype=bool)
    weights[:, eye] = 0.0
    if cutoff is not None and np.isfinite(cutoff):
        weights = np.where(dist <= cutoff, weights, 0.0)
    return np.einsum("mij,mijk->mik", weights, delta)


def _system(seed: int, m: int, n: int, domain: str = "free", n_types: int = 3):
    rng = np.random.default_rng(seed)
    params = _random_params(n_types, rng)
    types = rng.integers(0, n_types, size=n)
    positions = rng.uniform(-4.0, 4.0, size=(m, n, 2))
    resolved = get_domain(domain)
    if resolved.bounded:
        positions = resolved.wrap(positions + 4.0)
    return positions, types, params


def _assert_parity(positions, types, params, force, cutoff, domain="free"):
    expected = _einsum_drift_batch(positions, types, params, force, cutoff, domain=domain)
    actual = drift_batch(positions, types, params, force, cutoff, domain=domain)
    np.testing.assert_array_equal(actual, expected)
    # Bit for bit, zero signs included.
    assert actual.tobytes() == expected.tobytes()
    return actual


# --- Parity -----------------------------------------------------------------


class TestPlanarKernelParity:
    @pytest.mark.parametrize("domain", DOMAINS)
    @pytest.mark.parametrize("force", ["F1", "F2"])
    @pytest.mark.parametrize("cutoff", [None, math.inf, 2.0])
    def test_matches_einsum_kernel(self, domain, force, cutoff):
        positions, types, params = _system(seed=1, m=5, n=12, domain=domain)
        _assert_parity(positions, types, params, force, cutoff, domain)

    @pytest.mark.parametrize("domain", ["free", "periodic:9", "channel:9,11"])
    def test_pair_exactly_at_cutoff_interacts(self, domain):
        params = InteractionParams.single_type(k=1.0, r=1.0)
        types = np.zeros(3, dtype=int)
        positions = np.array([[[1.0, 1.0], [4.0, 1.0], [1.0, 8.5]]])
        drift = _assert_parity(positions, types, params, "F1", 3.0, domain)
        assert drift[0, 0, 0] > 0.0  # the pair at distance exactly 3.0 counts
        assert drift[0, 1, 0] < 0.0

    @pytest.mark.parametrize("force", ["F1", "F2"])
    @pytest.mark.parametrize(
        "m, n, blocks",
        [
            (200, 20, [7, 7, 6]),  # [j, i, sample]: columns in equal blocks
            (23, 60, [9, 9, 5]),  # [sample, j, i]: whole blocks of samples, then the rest
        ],
    )
    def test_several_blocks_with_a_ragged_last_block(self, force, m, n, blocks):
        axis = 1 if forces._samples_innermost(m, n) else 0
        assert [shape[axis] for shape in _block_shapes(m, n)] == blocks
        positions, types, params = _system(seed=2, m=m, n=n)
        _assert_parity(positions, types, params, force, 2.5)

    @pytest.mark.parametrize(
        "m, n, block_pairs, runs",
        [
            (2, 300, None, [150, 150]),  # 109 columns a block: two runs per sample
            (3, 40, 256, [7, 7, 7, 7, 6, 6]),  # six runs of at least 256 // 40
            (1, 9, 1, [3, 2, 2, 2]),  # never a run of one column
            (5, 181, None, [181]),  # under twice the budget: whole samples
        ],
    )
    def test_a_large_sample_is_cut_into_column_runs(self, m, n, block_pairs, runs):
        assert not forces._samples_innermost(m, n)
        block = forces.DRIFT_BLOCK_PAIRS if block_pairs is None else block_pairs
        with mock.patch.object(forces, "DRIFT_BLOCK_PAIRS", block):
            shapes = _block_shapes(m, n)
            # One sample per block, every sample of a run before the next run.
            assert [shape[:2] for shape in shapes] == [(1, n)] * (m * len(runs))
            assert [shape[2] for shape in shapes[::m]] == runs
            positions, types, params = _system(seed=14, m=m, n=n, domain="channel:9,11")
            _assert_parity(positions, types, params, "F1", 2.0, "channel:9,11")
            _assert_parity(positions, types, params, "F2", None, "channel:9,11")

    @pytest.mark.parametrize("m, n", [(7, 10), (12, 10)])
    @pytest.mark.parametrize("block_pairs", [1, 37, 401])
    def test_any_block_size_gives_the_same_bits(self, m, n, block_pairs):
        positions, types, params = _system(seed=3, m=m, n=n, domain="periodic:9,6")
        with mock.patch.object(forces, "DRIFT_BLOCK_PAIRS", block_pairs):
            _assert_parity(positions, types, params, "F2", 2.0, "periodic:9,6")

    def test_single_particle(self):
        positions, types, params = _system(seed=4, m=3, n=1)
        drift = _assert_parity(positions, types, params, "F1", None)
        assert drift.shape == (3, 1, 2)
        np.testing.assert_array_equal(drift, 0.0)

    def test_block_of_one_sample(self):
        n = math.isqrt(forces.DRIFT_BLOCK_PAIRS) + 1
        assert forces.DRIFT_BLOCK_PAIRS // (n * n) == 0
        positions, types, params = _system(seed=5, m=3, n=n, domain="channel:9,11")
        _assert_parity(positions, types, params, "F2", 3.0, "channel:9,11")

    @pytest.mark.parametrize("force", ["F1", "F2"])
    @pytest.mark.parametrize("m", [4, 9])
    def test_coincident_particles(self, force, m):
        positions, types, params = _system(seed=6, m=m, n=8)
        positions[:, 1] = positions[:, 0]
        positions[2] = positions[2, 3]  # one sample collapsed onto a point
        drift = _assert_parity(positions, types, params, force, None)
        assert np.isfinite(drift).all()

    def test_weights_beyond_the_cutoff_vanish_even_when_not_finite(self):
        # The cut-off mask must act like np.where: a scaling that overflows
        # far away contributes exact zeros there, not inf * 0 = NaN.  This
        # one also ignores the kernel's out= and scratch= planes.
        class Overflowing(ForceScaling):
            name = "overflowing"

            def evaluate(self, distance, operands, *, out=None, scratch=None):
                with np.errstate(over="ignore"):
                    return operands[0] * np.exp(distance**4)

        for m in (4, 12):
            positions, types, params = _system(seed=9, m=m, n=10)
            drift = _assert_parity(positions, types, params, Overflowing(), 1.5)
            assert np.isfinite(drift).all()

    def test_nearly_symmetric_parameters_keep_their_orientation(self):
        # InteractionParams accepts matrices symmetric up to np.allclose, so
        # pair (i, j) must read entry [type_i, type_j], as it did before.
        positions, types, params = _system(seed=8, m=10, n=9)
        k = params.k.copy()
        k[0, 1] *= 1.0 + 1e-7
        skewed = InteractionParams(k=k, r=params.r, sigma=params.sigma, tau=params.tau)
        assert skewed.k[0, 1] != skewed.k[1, 0]
        for force in ("F1", "F2"):
            for batch in (positions, positions[:3]):  # both layouts
                expected = _assert_parity(batch, types, skewed, force, None)
                operands = planar_pair_operands(skewed, types, force)
                np.testing.assert_array_equal(
                    drift_batch(batch, types, skewed, force, operands=operands), expected
                )

    def test_engine_cache_matches_caller_pair_matrices(self):
        positions, types, params = _system(seed=7, m=6, n=15)
        engine = DenseDriftEngine(types, params, "F1", 2.5)
        expected = _einsum_drift_batch(positions, types, params, "F1", 2.5)
        np.testing.assert_array_equal(engine.drift_batch(positions), expected)
        np.testing.assert_array_equal(engine.drift(positions[0]), expected[0])

    def test_a_wide_plane_never_reduces_along_its_inner_loop(self):
        # numpy sums along its inner loop pairwise.  A [j, i, sample] block
        # of one sample and one column is a bare j axis, so its sum takes
        # that path: forced onto those planes, m = 1, n = 8 with one-pair
        # blocks differs from the reference in the last bits.  The rule
        # keeps a single sample on [sample, j, i] planes, and rows of two
        # samples already add sequentially.
        assert not forces._samples_innermost(1, 8)
        wide = mock.patch.object(forces, "_samples_innermost", lambda m, n: True)
        with mock.patch.object(forces, "DRIFT_BLOCK_PAIRS", 1):
            positions, types, params = _system(seed=0, m=2, n=8)
            single = positions[:1]
            _assert_parity(single, types, params, "F1", None)
            with wide:
                _assert_parity(positions, types, params, "F1", None)
                forced = drift_batch(single, types, params, "F1")
        assert forced.tobytes() != _einsum_drift_batch(single, types, params, "F1").tobytes()


def _block_shapes(m: int, n: int) -> list[tuple[int, ...]]:
    """The plane shapes of :func:`drift_batch`'s blocks at (m, n), in order."""
    shapes = []
    workspace = DriftWorkspace()
    planes = workspace.planes
    workspace.planes = lambda shape: shapes.append(shape) or planes(shape)
    positions, types, params = _system(seed=0, m=m, n=n)
    drift_batch(positions, types, params, "F1", workspace=workspace)
    return shapes


# --- The layout rule --------------------------------------------------------

#: Registry units whose batches are narrower than their collective and keep
#: ``[sample, j, i]`` planes: quick fig3 (m = 8, n = 40) and quick fig12
#: (m = 16, n = 40).
_NARROW_UNITS = {(False, "fig3"), (False, "fig12")}

#: The dense shapes (m, n) the engine and domain benches time: single
#: configurations at 50–5000 particles, batches of 4 (quick) and 8 at
#: 50–1000, and the domain density batches at 300 (quick) and 1000.
_BENCH_SHAPES = [
    *((1, n) for n in (50, 200, 1000, 5000)),
    *((m, n) for m in (4, 8) for n in (50, 200, 1000)),
    *((m, n) for m in (4, 8) for n in (300, 1000)),
]


class TestLayoutRule:
    @pytest.mark.parametrize("full", [False, True])
    def test_every_registry_batch_is_wide_but_quick_fig3_and_fig12(self, full):
        seen = set()
        for figure, plan in all_figure_plans(full=full).items():
            for spec in plan.specs():
                n, total = spec.simulation.n_particles, spec.n_samples
                for rows in batch_slices(total, max_batch_for_budget(n)):
                    m = len(range(total)[rows])
                    wide = (full, figure) not in _NARROW_UNITS
                    assert forces._samples_innermost(m, n) is wide, (figure, m, n)
                    seen.add((figure, m, n))
        if full:
            assert ("fig4", 500, 50) in seen and ("fig12", 125, 40) in seen
        else:
            assert ("fig3", 8, 40) in seen and ("fig12", 16, 40) in seen

    @pytest.mark.parametrize("m, n", _BENCH_SHAPES)
    def test_the_bench_dense_shapes_keep_sample_blocks(self, m, n):
        assert not forces._samples_innermost(m, n)

    @pytest.mark.parametrize("m, n", [(1, 1), (5, 5), (6, 5), (64, 20), (500, 50)])
    def test_an_ensemble_as_wide_as_the_collective_puts_samples_innermost(self, m, n):
        assert forces._samples_innermost(m, n)
        assert not forces._samples_innermost(n - 1, n)


class TestDriftBatchValidation:
    @pytest.mark.parametrize("shape", [(3, 0, 2), (0, 0, 2), (0, 4, 2)])
    def test_empty_batches_give_empty_drift(self, shape):
        # No particles is m >= n, no samples is m < n: both layouts.
        params = InteractionParams.single_type()
        drift = drift_batch(np.zeros(shape), np.zeros(shape[1], dtype=int), params, "F1", 2.0)
        assert drift.shape == shape

    @pytest.mark.parametrize("length", [1, 6])
    def test_types_must_match_n(self, length):
        params = InteractionParams.single_type()
        with pytest.raises(ValueError, match=r"types must have shape \(n,\)"):
            drift_batch(np.zeros((3, 5, 2)), np.zeros(length, dtype=int), params, "F1")


@pytest.mark.fuzz
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    m=st.integers(min_value=1, max_value=80),
    n=st.integers(min_value=1, max_value=30),
    domain=st.sampled_from(DOMAINS),
    force=st.sampled_from(["F1", "F2"]),
    cutoff=st.one_of(st.none(), st.just(math.inf), st.floats(min_value=0.5, max_value=3.0)),
    block_pairs=st.sampled_from([None, 1, 50, 300, 2000]),
    coincident=st.booleans(),
)
@example(seed=0, m=1, n=8, domain="free", force="F1", cutoff=None, block_pairs=1, coincident=False)
@example(seed=1, m=80, n=30, domain="channel:9,11", force="F2", cutoff=2.0, block_pairs=2000, coincident=True)
@example(seed=2, m=29, n=30, domain="periodic:9", force="F1", cutoff=1.5, block_pairs=300, coincident=False)
@example(seed=3, m=40, n=25, domain="periodic:9,6", force="F2", cutoff=2.5, block_pairs=2000, coincident=True)
@example(seed=4, m=33, n=17, domain="channel:8,8", force="F1", cutoff=None, block_pairs=2000, coincident=False)
def test_planar_kernel_parity_fuzz(seed, m, n, domain, force, cutoff, block_pairs, coincident):
    # m up to 80 against n up to 30 reaches both layouts, and the patched
    # block sizes give several ragged blocks in each, and column runs on
    # [sample, j, i] planes.  The last two examples are wide, with column
    # blocks [2] * 12 + [1] and [3] * 5 + [2].
    positions, types, params = _system(seed, m, n, domain)
    if coincident and n > 1:
        positions[:, -1] = positions[:, 0]
    block = forces.DRIFT_BLOCK_PAIRS if block_pairs is None else block_pairs
    with mock.patch.object(forces, "DRIFT_BLOCK_PAIRS", block):
        _assert_parity(positions, types, params, force, cutoff, domain)


# --- The reusable workspace -------------------------------------------------

#: (m, n) per case: one sample, ragged and several blocks, n = 1, and n going
#: up and down between consecutive cases, so a shared workspace is rebuilt,
#: grown and sliced to leading rows.
_SIZES = [(3, 12), (1, 30), (40, 5), (2, 1), (7, 64), (25, 20), (9, 64), (200, 5)]


def _workspace_cases():
    combos = itertools.product(DOMAINS, ["F1", "F2"], [None, 2.0])
    return [
        (index, *_SIZES[index % len(_SIZES)], *combo) for index, combo in enumerate(combos)
    ]


class TestDriftWorkspace:
    def test_one_workspace_across_every_shape_matches_fresh_and_sparse(self):
        workspace = DriftWorkspace()
        for seed, m, n, domain, force, cutoff in _workspace_cases():
            positions, types, params = _system(seed, m, n, domain)
            reused = drift_batch(
                positions, types, params, force, cutoff, domain=domain, workspace=workspace
            )
            fresh = DenseDriftEngine(types, params, force, cutoff, domain=domain)
            assert reused.tobytes() == fresh.drift_batch(positions).tobytes()
            sparse = sparse_drift_batch(
                positions, types, params, force, cutoff, CellListNeighbors(), domain=domain
            )
            np.testing.assert_array_equal(reused, sparse)

    @pytest.mark.parametrize("domain", DOMAINS)
    @pytest.mark.parametrize("force", ["F1", "F2"])
    @pytest.mark.parametrize("cutoff", [None, 2.0])
    def test_one_engine_across_batch_sizes(self, domain, force, cutoff):
        n = 20
        block = forces.DRIFT_BLOCK_PAIRS // (n * n)
        _, types, params = _system(seed=11, m=1, n=n, domain=domain)
        engine = DenseDriftEngine(types, params, force, cutoff, domain=domain)
        for m in (1, block + 3, 2, 3 * block, block - 1, 1):
            positions = _system(seed=m, m=m, n=n, domain=domain)[0]
            reused = engine.drift_batch(positions)
            fresh = DenseDriftEngine(types, params, force, cutoff, domain=domain)
            assert reused.tobytes() == fresh.drift_batch(positions).tobytes()
            # Without a workspace or operands, the call builds its own.
            alone = drift_batch(positions, types, params, force, cutoff, domain=domain)
            assert alone.tobytes() == reused.tobytes()
            assert engine.drift(positions[0]).tobytes() == reused[0].tobytes()
            sparse = sparse_drift_batch(
                positions, types, params, force, cutoff, CellListNeighbors(), domain=domain
            )
            np.testing.assert_array_equal(reused, sparse)

    @pytest.mark.parametrize("domain", DOMAINS)
    @pytest.mark.parametrize("force", ["F1", "F2"])
    @pytest.mark.parametrize("cutoff", [None, 2.0])
    @pytest.mark.parametrize("m, n", [(2, 200), (48, 24), (40, 10), (2, 300)])
    def test_warm_engine_call_allocates_no_plane(self, domain, force, cutoff, m, n):
        # (2, 200) runs [sample, j, i] blocks of one sample, (2, 300) two
        # column runs per sample, (48, 24) and (40, 10) one [j, i, sample]
        # block.  A call that allocates its planes per block peaks at about
        # seven of them (320 KB, 360 KB and 221 KB).  A warm call stays
        # below one with nothing on top: the engine keeps the pair operands
        # expanded to each block's plane, and every ufunc of a block reads
        # contiguous planes or scalars, so numpy's iterator allocates no
        # buffer.  Its buffers for broadcast operands are 2.7 of the small
        # (40, 10) plane.
        plane = max(math.prod(shape) for shape in _block_shapes(m, n)) * 8
        positions, types, params = _system(seed=12, m=m, n=n, domain=domain)
        engine = DenseDriftEngine(types, params, force, cutoff, domain=domain)
        engine.drift_batch(positions)
        peak = _traced_peak(lambda: engine.drift_batch(positions))
        assert peak < plane

    @pytest.mark.parametrize("force", ["F1", "F2"])
    def test_one_engine_switching_layouts_expands_once_per_shape(self, force):
        # n = 40 takes [sample, j, i] planes at m = 30 and [j, i, sample]
        # planes at m = 64.  Switching back and forth, the engine matches
        # the reference every time, builds each shape's blocks once, and a
        # warm call of either shape allocates neither a plane nor an
        # expanded operand (one block's operand is a plane's worth).
        n, domain = 40, "periodic:9"
        _, types, params = _system(seed=15, m=1, n=n, domain=domain)
        batches = {m: _system(seed=m, m=m, n=n, domain=domain)[0] for m in (30, 64)}
        engine = DenseDriftEngine(types, params, force, 2.0, domain=domain)
        with mock.patch.object(forces, "_blocks", wraps=forces._blocks) as built:
            for m in (30, 64, 30, 64, 30):
                expected = _einsum_drift_batch(batches[m], types, params, force, 2.0, domain=domain)
                assert engine.drift_batch(batches[m]).tobytes() == expected.tobytes()
        assert [call.args[1:] for call in built.call_args_list] == [(30, n), (64, n)]
        for m, positions in batches.items():
            plane = max(math.prod(shape) for shape in _block_shapes(m, n)) * 8
            assert _traced_peak(lambda: engine.drift_batch(positions)) < plane

    def test_blocks_hold_each_operand_expanded_to_its_plane(self):
        # F2's operands are k, 2σ, σ² and 2τ; σ is 1 for every pair, so 2σ
        # and σ² stay scalars and k and 2τ take n²·m doubles each on
        # [j, i, sample] planes.
        m, n = 64, 20
        _, types, params = _system(seed=16, m=m, n=n)
        operands = planar_pair_operands(params, types, "F2")
        workspace = DriftWorkspace()
        blocks = workspace.blocks(operands, m, n)
        assert workspace.blocks(operands, m, n) is blocks
        expanded = 0
        for shape, _, _, pair, _, _, _ in blocks:
            assert pair[1:3] == (2.0, 1.0) and type(pair[1]) is float
            for operand, planar in zip(pair[::3], operands[::3]):
                assert operand.shape == shape and operand.flags.c_contiguous
                expanded += operand.nbytes
        assert expanded == 2 * n * n * m * 8
        np.testing.assert_array_equal(blocks[0][3][0][:, :, 5], operands[0][:, : blocks[0][0][1]])
        # Other operands, even equal ones, rebuild the blocks.
        assert workspace.blocks(planar_pair_operands(params, types, "F2"), m, n) is not blocks
        # [sample, j, i]: every block reads the leading part of one expansion.
        _, types, params = _system(seed=16, m=1, n=60)
        narrow = workspace.blocks(planar_pair_operands(params, types, "F2"), 23, 60)
        assert [block[0] for block in narrow] == [(9, 60, 60), (9, 60, 60), (5, 60, 60)]
        first = narrow[0][3][0]
        assert all(np.shares_memory(block[3][0], first) for block in narrow)
        assert narrow[2][3][0].ctypes.data == first.ctypes.data

    @pytest.mark.parametrize("m, n", [(2, 200), (48, 24)])
    def test_the_cutoff_mask_allocates_nothing(self, m, n):
        # The mask is multiplied into the weights' bits as int64: a bool or
        # uint8 operand made numpy cast it through a buffer it allocated
        # every block (66,880 bytes at n = 200).  A finite cut-off adds only
        # the mask step's array views to a warm call's peak.
        positions, types, params = _system(seed=13, m=m, n=n)
        peaks = {}
        for cutoff in (None, 2.0):
            engine = DenseDriftEngine(types, params, "F1", cutoff)
            engine.drift_batch(positions)
            peaks[cutoff] = _traced_peak(lambda: engine.drift_batch(positions))
        assert peaks[2.0] < peaks[None] + 2048

    def test_planes_are_keyed_by_shape_on_buffers_that_only_grow(self):
        workspace = DriftWorkspace()
        first = workspace.planes((4, 10, 10))
        assert [plane.shape for plane in first] == [(4, 10, 10)] * 6
        assert [plane.dtype for plane in first] == [np.float64] * 5 + [np.bool_]
        assert all(plane.flags.c_contiguous for plane in first)
        # The mask lives in the scratch plane's bytes.
        assert np.shares_memory(first[5], first[4])
        assert workspace.planes((4, 10, 10)) is first
        # Any smaller shape, of either layout, is the buffers' leading part.
        for shape in [(2, 10, 10), (10, 3, 12), (1, 1, 1)]:
            smaller = workspace.planes(shape)
            assert [plane.shape for plane in smaller] == [shape] * 6
            assert all(np.shares_memory(a, b) for a, b in zip(smaller[:5], first[:5]))
            assert smaller[0].ctypes.data == first[0].ctypes.data
        # A larger plane rebuilds the buffers and forgets the old views.
        grown = workspace.planes((5, 10, 10))
        assert not np.shares_memory(grown[0], first[0])
        assert workspace.planes((4, 10, 10)) is not first
        assert np.shares_memory(workspace.planes((4, 10, 10))[0], grown[0])


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# --- Drift evaluations per run ----------------------------------------------


def _config(two_type_params, integrator: str, substeps: int, engine: str, n_steps: int = 6):
    return SimulationConfig(
        type_counts=(3, 3),
        params=two_type_params,
        force="F1",
        cutoff=2.5,
        dt=0.02,
        substeps=substeps,
        n_steps=n_steps,
        init_radius=2.0,
        integrator=integrator,
        engine=engine,
    )


class TestDriftCallCount:
    @pytest.mark.parametrize("engine", ["dense", "sparse", "auto"])
    @pytest.mark.parametrize("substeps", [1, 3])
    @pytest.mark.parametrize(
        "integrator, per_substep", [("euler-maruyama", 1), ("heun", 2)]
    )
    def test_ensemble_batch_reuses_the_diagnostic_drift(
        self, two_type_params, integrator, per_substep, substeps, engine, monkeypatch
    ):
        # Counted on the engine the batch builds, at the binding the stepping
        # loop calls (an adaptive engine's delegate calls are not counted).
        config = _config(two_type_params, integrator, substeps, engine)
        calls = []

        def counting_engine_for_config(config):
            built = engine_for_config(config)
            drift_batch = built.drift_batch

            def counting(positions):
                calls.append(positions.shape)
                return drift_batch(positions)

            built.drift_batch = counting
            return built

        monkeypatch.setattr(ensemble_module, "engine_for_config", counting_engine_for_config)
        EnsembleSimulator(config, 4, seed=2).run()
        assert len(calls) == 1 + per_substep * config.n_steps * substeps
