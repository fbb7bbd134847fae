"""Bitwise parity of the planar blocked dense kernel, and the drift call count.

:func:`repro.particles.forces.drift_batch` evaluates the drift on per-axis
planes laid out ``[sample, j, i]``, a block of samples at a time.  Stored
results depend on every bit of the trajectory, so it must reproduce the
all-pairs broadcast kernel it replaced exactly.  The reference below is that
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
from hypothesis import given
from hypothesis import strategies as st

from repro.particles import forces
from repro.particles.domain import get_domain
from repro.particles.engine import DenseDriftEngine, sparse_drift_batch
from repro.particles.ensemble import EnsembleSimulator
from repro.particles.forces import (
    DriftWorkspace,
    ForceScaling,
    drift_batch,
    get_force_scaling,
    planar_pair_matrices,
)
from repro.particles.neighbors import CellListNeighbors
from repro.particles.model import ParticleSystem, SimulationConfig, initial_ensemble_for
from repro.particles.types import InteractionParams

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
    params = InteractionParams.random(n_types, rng=rng)
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
    def test_several_blocks_with_a_ragged_last_block(self, force):
        n = 20
        block = forces.DRIFT_BLOCK_PAIRS // (n * n)
        assert block > 1
        positions, types, params = _system(seed=2, m=2 * block + 3, n=n)
        _assert_parity(positions, types, params, force, 2.5)

    @pytest.mark.parametrize("block_pairs", [1, 37, 401])
    def test_any_block_size_gives_the_same_bits(self, block_pairs):
        positions, types, params = _system(seed=3, m=7, n=10, domain="periodic:9,6")
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
    def test_coincident_particles(self, force):
        positions, types, params = _system(seed=6, m=4, n=8)
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

            def scale(self, distance, k, r, sigma, tau, *, out=None, scratch=None):
                with np.errstate(over="ignore"):
                    return k * np.exp(distance**4)

        positions, types, params = _system(seed=9, m=4, n=10)
        drift = _assert_parity(positions, types, params, Overflowing(), 1.5)
        assert np.isfinite(drift).all()

    def test_nearly_symmetric_parameters_keep_their_orientation(self):
        # InteractionParams accepts matrices symmetric up to np.allclose, so
        # pair (i, j) must read entry [type_i, type_j], as it did before.
        positions, types, params = _system(seed=8, m=3, n=9)
        k = params.k.copy()
        k[0, 1] *= 1.0 + 1e-7
        skewed = InteractionParams(k=k, r=params.r, sigma=params.sigma, tau=params.tau)
        assert skewed.k[0, 1] != skewed.k[1, 0]
        for force in ("F1", "F2"):
            expected = _assert_parity(positions, types, skewed, force, None)
            pair = planar_pair_matrices(skewed, types)
            np.testing.assert_array_equal(
                drift_batch(positions, types, skewed, force, pair=pair), expected
            )

    def test_engine_cache_matches_caller_pair_matrices(self):
        positions, types, params = _system(seed=7, m=6, n=15)
        engine = DenseDriftEngine(types, params, "F1", 2.5)
        expected = _einsum_drift_batch(positions, types, params, "F1", 2.5)
        np.testing.assert_array_equal(engine.drift_batch(positions), expected)
        np.testing.assert_array_equal(engine.drift(positions[0]), expected[0])


class TestDriftBatchValidation:
    @pytest.mark.parametrize("length", [1, 6])
    def test_types_must_match_n(self, length):
        params = InteractionParams.single_type()
        with pytest.raises(ValueError, match=r"types must have shape \(n,\)"):
            drift_batch(np.zeros((3, 5, 2)), np.zeros(length, dtype=int), params, "F1")


@pytest.mark.fuzz
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    m=st.integers(min_value=1, max_value=6),
    n=st.integers(min_value=1, max_value=30),
    domain=st.sampled_from(DOMAINS),
    force=st.sampled_from(["F1", "F2"]),
    cutoff=st.one_of(st.none(), st.just(math.inf), st.floats(min_value=0.5, max_value=3.0)),
    block_pairs=st.sampled_from([None, 1, 50, 300]),
    coincident=st.booleans(),
)
def test_planar_kernel_parity_fuzz(seed, m, n, domain, force, cutoff, block_pairs, coincident):
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
            assert engine.drift(positions[0]).tobytes() == reused[0].tobytes()
            sparse = sparse_drift_batch(
                positions, types, params, force, cutoff, CellListNeighbors(), domain=domain
            )
            np.testing.assert_array_equal(reused, sparse)

    @pytest.mark.parametrize("domain", DOMAINS)
    @pytest.mark.parametrize("force", ["F1", "F2"])
    @pytest.mark.parametrize("cutoff", [None, 2.0])
    def test_warm_engine_call_allocates_no_plane(self, domain, force, cutoff):
        # At n = 200 a block is one sample and one (1, n, n) plane (320 KB)
        # dwarfs the call's output and its (m, n) copies; a call that
        # allocates its planes per block peaks at about seven of them.
        m, n = 2, 200
        assert forces.DRIFT_BLOCK_PAIRS // (n * n) == 0
        plane = n * n * 8
        positions, types, params = _system(seed=12, m=m, n=n, domain=domain)
        engine = DenseDriftEngine(types, params, force, cutoff, domain=domain)
        engine.drift_batch(positions)
        tracemalloc.start()
        try:
            engine.drift_batch(positions)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # F2 builds its (n, n) pair constants (2σ, σ², 2τ), one at a time.
        budget = plane * (2 if force == "F2" else 1)
        assert peak < budget

    def test_planes_are_rebuilt_only_when_the_shape_grows_or_n_changes(self):
        workspace = DriftWorkspace()
        first = workspace.planes(4, 10)
        assert [plane.shape for plane in first] == [(4, 10, 10)] * 6
        assert first[-1].dtype == bool
        smaller = workspace.planes(2, 10)
        assert all(np.shares_memory(a, b) for a, b in zip(smaller, first))
        assert all(workspace.planes(4, 10)[i] is first[i] for i in range(6))
        assert not np.shares_memory(workspace.planes(5, 10)[0], first[0])
        assert workspace.planes(1, 12)[0].shape == (1, 12, 12)


# --- Drift evaluations per run ----------------------------------------------


class _CountingEngine(DenseDriftEngine):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.calls = 0

    def drift_batch(self, positions: np.ndarray) -> np.ndarray:
        self.calls += 1
        return super().drift_batch(positions)


def _config(two_type_params, integrator: str, substeps: int, n_steps: int = 6):
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
        engine="dense",
    )


def _counting_engine(config: SimulationConfig) -> _CountingEngine:
    return _CountingEngine(
        config.types, config.params, config.force, config.cutoff, domain=config.domain
    )


class TestDriftCallCount:
    @pytest.mark.parametrize("substeps", [1, 3])
    @pytest.mark.parametrize(
        "integrator, per_substep", [("euler-maruyama", 1), ("heun", 2)]
    )
    def test_ensemble_batch_reuses_the_diagnostic_drift(
        self, two_type_params, integrator, per_substep, substeps
    ):
        config = _config(two_type_params, integrator, substeps)
        simulator = EnsembleSimulator(config, 4)
        engine = simulator._engine = _counting_engine(config)
        initial = initial_ensemble_for(config, 4, np.random.default_rng(1))
        simulator._run_batch(initial, np.random.default_rng(2))
        assert engine.calls == 1 + per_substep * config.n_steps * substeps

    def test_particle_system_evaluates_the_drift_every_step(self, two_type_params):
        # A single run's positions are public and may be reassigned between
        # steps, so each step evaluates the drift at its start afresh.
        config = _config(two_type_params, "euler-maruyama", substeps=2)
        system = ParticleSystem(config, rng=np.random.default_rng(3))
        engine = system._engine = _counting_engine(config)
        system.step()
        system.positions = system.positions + 0.5
        system.step()
        assert engine.calls == 2 * (config.substeps + 1)
