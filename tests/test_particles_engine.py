"""Tests for repro.particles.engine — the unified dense/sparse drift engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.particles.domain import get_domain
from repro.particles.engine import (
    DRIFT_ENGINES,
    SPARSE_AUTO_MIN_PARTICLES,
    AdaptiveDriftEngine,
    DenseDriftEngine,
    DriftEngine,
    SparseDriftEngine,
    collective_radius,
    engine_for_config,
    make_engine,
    resolve_engine,
    sparse_drift_batch,
)
from repro.particles.forces import drift_batch
from repro.particles.model import SimulationConfig
from repro.particles.neighbors import BruteForceNeighbors, CellListNeighbors
from repro.particles.types import InteractionParams, random_symmetric_matrix


def _random_params(n_types: int, rng: np.random.Generator) -> InteractionParams:
    """Symmetric k in [1, 10], r in [0, 1] and tau in [1, 10], drawn in that order; sigma = 1."""
    k, r, tau = (
        random_symmetric_matrix(n_types, low, high, rng)
        for low, high in ((1.0, 10.0), (0.0, 1.0), (1.0, 10.0))
    )
    return InteractionParams(k=k, r=r, sigma=np.ones((n_types, n_types)), tau=tau)


SEARCHES = {"brute": BruteForceNeighbors(), "cell": CellListNeighbors()}


def _random_system(seed: int, n: int = 20, n_types: int = 3, m: int = 4):
    rng = np.random.default_rng(seed)
    params = _random_params(n_types, rng)
    types = rng.integers(0, n_types, size=n)
    batch = rng.uniform(-4, 4, size=(m, n, 2))
    return batch, types, params


class TestDenseSparseEquivalence:
    """The acceptance criterion: dense and sparse drift agree to <= 1e-10."""

    @pytest.mark.parametrize("backend", sorted(SEARCHES))
    @pytest.mark.parametrize("force", ["F1", "F2"])
    def test_batch_kernel_matches_dense(self, backend, force):
        batch, types, params = _random_system(seed=3)
        cutoff = 2.5
        dense = drift_batch(batch, types, params, force, cutoff=cutoff)
        sparse = sparse_drift_batch(batch, types, params, force, cutoff, SEARCHES[backend])
        np.testing.assert_allclose(sparse, dense, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("backend", sorted(SEARCHES))
    @pytest.mark.parametrize("force", ["F1", "F2"])
    @pytest.mark.parametrize("domain", ["free", "periodic:9", "channel:9,11", "reflecting:9"])
    def test_single_kernel_matches_dense(self, backend, force, domain):
        # One sparse accumulation path: a single configuration runs through
        # the batch kernel as a batch of one, bit-identical to the dense
        # single-configuration kernel on every domain.
        batch, types, params = _random_system(seed=4)
        positions = get_domain(domain).wrap(batch[0] + 4.0)
        cutoff = 2.0
        dense_engine = DenseDriftEngine(types, params, force, cutoff, domain=domain)
        sparse_engine = SparseDriftEngine(types, params, force, cutoff, domain=domain)
        drift = sparse_engine.drift(positions)
        np.testing.assert_array_equal(drift, dense_engine.drift(positions))
        np.testing.assert_array_equal(drift, sparse_engine.drift_batch(positions[None])[0])
        searched = sparse_drift_batch(
            positions[None], types, params, force, cutoff, SEARCHES[backend], domain=domain
        )
        np.testing.assert_array_equal(drift, searched[0])

    @pytest.mark.parametrize("backend", sorted(SEARCHES))
    def test_kernels_are_bit_identical(self, backend):
        # Stronger than the 1e-10 criterion: the sparse kernel consumes pairs
        # in lexicographic order, reproducing the dense summation order
        # exactly.  This is what makes engine choice not affect trajectories.
        batch, types, params = _random_system(seed=5, n=24, m=6)
        cutoff = 2.5
        dense = drift_batch(batch, types, params, "F1", cutoff=cutoff)
        sparse = sparse_drift_batch(batch, types, params, "F1", cutoff, SEARCHES[backend])
        np.testing.assert_array_equal(sparse, dense)

    def test_unconstrained_cutoff_still_matches(self):
        batch, types, params = _random_system(seed=6, n=10)
        dense = drift_batch(batch, types, params, "F2", cutoff=None)
        sparse = sparse_drift_batch(batch, types, params, "F2", None, BruteForceNeighbors())
        np.testing.assert_allclose(sparse, dense, rtol=0, atol=1e-10)

    def test_no_interacting_pairs_gives_zero_drift(self):
        params = InteractionParams.single_type(k=1.0, r=1.0)
        positions = np.array([[[0.0, 0.0], [100.0, 0.0], [0.0, 100.0]]])
        types = np.zeros(3, dtype=int)
        drift = sparse_drift_batch(positions, types, params, "F1", 1.0, CellListNeighbors())
        np.testing.assert_array_equal(drift, np.zeros_like(positions))


class TestPositionsAtTheContractsEdge:
    """Far-flung finite positions keep dense = sparse; non-finite ones are rejected."""

    def _system(self, seed: int):
        rng = np.random.default_rng(seed)
        params = _random_params(2, rng)
        types = rng.integers(0, 2, size=300)
        return rng.uniform(-5.0, 5.0, size=(300, 2)), types, params

    @pytest.mark.parametrize("force", ["F1", "F2"])
    def test_far_flung_particle_matches_dense(self, force):
        positions, types, params = self._system(30)
        positions[7] = (1e300, 1e300)
        sparse = SparseDriftEngine(types, params, force, 1.0)
        with np.errstate(over="ignore"):  # dense and brute square the 1e300 offsets
            dense = DenseDriftEngine(types, params, force, 1.0).drift_batch(positions[None])
            brute = sparse_drift_batch(
                positions[None], types, params, force, 1.0, BruteForceNeighbors()
            )
            single, batched = sparse.drift(positions), sparse.drift_batch(positions[None])
        assert np.isfinite(dense).all()
        np.testing.assert_array_equal(brute, dense)
        np.testing.assert_array_equal(batched, dense)
        np.testing.assert_array_equal(single, dense[0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "domain", ["free", "periodic:20.0", "channel:20.0,16.0", "reflecting:20.0"]
    )
    def test_non_finite_positions_are_rejected(self, bad, domain):
        # The dense kernel turns the bad particle into NaN drift, which no
        # pair set reproduces: the sparse engine refuses the input instead.
        positions, types, params = self._system(31)
        positions = get_domain(domain).wrap(positions + 8.0)
        positions[11, 0] = bad
        with np.errstate(invalid="ignore"):
            dense = DenseDriftEngine(types, params, "F2", 1.0, domain=domain).drift(positions)
        assert np.isnan(dense).any()
        sparse = SparseDriftEngine(types, params, "F2", 1.0, domain=domain)
        with pytest.raises(ValueError, match="positions must be finite"):
            sparse.drift(positions)
        with pytest.raises(ValueError, match="positions must be finite"):
            sparse.drift_batch(np.stack([positions[::-1], positions]))


class TestEngineCallDispatch:
    def test_call_dispatches_on_rank(self):
        batch, types, params = _random_system(seed=7, n=8, m=3)
        engine = make_engine("sparse", types=types, params=params, scaling="F1", cutoff=2.0)
        np.testing.assert_array_equal(engine(batch), engine.drift_batch(batch))
        np.testing.assert_array_equal(engine(batch[0]), engine.drift(batch[0]))

    def test_call_rejects_bad_rank(self):
        batch, types, params = _random_system(seed=8, n=8)
        engine = make_engine("dense", types=types, params=params, scaling="F1")
        with pytest.raises(ValueError):
            engine(np.zeros(4))

    def test_batch_kernel_validates_shapes(self):
        _, types, params = _random_system(seed=9, n=8)
        with pytest.raises(ValueError):
            sparse_drift_batch(np.zeros((8, 2)), types, params, "F1", 1.0, BruteForceNeighbors())
        with pytest.raises(ValueError):
            sparse_drift_batch(np.zeros((2, 9, 2)), types, params, "F1", 1.0, BruteForceNeighbors())


class TestResolveEngine:
    def test_explicit_names_pass_through(self):
        for name in ("dense", "sparse"):
            assert resolve_engine(name, n_particles=5, cutoff=None) == name

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            resolve_engine("octree", n_particles=5, cutoff=1.0)

    def test_auto_is_dense_without_cutoff(self):
        assert resolve_engine("auto", n_particles=10_000, cutoff=None) == "dense"
        assert resolve_engine("auto", n_particles=10_000, cutoff=np.inf) == "dense"

    def test_auto_is_dense_for_small_collectives(self):
        assert (
            resolve_engine("auto", n_particles=SPARSE_AUTO_MIN_PARTICLES - 1, cutoff=1.0)
            == "dense"
        )

    def test_auto_is_sparse_for_large_pruning_cutoff(self):
        assert (
            resolve_engine(
                "auto", n_particles=1000, cutoff=2.0, domain_radius=17.8
            )
            == "sparse"
        )

    def test_auto_is_dense_when_cutoff_covers_the_collective(self):
        # r_c larger than the collective diameter prunes nothing.
        assert (
            resolve_engine("auto", n_particles=1000, cutoff=40.0, domain_radius=17.8)
            == "dense"
        )

    def test_registry_constant(self):
        assert DRIFT_ENGINES == ("auto", "dense", "sparse")


class TestConfigIntegration:
    def test_default_engine_is_auto(self, small_config):
        assert small_config.engine == "auto"
        assert small_config.resolved_engine == "dense"

    def test_large_collective_resolves_sparse(self, two_type_params):
        config = SimulationConfig(
            type_counts=(150, 150), params=two_type_params, cutoff=2.0
        )
        assert config.resolved_engine == "sparse"
        engine = engine_for_config(config)
        # "auto" builds the adaptive wrapper, initially resolved to the same
        # choice as the static rule.
        assert isinstance(engine, AdaptiveDriftEngine)
        assert engine.resolved == "sparse"
        assert isinstance(engine.active, SparseDriftEngine)

    def test_engine_for_config_respects_explicit_choice(self, small_config):
        sparse_cfg = small_config.with_updates(engine="sparse", cutoff=2.0)
        dense_cfg = small_config.with_updates(engine="dense", cutoff=2.0)
        assert isinstance(engine_for_config(sparse_cfg), SparseDriftEngine)
        assert isinstance(engine_for_config(dense_cfg), DenseDriftEngine)

    def test_invalid_engine_rejected_at_construction(self, small_config):
        with pytest.raises(KeyError):
            small_config.with_updates(engine="warp")

    def test_engine_round_trips_through_dict(self, small_config):
        config = small_config.with_updates(engine="sparse", cutoff=2.0)
        restored = SimulationConfig.from_dict(config.to_dict())
        assert restored.to_dict() == config.to_dict()
        assert restored.engine == "sparse"

    def test_legacy_dict_without_engine_loads(self, small_config):
        payload = small_config.to_dict()
        del payload["engine"]
        restored = SimulationConfig.from_dict(payload)
        assert restored.engine == "auto"

    def test_engine_is_a_drift_engine(self, small_config):
        assert isinstance(engine_for_config(small_config), DriftEngine)


class TestDriftSingleVsBatchConsistency:
    @pytest.mark.parametrize("engine_name", ["dense", "sparse"])
    def test_batch_rows_match_single(self, engine_name):
        batch, types, params = _random_system(seed=11, n=15, m=5)
        engine = make_engine(
            engine_name, types=types, params=params, scaling="F2", cutoff=3.0
        )
        batched = engine.drift_batch(batch)
        for m in range(batch.shape[0]):
            np.testing.assert_allclose(
                batched[m], engine.drift(batch[m]), rtol=0, atol=1e-10
            )

    def test_matches_dense_batch_of_one(self):
        batch, types, params = _random_system(seed=12, n=15)
        engine = make_engine("sparse", types=types, params=params, scaling="F1", cutoff=2.0)
        reference = drift_batch(batch[0][None], types, params, "F1", cutoff=2.0)[0]
        np.testing.assert_allclose(engine.drift(batch[0]), reference, rtol=0, atol=1e-10)


class TestCollectiveRadius:
    def test_half_the_longer_bounding_box_side(self):
        positions = np.array([[-3.0, 0.0], [5.0, 1.0], [0.0, -1.0]])
        assert collective_radius(positions) == pytest.approx(4.0)  # x-span 8

    def test_batch_spans_all_samples(self):
        batch = np.array([[[0.0, 0.0], [1.0, 0.0]], [[10.0, 0.0], [11.0, 0.0]]])
        assert collective_radius(batch) == pytest.approx(5.5)  # x-span 11 over samples

    def test_empty_input(self):
        assert collective_radius(np.zeros((0, 2))) == 0.0

    @pytest.mark.parametrize("shape", [(64, 50, 2), (3, 1000, 2), (1, 7, 2), (300, 2)])
    def test_per_axis_reductions_match_the_flattened_one(self, shape):
        # Bit for bit against the (m·n, 2) axis-0 reduction it replaced,
        # NaN included.
        positions = np.random.default_rng(len(shape)).normal(scale=7.0, size=shape)
        for value in (None, np.nan):
            if value is not None:
                positions.reshape(-1, 2)[3, 1] = value
            flat = positions.reshape(-1, 2)
            expected = float((flat.max(axis=0) - flat.min(axis=0)).max() / 2.0)
            np.testing.assert_array_equal(collective_radius(positions), expected)


class TestAdaptiveDriftEngine:
    def _engine(self, n=300, cutoff=2.0, domain_radius=20.0):
        rng = np.random.default_rng(0)
        params = _random_params(2, rng)
        types = rng.integers(0, 2, size=n)
        return AdaptiveDriftEngine(
            types, params, "F1", cutoff, domain_radius=domain_radius
        ), rng

    def test_initial_resolution_uses_domain_radius(self):
        engine, _ = self._engine(domain_radius=20.0)
        assert engine.resolved == "sparse"
        engine, _ = self._engine(domain_radius=1.0)
        assert engine.resolved == "dense"

    def test_reresolve_tracks_the_bounding_box(self):
        engine, rng = self._engine(domain_radius=20.0)
        spread = rng.uniform(-20, 20, size=(300, 2))
        contracted = rng.uniform(-0.5, 0.5, size=(300, 2))
        assert engine.reresolve(spread) == "sparse"
        assert engine.reresolve(contracted) == "dense"
        assert isinstance(engine.active, DenseDriftEngine)
        assert engine.reresolve(spread) == "sparse"
        assert isinstance(engine.active, SparseDriftEngine)

    def test_delegates_are_cached_across_switches(self):
        engine, rng = self._engine()
        spread = rng.uniform(-20, 20, size=(300, 2))
        contracted = rng.uniform(-0.5, 0.5, size=(300, 2))
        engine.reresolve(spread)
        sparse_delegate = engine.active
        engine.reresolve(contracted)
        dense_delegate = engine.active
        engine.reresolve(spread)
        assert engine.active is sparse_delegate
        engine.reresolve(contracted)
        assert engine.active is dense_delegate

    def test_drift_identical_across_switch(self):
        engine, rng = self._engine()
        positions = rng.uniform(-20, 20, size=(300, 2))
        batch = positions[None, ...]
        engine.reresolve(positions)  # sparse
        sparse_drift = engine.drift(positions)
        sparse_batch = engine.drift_batch(batch)
        engine.reresolve(np.zeros((300, 2)))  # force the dense delegate
        np.testing.assert_array_equal(engine.drift(positions), sparse_drift)
        np.testing.assert_array_equal(engine.drift_batch(batch), sparse_batch)

    def test_make_engine_adaptive_only_wraps_auto(self):
        rng = np.random.default_rng(1)
        params = _random_params(2, rng)
        types = rng.integers(0, 2, size=50)
        common = dict(types=types, params=params, scaling="F1", cutoff=2.0)
        assert isinstance(make_engine("auto", **common), AdaptiveDriftEngine)
        assert isinstance(make_engine("sparse", **common), SparseDriftEngine)
        assert isinstance(make_engine("dense", **common), DenseDriftEngine)

    @pytest.mark.parametrize(
        "n, cutoff, domain",
        [(300, None, "free"), (SPARSE_AUTO_MIN_PARTICLES - 1, 2.0, "free"), (300, 2.0, "periodic:40")],
        ids=["no-cutoff", "small", "bounded"],
    )
    def test_reresolve_skips_the_scan_where_sparse_is_impossible(self, monkeypatch, n, cutoff, domain):
        import repro.particles.engine as engine_module

        rng = np.random.default_rng(2)
        params = _random_params(2, rng)
        types = rng.integers(0, 2, size=n)
        engine = AdaptiveDriftEngine(types, params, "F1", cutoff, domain_radius=20.0, domain=domain)
        scans = []
        monkeypatch.setattr(engine_module, "collective_radius", lambda p: scans.append(p) or 20.0)
        resolved = engine.resolved
        assert engine.reresolve(rng.uniform(0.0, 40.0, size=(n, 2))) == resolved
        assert scans == []
        free = AdaptiveDriftEngine(types, params, "F1", 2.0, domain_radius=20.0)
        free.reresolve(np.zeros((n, 2)))
        assert len(scans) == (n >= SPARSE_AUTO_MIN_PARTICLES)
