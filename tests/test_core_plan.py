"""Tests for the declarative experiment-plan layer (repro.core.plan)."""

from __future__ import annotations

import io
import threading
import time

import numpy as np
import pytest

from repro.core.experiments import (
    ExperimentSpec,
    all_figure_plans,
    all_figure_specs,
    default_scale,
    fig9_radius_sweep_plan,
    figure_plan,
)
from repro.core import plan as plan_module
from repro.core.plan import (
    ConsoleObserver,
    ExperimentPlan,
    PlanObserver,
    RunUnit,
    chain,
    grid,
    single,
    unit_content_hash,
)
from repro.core.self_organization import AnalysisConfig
from repro.io.artifacts import RunStore, build_document, encode_document
from repro.particles.model import SimulationConfig
from repro.particles.types import InteractionParams


def tiny_spec(name: str = "tiny", seed: int = 1, n_samples: int = 10) -> ExperimentSpec:
    params = InteractionParams.clustering(2, self_distance=1.0, cross_distance=2.0)
    simulation = SimulationConfig(
        type_counts=(4, 4), params=params, force="F1", dt=0.02, n_steps=6, init_radius=2.0
    )
    return ExperimentSpec(
        name=name,
        description="tiny plan test spec",
        simulation=simulation,
        n_samples=n_samples,
        analysis=AnalysisConfig(step_stride=3, k_neighbors=2),
        seed=seed,
    )


@pytest.fixture
def spec() -> ExperimentSpec:
    return tiny_spec()


class TestLowering:
    def test_single_lowers_to_one_unit(self, spec):
        plan = single(spec)
        units = plan.units()
        assert len(units) == 1 and len(plan) == 1
        assert units[0].spec == spec
        assert units[0].name == "tiny"

    def test_chain_concatenates_in_order(self, spec):
        other = tiny_spec(name="other", seed=2)
        plan = chain(single(spec), other)  # bare specs allowed
        assert [u.name for u in plan.units()] == ["tiny", "other"]

    def test_chain_needs_at_least_one_plan(self):
        with pytest.raises(ValueError, match="at least one plan"):
            chain()

    def test_from_specs_is_a_chain_of_singles(self, spec):
        other = tiny_spec(name="other", seed=2)
        flat = ExperimentPlan.from_specs([spec, other, spec])
        chained = chain(single(spec), single(other), single(spec))
        assert [u.content_hash for u in flat.units()] == [
            u.content_hash for u in chained.units()
        ]
        assert [u.name for u in flat.units()] == ["tiny", "other", "tiny"]

    def test_swept_names_follow_the_product_order(self, spec):
        # The first axis varies slowest; each name carries every axis leaf
        # and its value (None as "none", floats in %g form).
        plan = grid(spec, **{"simulation.cutoff": [None, 2.5], "seed": [3, 4]})
        assert [u.name for u in plan.units()] == [
            "tiny__cutoffnone_seed3",
            "tiny__cutoffnone_seed4",
            "tiny__cutoff2.5_seed3",
            "tiny__cutoff2.5_seed4",
        ]

    def test_grid_is_a_cartesian_product(self, spec):
        plan = grid(spec, **{"simulation.cutoff": [None, 3.0], "n_samples": [10, 12]})
        units = plan.units()
        assert len(units) == 4
        combos = {(u.spec.simulation.cutoff, u.spec.n_samples) for u in units}
        assert combos == {(None, 10), (None, 12), (3.0, 10), (3.0, 12)}
        # swept names stay distinct and derived from the base name
        assert len({u.name for u in units}) == 4
        assert all(u.name.startswith("tiny__") for u in units)

    def test_empty_axes_are_rejected(self, spec):
        with pytest.raises(ValueError, match="at least one axis"):
            grid(spec)
        with pytest.raises(ValueError, match="non-empty"):
            grid(spec, seed=[])

    def test_unknown_axis_is_rejected(self, spec):
        with pytest.raises(ValueError, match="unknown sweep axis"):
            grid(spec, **{"simulation.warp_factor": [1]}).units()
        with pytest.raises(ValueError, match="unknown sweep axis"):
            grid(spec, **{"banana.cutoff": [1]}).units()

    def test_dunder_axis_alias(self, spec):
        plan = grid(spec, simulation__cutoff=[2.0, 3.0])
        assert [u.spec.simulation.cutoff for u in plan.units()] == [2.0, 3.0]

    def test_grid_over_a_plan_applies_to_every_spec(self, spec):
        base = chain(single(spec), single(tiny_spec(name="other", seed=2)))
        plan = grid(base, **{"simulation.cutoff": [2.0, 3.0]})
        assert len(plan) == 4

    def test_analysis_axis(self, spec):
        plan = grid(spec, **{"analysis.k_neighbors": [2, 3]})
        assert [u.spec.analysis.k_neighbors for u in plan.units()] == [2, 3]

    def test_limit_and_map_specs(self, spec):
        plan = grid(spec, **{"simulation.cutoff": [None, 2.0, 3.0]})
        assert len(plan.limit(2)) == 2
        mapped = plan.map_specs(lambda s: s.with_updates(n_samples=99))
        assert all(u.spec.n_samples == 99 for u in mapped.units())
        with pytest.raises(ValueError):
            plan.limit(0)


class TestContentHash:
    def test_cosmetic_fields_do_not_enter_the_hash(self, spec):
        renamed = spec.with_updates(name="renamed", description="x", tags=("a",), expectation="y")
        assert unit_content_hash(spec) == unit_content_hash(renamed)

    def test_physics_fields_change_the_hash(self, spec):
        assert unit_content_hash(spec) != unit_content_hash(spec.with_updates(seed=2))
        assert unit_content_hash(spec) != unit_content_hash(spec.with_updates(n_samples=11))
        assert unit_content_hash(spec) != unit_content_hash(
            spec.with_updates(simulation=spec.simulation.with_updates(cutoff=3.0))
        )
        assert unit_content_hash(spec) != unit_content_hash(
            spec.with_updates(analysis=AnalysisConfig(step_stride=3, k_neighbors=3))
        )

    def test_hash_is_stable_across_equal_specs(self, spec):
        assert RunUnit(spec).content_hash == RunUnit(tiny_spec()).content_hash
        assert len(RunUnit(spec).content_hash) == 64


class TestFigurePlanCounterparts:
    def test_every_figure_has_a_plan(self):
        plans = all_figure_plans()
        specs = all_figure_specs()
        assert set(plans) == set(specs)
        # The spec lists are the plans lowered, in plan order.
        for figure, plan in plans.items():
            assert [s.name for s in specs[figure]] == [u.name for u in plan.units()]

    def test_fig9_plan_unit_count(self):
        plan = fig9_radius_sweep_plan(cutoffs=(2.5, None))
        assert len(plan) == 2 * default_scale().sweep_repeats
        assert [u.name for u in plan.units()[:3]] == [
            "fig9_rep0__cutoff2.5",
            "fig9_rep0__cutoffnone",
            "fig9_rep1__cutoff2.5",
        ]

    def test_figure_plan_lookup(self):
        assert len(figure_plan("FIG4")) == 1
        with pytest.raises(KeyError):
            figure_plan("fig99")


class RecordingObserver(PlanObserver):
    def __init__(self) -> None:
        self.events: list[tuple] = []

    def on_plan_start(self, units, missing):
        self.events.append(("plan_start", len(units), len(missing)))

    def on_unit_start(self, unit, index, total):
        self.events.append(("unit_start", unit.name))

    def on_unit_complete(self, unit, result, cached):
        self.events.append(("unit_complete", unit.name, cached))

    def on_plan_complete(self, execution):
        self.events.append(("plan_complete", execution.n_computed, execution.n_cached))


class TestExecution:
    @pytest.fixture
    def plan(self, spec) -> ExperimentPlan:
        return grid(spec, **{"simulation.cutoff": [None, 3.0]})

    def test_execute_without_store_computes_everything(self, plan):
        execution = plan.execute()
        assert execution.n_computed == 2 and execution.n_cached == 0
        assert len(execution.results) == len(execution.units) == 2
        assert len(execution.summaries()) == 2
        assert np.isfinite(execution.mean_delta_multi_information())

    def test_cache_hits_skip_recomputation_bit_identically(self, plan, tmp_path):
        store = RunStore(tmp_path / "store")
        first = plan.execute(store)
        snapshot = {p.name: p.read_bytes() for p in store.units_dir.glob("*.json")}
        second = plan.execute(store)
        assert second.n_computed == 0 and second.n_cached == 2
        assert snapshot == {p.name: p.read_bytes() for p in store.units_dir.glob("*.json")}
        for r1, r2 in zip(first.results, second.results):
            np.testing.assert_array_equal(
                r1.measurement.multi_information, r2.measurement.multi_information
            )
            np.testing.assert_array_equal(r1.mean_force_norm, r2.mean_force_norm)

    def test_warm_executions_hash_each_unit_once(self, spec, tmp_path, monkeypatch):
        # A plan is lowered once: re-executing it against a warm store must
        # not re-encode and re-hash every spec.
        store = RunStore(tmp_path / "store")
        cold = grid(spec, **{"simulation.cutoff": [None, 3.0]}).execute(store)
        hashed = []
        monkeypatch.setattr(
            plan_module,
            "unit_content_hash",
            lambda unit_spec: hashed.append(unit_spec.name) or unit_content_hash(unit_spec),
        )
        plan = grid(spec, **{"simulation.cutoff": [None, 3.0]})
        warm = [plan.execute(store) for _ in range(2)]
        assert sorted(hashed) == sorted(unit.name for unit in cold.units)
        assert [execution.n_cached for execution in warm] == [2, 2]
        documents = [
            [encode_document(build_document(u, r)) for u, r in zip(e.units, e.results)]
            for e in (cold, *warm)
        ]
        assert documents[0] == documents[1] == documents[2]

    def test_interrupted_sweep_resumes_with_only_missing_units(self, plan, tmp_path):
        store = RunStore(tmp_path / "store")
        uninterrupted = plan.execute(RunStore(tmp_path / "reference"))
        reference = {
            p.name: p.read_bytes() for p in RunStore(tmp_path / "reference").units_dir.glob("*.json")
        }
        # "interrupt": only the first unit completes
        partial = plan.limit(1).execute(store)
        assert partial.n_computed == 1
        resumed = plan.execute(store)
        assert resumed.n_computed == 1 and resumed.n_cached == 1
        resumed_bytes = {p.name: p.read_bytes() for p in store.units_dir.glob("*.json")}
        assert resumed_bytes == reference, "resumed store must be bit-identical to an uninterrupted run"
        for r1, r2 in zip(uninterrupted.results, resumed.results):
            np.testing.assert_array_equal(
                r1.measurement.multi_information, r2.measurement.multi_information
            )

    def test_status_reports_cached_and_missing(self, plan, tmp_path):
        store = RunStore(tmp_path / "store")
        assert plan.status(store).n_missing == 2
        plan.limit(1).execute(store)
        status = plan.status(store)
        assert status.n_cached == 1 and status.n_missing == 1 and not status.complete
        plan.execute(store)
        assert plan.status(store).complete
        assert plan.status(None).n_missing == 2

    def test_status_asks_the_store_once_per_unit(self, plan, tmp_path):
        # A unit committed between two has() calls must still land in exactly
        # one of cached/missing (and an HTTP store pays one trip per unit).
        calls: dict[str, int] = {}

        class CommitsWhileAsked(RunStore):
            def has(self, unit_or_hash):
                calls[unit_or_hash] = calls.get(unit_or_hash, 0) + 1
                return calls[unit_or_hash] > 1  # missing first, committed after

        status = plan.status(CommitsWhileAsked(tmp_path / "store"))
        assert status.n_missing == status.n_units == 2 and status.n_cached == 0
        assert sorted(calls.values()) == [1, 1]

    def test_recompute_ignores_the_cache(self, plan, tmp_path):
        store = RunStore(tmp_path / "store")
        plan.execute(store)
        execution = plan.execute(store, recompute=True)
        assert execution.n_computed == 2 and execution.n_cached == 0

    def test_duplicate_units_are_computed_once(self, spec):
        plan = chain(single(spec), single(spec))
        execution = plan.execute()
        assert len(execution.units) == 2
        assert execution.n_computed == 1
        assert execution.results[0] is execution.results[1]

    def test_parallel_fanout_matches_serial(self, plan):
        serial = plan.execute()
        parallel = plan.execute(n_jobs=2)
        for r1, r2 in zip(serial.results, parallel.results):
            np.testing.assert_array_equal(
                r1.measurement.multi_information, r2.measurement.multi_information
            )

    def test_observer_sees_the_lifecycle(self, plan, tmp_path):
        store = RunStore(tmp_path / "store")
        plan.limit(1).execute(store)
        observer = RecordingObserver()
        plan.execute(store, observer=observer)
        kinds = [event[0] for event in observer.events]
        assert kinds[0] == "plan_start" and kinds[-1] == "plan_complete"
        completes = [event for event in observer.events if event[0] == "unit_complete"]
        assert sorted(event[2] for event in completes) == [False, True]

    def test_console_observer_output(self, plan):
        stream = io.StringIO()
        plan.execute(observer=ConsoleObserver(stream))
        text = stream.getvalue()
        assert "2 unit(s)" in text and "computed" in text and "delta I" in text

    def test_units_are_persisted_as_they_complete(self, plan, tmp_path):
        class Interrupt(Exception):
            pass

        class InterruptingObserver(PlanObserver):
            def on_unit_complete(self, unit, result, cached):
                raise Interrupt  # "crash" right after the first unit finishes

        store = RunStore(tmp_path / "store")
        with pytest.raises(Interrupt):
            plan.execute(store, observer=InterruptingObserver())
        # The completed unit must already be on disk despite the crash.
        assert plan.status(store).n_cached == 1
        resumed = plan.execute(store)
        assert resumed.n_cached == 1 and resumed.n_computed == 1

    def test_keep_ensembles_recomputes_cached_units_without_an_ensemble(self, spec, tmp_path):
        store = RunStore(tmp_path / "store")
        plan = single(spec)
        plan.execute(store)  # cached without .npz
        execution = plan.execute(store, keep_ensembles=True)
        assert execution.n_computed == 1 and execution.n_cached == 0
        assert execution.results[0].ensemble is not None
        assert store.ensemble_path_for(plan.units()[0]).is_file()
        # Now the request is satisfiable from cache.
        warm = plan.execute(store, keep_ensembles=True)
        assert warm.n_computed == 0 and warm.results[0].ensemble is not None

    def test_keep_ensembles_round_trips_the_trajectory(self, spec, tmp_path):
        store = RunStore(tmp_path / "store")
        plan = single(spec)
        first = plan.execute(store, keep_ensembles=True)
        assert first.results[0].ensemble is not None
        assert store.ensemble_path_for(plan.units()[0]).is_file()
        second = plan.execute(store, keep_ensembles=True)
        assert second.n_computed == 0
        np.testing.assert_array_equal(
            second.results[0].ensemble.positions, first.results[0].ensemble.positions
        )
        # A warm execution that does not ask for ensembles must not pull the
        # (potentially huge) .npz into memory.
        summaries_only = plan.execute(store)
        assert summaries_only.n_computed == 0
        assert summaries_only.results[0].ensemble is None

class TestSharedStoreExecution:
    """Lease-based dispatch and write-once persistence on a (shared) store."""

    @pytest.fixture
    def plan(self, spec) -> ExperimentPlan:
        return grid(spec, **{"simulation.cutoff": [None, 3.0]})

    def test_orphaned_archive_does_not_satisfy_keep_ensembles(self, spec, tmp_path):
        # Regression: a crashed keep_ensembles save leaves a bare .npz next
        # to a document with no unit.ensemble reference.  The cache check
        # must consult the document's reference, not the archive's mere
        # existence — otherwise the unit counts as cached and
        # load(with_ensemble=True) silently returns ensemble=None, violating
        # the caller's explicit keep_ensembles=True request.
        store = RunStore(tmp_path / "store")
        plan = single(spec)
        plan.execute(store)  # summaries-only document, no ensemble reference
        unit = plan.units()[0]
        orphan = store.ensemble_path_for(unit)
        orphan.write_bytes(b"crashed keep_ensembles save leftovers")
        execution = plan.execute(store, keep_ensembles=True)
        assert execution.n_computed == 1 and execution.n_cached == 0
        assert execution.results[0].ensemble is not None
        # The document now references the (rewritten, genuine) archive and
        # the request is satisfiable from cache.
        assert store.load_document(unit)["unit"]["ensemble"] == orphan.name
        warm = plan.execute(store, keep_ensembles=True)
        assert warm.n_computed == 0 and warm.results[0].ensemble is not None

    def test_committed_documents_are_never_rewritten(self, plan, tmp_path):
        # Write-once: a later execution that computes *other* units must
        # leave already-committed documents untouched at the inode level.
        store = RunStore(tmp_path / "store")
        first = plan.limit(1).execute(store)
        assert first.n_computed == 1
        committed = next(iter(store.units_dir.glob("*.json")))
        before = committed.stat()
        resumed = plan.execute(store)
        assert resumed.n_computed == 1 and resumed.n_cached == 1
        after = committed.stat()
        assert (before.st_mtime_ns, before.st_ino) == (after.st_mtime_ns, after.st_ino)

    def test_foreign_lease_defers_to_the_other_workers_result(self, spec, tmp_path):
        # Another worker holds the unit's lease; this execution must wait
        # and then adopt the result that worker commits (external), never
        # duplicating the compute.
        store = RunStore(tmp_path / "store")
        plan = single(spec)
        unit = plan.units()[0]
        assert store.try_acquire_lease(unit.content_hash, "other-worker", ttl_seconds=30.0)

        def commit_later():
            # The other worker commits while *still holding* its lease (a
            # real worker releases only after the save); the waiter must
            # adopt the committed result, not wait for the lease.
            time.sleep(0.3)
            store.save(unit, unit.execute(), overwrite=False)

        thread = threading.Thread(target=commit_later)
        thread.start()
        try:
            execution = plan.execute(store, lease_poll_seconds=0.05)
        finally:
            thread.join()
            store.release_lease(unit.content_hash, "other-worker")
        assert execution.n_computed == 0 and execution.n_cached == 0
        assert execution.external == (unit.content_hash,)
        assert execution.n_external == 1
        assert np.isfinite(execution.results[0].delta_multi_information)

    def test_unit_committed_between_has_and_acquire_is_adopted(self, spec, tmp_path):
        # A peer commits and releases right after this worker's has() said
        # "missing": the freed lease is acquired, but the unit must then be
        # adopted, not computed a second time.
        plan = single(spec)
        unit = plan.units()[0]
        peer_result = unit.execute()

        class PeerCommitsFirst(RunStore):
            def try_acquire_lease(self, unit_or_hash, owner, ttl_seconds=60.0):
                if not self.has(unit_or_hash):
                    self.save(unit, peer_result, overwrite=False)
                return super().try_acquire_lease(unit_or_hash, owner, ttl_seconds)

        store = PeerCommitsFirst(tmp_path / "store")
        execution = plan.execute(store)
        assert execution.n_computed == 0 and execution.external == (unit.content_hash,)
        assert list(store.leases_dir.glob("*.json")) == []
        assert execution.results[0].delta_multi_information == peer_result.delta_multi_information

    def test_expired_foreign_lease_is_stolen_and_computed(self, spec, tmp_path):
        # A crashed worker stops renewing; once its lease expires another
        # worker steals the unit instead of waiting forever.
        store = RunStore(tmp_path / "store")
        plan = single(spec)
        unit = plan.units()[0]
        assert store.try_acquire_lease(unit.content_hash, "dead-worker", ttl_seconds=0.2)
        execution = plan.execute(store, lease_poll_seconds=0.05)
        assert execution.n_computed == 1
        assert not store.lease_path_for(unit.content_hash).exists()

    def test_all_leases_are_released_after_execution(self, plan, tmp_path):
        store = RunStore(tmp_path / "store")
        plan.execute(store)
        assert len(store.keys()) == 2
        assert list(store.leases_dir.glob("*.json")) == []

    def test_leases_are_released_when_an_observer_raises(self, plan, tmp_path):
        # A crash mid-execution must not leave leases behind that would
        # stall other workers (or the next execution here) until the TTL.
        class Interrupt(Exception):
            pass

        class InterruptingObserver(PlanObserver):
            def on_unit_complete(self, unit, result, cached):
                raise Interrupt

        store = RunStore(tmp_path / "store")
        with pytest.raises(Interrupt):
            plan.execute(store, observer=InterruptingObserver())
        leftover = list(store.leases_dir.glob("*.json")) if store.leases_dir.is_dir() else []
        assert leftover == []


class TestObserverFaultInjection:
    """A PlanObserver raising mid-execute corrupts nothing, on either backend.

    Observers run application code inside the executor's lease window; if one
    raises, the ``finally`` cleanup must still release every tracked lease and
    the store must hold only complete, loadable documents — so the very next
    execution (possibly by another worker) picks up exactly where this one
    crashed.
    """

    class Boom(Exception):
        pass

    @pytest.fixture
    def plan(self, spec) -> ExperimentPlan:
        return grid(spec, **{"simulation.cutoff": [None, 3.0]})

    @pytest.fixture(params=["filesystem", "http"])
    def backend(self, request, tmp_path):
        """(client, filesystem store) pairs for both run-store backends."""
        fs_store = RunStore(tmp_path / "store")
        if request.param == "filesystem":
            yield fs_store, fs_store
            return
        from repro.io.remote import open_store
        from repro.io.service import serve_store

        server = serve_store(tmp_path / "store", port=0)
        thread = server.serve_in_background()
        yield open_store(server.url), fs_store
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)

    def _assert_clean(self, fs_store: RunStore) -> None:
        assert list(fs_store.leases_dir.glob("*.json")) == []  # no leaked leases
        assert fs_store.orphaned_files(min_age_seconds=0.0) == []  # no stray temps
        for content_hash in fs_store.keys():  # every document reconstructs
            fs_store.load(content_hash, with_ensemble=False)

    def test_raise_in_on_unit_start_releases_the_lease(self, plan, backend):
        client, fs_store = backend

        class Saboteur(PlanObserver):
            def on_unit_start(self, unit, index, total):
                raise TestObserverFaultInjection.Boom

        with pytest.raises(self.Boom):
            plan.execute(client, observer=Saboteur())
        # on_unit_start fires before any compute: nothing persisted, nothing leased.
        assert fs_store.keys() == []
        self._assert_clean(fs_store)
        recovered = plan.execute(client)
        assert recovered.n_computed == len(plan)
        self._assert_clean(fs_store)

    def test_raise_in_on_unit_complete_keeps_the_committed_unit(self, plan, backend):
        client, fs_store = backend

        class Saboteur(PlanObserver):
            def on_unit_complete(self, unit, result, cached):
                raise TestObserverFaultInjection.Boom

        with pytest.raises(self.Boom):
            plan.execute(client, observer=Saboteur())
        # on_unit_complete fires after save + lease release: the finished
        # unit survives the crash and the resume computes only the rest.
        assert len(fs_store.keys()) == 1
        self._assert_clean(fs_store)
        resumed = plan.execute(client)
        assert resumed.n_cached == 1 and resumed.n_computed == len(plan) - 1
        self._assert_clean(fs_store)
