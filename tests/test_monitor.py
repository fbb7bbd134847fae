"""Tests for the streaming-analysis subsystem (repro.monitor).

The subsystem's contract has three legs, each pinned here:

* observers are **free and invisible**: a run with a no-op (or real)
  observer attached produces a bit-identical trajectory to an unobserved
  run, and an empty observer list costs nothing;
* streaming emissions are **exact**: every emitted value equals the
  post-hoc estimator applied to the same window — bitwise on the dense
  backend, within tight tolerance across backends;
* finished streams are **first-class store artifacts**: the metrics JSONL
  round-trips through both run-store backends without ever entering the
  unit key space or the orphan sweep.
"""

from __future__ import annotations

import json
from collections import deque

import numpy as np
import pytest

from repro.monitor import (
    InformationMonitor,
    MetricRow,
    MetricsStream,
    StreamingMultiInformation,
    StreamingTransferEntropy,
    WindowBuffer,
    posthoc_window_value,
    replay_ensemble,
)
from repro.particles.ensemble import EnsembleSimulator
from repro.particles.model import ParticleSystem, SimulationConfig
from repro.particles.types import InteractionParams


def tiny_config(n_steps: int = 6) -> SimulationConfig:
    params = InteractionParams.clustering(2, self_distance=1.0, cross_distance=2.0)
    return SimulationConfig(
        type_counts=(4, 4), params=params, force="F1", dt=0.02,
        n_steps=n_steps, init_radius=2.0,
    )


@pytest.fixture
def ensemble():
    """A small recorded ensemble trajectory, deterministic under seed 7."""
    return EnsembleSimulator(tiny_config(), 10, seed=7).run()


class RecordingObserver:
    def __init__(self) -> None:
        self.steps: list[int] = []
        self.frames: list[np.ndarray] = []

    def on_step(self, step: int, positions: np.ndarray) -> None:
        self.steps.append(step)
        self.frames.append(positions.copy())


class TestWindowBuffer:
    def test_view_matches_a_naive_deque_reference(self):
        rng = np.random.default_rng(0)
        window = 7
        buffer = WindowBuffer(window)
        reference: deque = deque(maxlen=window)
        for _ in range(50):  # several compactions at capacity 2*window
            frame = rng.standard_normal((3, 2))
            buffer.push(frame)
            reference.append(frame)
            np.testing.assert_array_equal(buffer.view(), np.stack(list(reference)))

    def test_partial_buffer_shows_everything_seen(self):
        buffer = WindowBuffer(5)
        frames = [np.full((2, 2), float(i)) for i in range(3)]
        for frame in frames:
            buffer.push(frame)
        assert not buffer.full and buffer.n_seen == 3
        np.testing.assert_array_equal(buffer.view(), np.stack(frames))

    def test_view_is_zero_copy(self):
        buffer = WindowBuffer(4)
        for i in range(4):
            buffer.push(np.full((2, 2), float(i)))
        view = buffer.view()
        assert view.base is not None  # a slice of the storage, not a copy

    def test_empty_buffer_and_shape_mismatch_raise(self):
        buffer = WindowBuffer(3)
        with pytest.raises(ValueError, match="empty"):
            buffer.view()
        buffer.push(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="shape"):
            buffer.push(np.zeros((3, 2)))

    def test_nonpositive_window_is_rejected(self):
        with pytest.raises(ValueError):
            WindowBuffer(0)


class TestObserverTransparency:
    """Observed runs are bit-identical to unobserved ones (the engines' contract)."""

    def test_particle_system_frames_are_bit_identical(self):
        config = tiny_config()
        baseline = ParticleSystem(config, rng=3).run()
        observer = RecordingObserver()
        observed_system = ParticleSystem(config, rng=3)
        observed_system.add_observer(observer)
        observed = observed_system.run()
        np.testing.assert_array_equal(baseline.positions, observed.positions)
        assert observer.steps == list(range(config.n_steps + 1))
        np.testing.assert_array_equal(np.stack(observer.frames), observed.positions)

    def test_ensemble_trajectory_is_bit_identical(self, ensemble):
        observer = RecordingObserver()
        simulator = EnsembleSimulator(tiny_config(), 10, seed=7)
        simulator.add_observer(observer)
        observed = simulator.run()
        np.testing.assert_array_equal(ensemble.positions, observed.positions)
        assert observer.steps == list(range(tiny_config().n_steps + 1))

    def test_removed_observer_hears_nothing(self):
        observer = RecordingObserver()
        simulator = EnsembleSimulator(tiny_config(), 6, seed=1)
        simulator.add_observer(observer)
        simulator.remove_observer(observer)
        simulator.run()
        assert observer.steps == []

    def test_observer_frames_are_read_only(self):
        class Mutator:
            def on_step(self, step, positions):
                positions[0] = 0.0

        simulator = EnsembleSimulator(tiny_config(), 6, seed=1)
        simulator.add_observer(Mutator())
        with pytest.raises(ValueError, match="read-only"):
            simulator.run()

    def test_multi_batch_observed_run_is_refused(self):
        # Streaming needs the full (m, n, 2) snapshot per step; a batched
        # run would hand the observer per-batch slices.
        simulator = EnsembleSimulator(tiny_config(), 64, seed=1, bytes_budget=4096)
        simulator.add_observer(RecordingObserver())
        with pytest.raises(ValueError, match="one batch"):
            simulator.run()

    def test_ensemble_frames_match_the_recorded_trajectory(self, ensemble):
        observer = RecordingObserver()
        simulator = EnsembleSimulator(tiny_config(), 10, seed=7)
        simulator.add_observer(observer)
        simulator.run()
        np.testing.assert_array_equal(np.stack(observer.frames), ensemble.positions)

    def test_particle_system_frames_are_read_only(self):
        class Mutator:
            def on_step(self, step, positions):
                positions[0] = 0.0

        system = ParticleSystem(tiny_config(), rng=1)
        system.add_observer(Mutator())
        with pytest.raises(ValueError, match="read-only"):
            system.run()

    def test_particle_system_removed_observer_hears_nothing(self):
        observer = RecordingObserver()
        system = ParticleSystem(tiny_config(), rng=1)
        system.add_observer(observer)
        system.remove_observer(observer)
        system.run()
        assert observer.steps == []

    def test_a_second_particle_run_continues_the_step_count(self):
        # ``step`` counts the system's recorded steps, not the frames of one
        # run: the second run opens on the frame the first one ended with.
        n_steps = tiny_config().n_steps
        observer = RecordingObserver()
        system = ParticleSystem(tiny_config(), rng=2)
        system.add_observer(observer)
        first = system.run()
        second = system.run()
        assert observer.steps == list(range(n_steps + 1)) + list(range(n_steps, 2 * n_steps + 1))
        np.testing.assert_array_equal(observer.frames[n_steps + 1], first.final())
        np.testing.assert_array_equal(np.stack(observer.frames[n_steps + 1 :]), second.positions)

    def test_repeated_ensemble_runs_restart_at_step_zero(self, ensemble):
        # Every run draws from the simulator seed afresh, so an observed
        # simulator replays the same steps and frames each time.
        observer = RecordingObserver()
        simulator = EnsembleSimulator(tiny_config(), 10, seed=7)
        simulator.add_observer(observer)
        simulator.run()
        again = simulator.run()
        n_frames = tiny_config().n_steps + 1
        assert observer.steps == list(range(n_frames)) * 2
        np.testing.assert_array_equal(again.positions, ensemble.positions)
        np.testing.assert_array_equal(np.stack(observer.frames[n_frames:]), ensemble.positions)

    def test_unrecorded_particle_run_notifies_nothing(self):
        observer = RecordingObserver()
        system = ParticleSystem(tiny_config(), rng=1)
        system.add_observer(observer)
        final = system.run(record=False)
        assert final.n_steps == 1
        assert observer.steps == []

    @pytest.mark.parametrize("engine", ["single", "ensemble"])
    def test_only_recorded_frames_are_notified(self, engine):
        # With substeps > 1 the integrator takes several steps per recorded
        # frame; observers hear the recorded frames only.
        config = tiny_config(n_steps=4).with_updates(substeps=3)
        observer = RecordingObserver()
        if engine == "single":
            runner = ParticleSystem(config, rng=4)
        else:
            runner = EnsembleSimulator(config, 5, seed=4)
        runner.add_observer(observer)
        recorded = runner.run()
        assert observer.steps == list(range(config.n_steps + 1))
        np.testing.assert_array_equal(np.stack(observer.frames), recorded.positions)


class TestStreamingEquivalence:
    """Each emission equals the post-hoc estimator on the same window."""

    WINDOW = 4

    def _estimators(self, backend: str):
        return [
            StreamingMultiInformation(k=2, backend=backend),
            StreamingTransferEntropy(0, 1, history=1, k=2, backend=backend),
        ]

    def test_dense_emissions_are_bitwise_posthoc(self, ensemble):
        estimators = self._estimators("dense")
        stream = replay_ensemble(ensemble, estimators, window=self.WINDOW)
        assert len(stream) > 0
        by_name = {estimator.name: estimator for estimator in estimators}
        for row in stream.rows:
            reference = posthoc_window_value(
                by_name[row.metric], ensemble.positions, row.step, self.WINDOW
            )
            assert row.value == reference  # bitwise, not approximate

    def test_kdtree_emissions_are_bitwise_posthoc_and_near_dense(self, ensemble):
        kdtree_stream = replay_ensemble(
            ensemble, self._estimators("kdtree"), window=self.WINDOW
        )
        dense_stream = replay_ensemble(
            ensemble, self._estimators("dense"), window=self.WINDOW
        )
        by_name = {e.name: e for e in self._estimators("kdtree")}
        for row, dense_row in zip(kdtree_stream.rows, dense_stream.rows):
            reference = posthoc_window_value(
                by_name[row.metric], ensemble.positions, row.step, self.WINDOW
            )
            assert row.value == reference  # same backend: still bitwise
            assert (row.step, row.metric) == (dense_row.step, dense_row.metric)
            assert row.value == pytest.approx(dense_row.value, abs=1e-7)

    def test_live_run_equals_replay(self, ensemble):
        live = MetricsStream()
        monitor = InformationMonitor(
            self._estimators("dense"), window=self.WINDOW, stride=2, stream=live
        )
        simulator = EnsembleSimulator(tiny_config(), 10, seed=7)
        simulator.add_observer(monitor)
        simulator.run()
        replayed = replay_ensemble(
            ensemble, self._estimators("dense"), window=self.WINDOW, stride=2
        )
        assert [(r.step, r.metric, r.value) for r in live.rows] == [
            (r.step, r.metric, r.value) for r in replayed.rows
        ]
        assert monitor.n_emissions == len(live.rows) // 2  # two estimators

    def test_stride_rations_the_emissions(self, ensemble):
        # 7 recorded frames, window 4 -> full at steps 3..6; stride 3 emits
        # at steps 3 and 6 only.
        stream = replay_ensemble(
            ensemble, [StreamingMultiInformation(k=2)], window=4, stride=3
        )
        assert [row.step for row in stream.rows] == [3, 6]

    def test_window_never_filling_emits_nothing(self, ensemble):
        stream = replay_ensemble(
            ensemble, [StreamingMultiInformation(k=2)], window=ensemble.n_steps + 1
        )
        assert len(stream) == 0

    def test_te_rejects_a_window_shorter_than_history(self, ensemble):
        estimator = StreamingTransferEntropy(0, 1, history=3, k=2)
        with pytest.raises(ValueError, match="history"):
            estimator.compute(np.asarray(ensemble.positions[:3], dtype=float))

    def test_te_rejects_identical_source_and_target(self):
        with pytest.raises(ValueError, match="source"):
            StreamingTransferEntropy(2, 2)

    def test_monitor_validates_its_arguments(self):
        with pytest.raises(ValueError, match="at least one"):
            InformationMonitor([], window=4)
        with pytest.raises(ValueError, match="stride"):
            InformationMonitor([StreamingMultiInformation()], window=4, stride=0)


class TestMetricsStream:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        with MetricsStream(path=path) as stream:
            stream.record(step=3, window=4, metric="mi", value=1.5, wall_ms=0.25)
            stream.record(step=4, window=4, metric="te", value=0.5, wall_ms=0.5)
        assert MetricsStream.load(path) == stream.rows
        assert path.read_text() == stream.to_jsonl()
        for line in path.read_text().splitlines():
            row = json.loads(line)
            assert set(row) == {"step", "window", "metric", "value", "wall_ms"}

    def test_values_and_metric_order(self):
        stream = MetricsStream()
        stream.record(step=1, window=2, metric="b", value=1.0, wall_ms=0.1)
        stream.record(step=1, window=2, metric="a", value=2.0, wall_ms=0.1)
        stream.record(step=2, window=2, metric="b", value=3.0, wall_ms=0.1)
        assert stream.metrics() == ["b", "a"]  # first-emission order
        assert stream.values("b") == [1.0, 3.0]
        assert len(stream) == 3

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            MetricsStream.parse("{ not json\n")

    def test_row_is_immutable(self):
        row = MetricRow(step=1, window=2, metric="mi", value=1.0, wall_ms=0.1)
        with pytest.raises(AttributeError):
            row.value = 2.0


class TestMetricsArtifacts:
    """The finished stream persists next to the unit in both store backends."""

    HASH = "ab" * 32
    PAYLOAD = '{"metric": "mi", "step": 3, "value": 1.5, "wall_ms": 0.2, "window": 4}\n'

    @pytest.fixture(params=["filesystem", "http"])
    def store(self, request, tmp_path):
        from repro.io.artifacts import RunStore

        if request.param == "filesystem":
            yield RunStore(tmp_path / "store")
            return
        from repro.io.remote import open_store
        from repro.io.service import serve_store

        server = serve_store(tmp_path / "store", port=0)
        thread = server.serve_in_background()
        yield open_store(server.url)
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)

    def test_round_trip_and_overwrite_semantics(self, store):
        from repro.io.artifacts import RunStoreError

        assert not store.has_metrics(self.HASH)
        with pytest.raises(RunStoreError, match="no metrics artifact"):
            store.load_metrics(self.HASH)
        store.save_metrics(self.HASH, self.PAYLOAD)
        assert store.has_metrics(self.HASH)
        assert store.load_metrics(self.HASH) == self.PAYLOAD
        # Default save overwrites (wall times are volatile)...
        store.save_metrics(self.HASH, self.PAYLOAD * 2)
        assert store.load_metrics(self.HASH) == self.PAYLOAD * 2
        # ...but overwrite=False keeps the existing stream.
        store.save_metrics(self.HASH, self.PAYLOAD, overwrite=False)
        assert store.load_metrics(self.HASH) == self.PAYLOAD * 2

    def test_metrics_stay_out_of_keys_and_orphan_sweep(self, tmp_path):
        from repro.io.artifacts import RunStore

        store = RunStore(tmp_path / "store")
        store.save_metrics(self.HASH, self.PAYLOAD)
        assert store.keys() == []
        assert store.orphaned_files(min_age_seconds=0.0) == []
        assert store.sweep_orphans(min_age_seconds=0.0) == []
        assert store.has_metrics(self.HASH)
