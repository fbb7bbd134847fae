"""Tests for the persisted benchmark trajectory (benchmarks/trajectory.py).

The module under test lives next to the benchmarks (it is not part of the
``repro`` package — it must stay importable by a bare ``pytest benchmarks``
run and as a standalone script), so it is imported off the benchmarks
directory directly.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

import trajectory
from trajectory import (
    TrajectoryError,
    compare_run,
    gateable_headline,
    load_trajectory,
    record_run,
    runs_from_benchmark_report,
    trajectory_path,
)

MACHINE = "test-machine-a"
# Both series are large enough that a 2x slowdown clears the default
# absolute noise floor — the floor itself is pinned separately below.
SERIES = {"single/n1000/dense": 0.200, "single/n1000/sparse-cell": 0.080}


def record_baseline(root, series=SERIES, *, area="engine", mode="quick", machine=MACHINE, **kw):
    return record_run(area, series, mode=mode, root=root, machine=machine, **kw)


class TestRecord:
    def test_record_creates_a_valid_trajectory_file(self, tmp_path):
        path = record_baseline(tmp_path, commit="abc123", date="2026-08-07T00:00:00Z")
        assert path == trajectory_path("engine", tmp_path) == tmp_path / "BENCH_engine.json"
        document = load_trajectory(path)
        assert document["format"] == "repro-bench-trajectory"
        assert document["area"] == "engine"
        (run,) = document["runs"]
        assert run["commit"] == "abc123" and run["date"] == "2026-08-07T00:00:00Z"
        assert run["machine"] == MACHINE and run["mode"] == "quick"
        assert run["series"] == SERIES

    def test_record_is_append_only(self, tmp_path):
        record_baseline(tmp_path, commit="first")
        record_baseline(tmp_path, {"single/n1000/dense": 0.3}, commit="second")
        runs = load_trajectory(trajectory_path("engine", tmp_path))["runs"]
        assert [run["commit"] for run in runs] == ["first", "second"]
        assert runs[0]["series"] == SERIES  # earlier history preserved verbatim

    def test_record_headline_is_stored_but_not_required(self, tmp_path):
        record_baseline(tmp_path, headline={"n1000_speedup": 21.0})
        (run,) = load_trajectory(trajectory_path("engine", tmp_path))["runs"]
        assert run["headline"] == {"n1000_speedup": 21.0}

    def test_record_leaves_no_temporaries(self, tmp_path):
        record_baseline(tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["BENCH_engine.json"]

    def test_unknown_area_is_rejected(self, tmp_path):
        with pytest.raises(TrajectoryError, match="unknown benchmark area"):
            record_run("warp", SERIES, mode="quick", root=tmp_path)

    def test_empty_and_nonpositive_series_are_rejected(self, tmp_path):
        with pytest.raises(TrajectoryError, match="at least one series"):
            record_baseline(tmp_path, {})
        with pytest.raises(TrajectoryError, match="positive wall time"):
            record_baseline(tmp_path, {"bad": 0.0})
        with pytest.raises(TrajectoryError, match="positive wall time"):
            record_baseline(tmp_path, {"bad": float("nan")})

    def test_corrupt_trajectory_file_raises(self, tmp_path):
        trajectory_path("engine", tmp_path).write_text("{ not json")
        with pytest.raises(TrajectoryError, match="corrupt trajectory file"):
            record_baseline(tmp_path)

    def test_commit_is_marked_dirty_only_by_uncommitted_code(self, tmp_path):
        git = shutil.which("git")
        if git is None:
            pytest.skip("git is not installed")

        def run_git(*args):
            subprocess.run(
                [git, "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t", *args],
                check=True,
                capture_output=True,
            )

        run_git("init", "-q")
        (tmp_path / "kernel.py").write_text("x = 1\n")
        record_baseline(tmp_path, commit="seed")
        run_git("add", ".")
        run_git("commit", "-q", "-m", "seed")
        clean = trajectory.current_commit(tmp_path)
        assert len(clean) == 12 and not clean.endswith("-dirty")
        # Recording into the trajectory files does not dirty the tree ...
        record_baseline(tmp_path, commit="second")
        assert trajectory.current_commit(tmp_path) == clean
        # ... an uncommitted change to the code does.
        (tmp_path / "kernel.py").write_text("x = 2\n")
        assert trajectory.current_commit(tmp_path) == f"{clean}-dirty"


class TestRecordMedian:
    """Several runs of one invocation pooled into one representative baseline."""

    def _record_runs(self, source, values, **kw):
        for dense, ratio in values:
            record_baseline(
                source,
                {"single/n1000/dense": dense, "single/n1000/sparse-cell": 0.08},
                headline={"n1000_speedup": ratio, "pooled_samples": 400},
                **kw,
            )

    def test_appends_the_per_series_and_per_ratio_median(self, tmp_path):
        source, root = tmp_path / "runs", tmp_path / "root"
        source.mkdir()
        root.mkdir()
        record_baseline(root, commit="earlier")
        self._record_runs(source, [(0.30, 9.0), (0.20, 14.0), (0.25, 10.0)])
        path = trajectory.record_median_run("engine", source, mode="quick", root=root)
        runs = load_trajectory(path)["runs"]
        assert [run["commit"] for run in runs][0] == "earlier"  # appended, not replaced
        pooled = runs[-1]
        assert pooled["series"] == {"single/n1000/dense": 0.25, "single/n1000/sparse-cell": 0.08}
        assert pooled["headline"] == {
            "n1000_speedup": 10.0,
            "pooled_samples": 400,
            "median_of_runs": 3,
        }
        assert pooled["machine"] == MACHINE and pooled["mode"] == "quick"

    def test_only_runs_of_the_mode_are_pooled(self, tmp_path):
        self._record_runs(tmp_path, [(0.30, 9.0)], mode="full")
        assert trajectory.record_median_run("engine", tmp_path, mode="quick", root=tmp_path) is None

    def test_runs_from_different_machines_are_refused(self, tmp_path):
        self._record_runs(tmp_path, [(0.30, 9.0)])
        self._record_runs(tmp_path, [(0.20, 14.0)], machine="test-machine-b")
        with pytest.raises(TrajectoryError, match="mixes runs from machines"):
            trajectory.record_median_run("engine", tmp_path, mode="quick", root=tmp_path)

    def test_cli_records_every_area_found(self, tmp_path, capsys):
        source = tmp_path / "runs"
        source.mkdir()
        self._record_runs(source, [(0.30, 9.0), (0.20, 14.0)])
        argv = ["record-median", "--from", str(source), "--mode", "quick", "--root", str(tmp_path)]
        assert trajectory.main(argv) == 0
        (run,) = load_trajectory(trajectory_path("engine", tmp_path))["runs"]
        assert run["series"]["single/n1000/dense"] == pytest.approx(0.25)
        assert "recorded the median run" in capsys.readouterr().out
        assert trajectory.main([*argv[:4], "full", *argv[5:]]) == 1


class TestCompare:
    def test_round_trip_passes(self, tmp_path):
        record_baseline(tmp_path)
        report = compare_run("engine", SERIES, mode="quick", root=tmp_path, machine=MACHINE)
        assert report.gated and report.ok and report.regressions == []
        assert {entry.status for entry in report.entries} == {"ok"}

    def test_two_times_slowdown_fails_with_readable_report(self, tmp_path):
        # The deliberately-regressed fixture: every recorded series slowed 2x
        # must fail compare with a per-series report naming the culprit.
        record_baseline(tmp_path)
        slowed = {name: seconds * 2.0 for name, seconds in SERIES.items()}
        report = compare_run("engine", slowed, mode="quick", root=tmp_path, machine=MACHINE)
        assert report.gated and not report.ok
        assert {entry.name for entry in report.regressions} == set(SERIES)
        text = report.format()
        assert "REGRESSION" in text and "single/n1000/dense" in text
        assert "×" in text and "--bench-record" in text  # ratio + update path

    def test_single_regressed_series_is_enough_to_fail(self, tmp_path):
        record_baseline(tmp_path)
        slowed = dict(SERIES, **{"single/n1000/sparse-cell": SERIES["single/n1000/sparse-cell"] * 2})
        report = compare_run("engine", slowed, mode="quick", root=tmp_path, machine=MACHINE)
        assert not report.ok
        assert [entry.name for entry in report.regressions] == ["single/n1000/sparse-cell"]

    def test_noise_floor_absorbs_tiny_absolute_jitter(self, tmp_path):
        # 3x ratio but only 2 ms absolute: below the default floor, quick-mode
        # jitter of that shape must not flap the gate.
        record_baseline(tmp_path, {"tiny": 0.001})
        report = compare_run("engine", {"tiny": 0.003}, mode="quick", root=tmp_path, machine=MACHINE)
        assert report.ok
        (entry,) = report.entries
        assert entry.status == "within-noise"
        # ... while the same ratio above the floor is a real regression.
        record_baseline(tmp_path, {"big": 0.1}, area="domain")
        report = compare_run("domain", {"big": 0.3}, mode="quick", root=tmp_path, machine=MACHINE)
        assert not report.ok

    def test_threshold_is_configurable(self, tmp_path):
        record_baseline(tmp_path)
        slowed = {name: seconds * 1.5 for name, seconds in SERIES.items()}
        strict = compare_run(
            "engine", slowed, mode="quick", root=tmp_path, machine=MACHINE, threshold=1.4
        )
        lenient = compare_run(
            "engine", slowed, mode="quick", root=tmp_path, machine=MACHINE, threshold=2.0
        )
        assert not strict.ok and lenient.ok
        with pytest.raises(TrajectoryError, match="threshold"):
            compare_run("engine", SERIES, mode="quick", root=tmp_path, threshold=1.0)

    def test_improvement_and_new_and_missing_series_pass(self, tmp_path):
        record_baseline(tmp_path)
        current = {
            "single/n1000/dense": SERIES["single/n1000/dense"] / 4.0,  # faster
            "single/n5000/dense": 1.0,  # new series (e.g. widened sweep)
            # sparse-cell missing (e.g. narrowed sweep)
        }
        report = compare_run("engine", current, mode="quick", root=tmp_path, machine=MACHINE)
        assert report.ok
        statuses = {entry.name: entry.status for entry in report.entries}
        assert statuses == {
            "single/n1000/dense": "ok",
            "single/n5000/dense": "new",
            "single/n1000/sparse-cell": "missing",
        }

    def test_no_baseline_passes_vacuously_and_says_so(self, tmp_path):
        report = compare_run("engine", SERIES, mode="quick", root=tmp_path, machine=MACHINE)
        assert report.ok and not report.gated and report.baseline is None
        assert "no recorded 'quick' baseline" in report.format()

    def test_modes_have_independent_baselines(self, tmp_path):
        record_baseline(tmp_path, mode="full")
        report = compare_run(
            "engine",
            {name: seconds * 10 for name, seconds in SERIES.items()},
            mode="quick",
            root=tmp_path,
            machine=MACHINE,
        )
        assert report.ok and report.baseline is None  # full runs never gate quick runs

    def test_machine_mismatch_downgrades_the_gate_to_advisory(self, tmp_path):
        record_baseline(tmp_path, machine="some-other-box")
        slowed = {name: seconds * 10 for name, seconds in SERIES.items()}
        report = compare_run("engine", slowed, mode="quick", root=tmp_path, machine=MACHINE)
        assert not report.gated
        assert report.ok  # wall times don't transfer across machines
        assert report.regressions  # ... but the slowdown is still reported
        assert "ADVISORY" in report.format()

    def test_gate_prefers_the_latest_same_machine_baseline(self, tmp_path):
        record_baseline(tmp_path, machine=MACHINE)
        # A newer run from another machine must not shadow the enforced one.
        record_baseline(
            tmp_path,
            {name: seconds / 100 for name, seconds in SERIES.items()},
            machine="beefy-ci-box",
        )
        report = compare_run("engine", SERIES, mode="quick", root=tmp_path, machine=MACHINE)
        assert report.gated and report.ok
        assert report.baseline["machine"] == MACHINE

    def test_empty_baseline_series_reports_an_advisory_instead_of_crashing(self, tmp_path):
        # record_run refuses to write an empty series, but a hand-edited or
        # truncated trajectory can still carry one; compare must survive it
        # and say plainly that nothing was gated.
        document = {
            "format": "repro-bench-trajectory",
            "version": 1,
            "area": "engine",
            "runs": [
                {
                    "commit": "deadbeef",
                    "date": "2026-08-07T00:00:00Z",
                    "machine": MACHINE,
                    "mode": "quick",
                    "series": {},
                    "headline": {},
                }
            ],
        }
        trajectory_path("engine", tmp_path).write_text(json.dumps(document))
        report = compare_run("engine", SERIES, mode="quick", root=tmp_path, machine=MACHINE)
        assert report.ok  # nothing comparable, so nothing can regress ...
        assert {entry.status for entry in report.entries} == {"new"}
        text = report.format()
        assert "ADVISORY" in text and "carries no series" in text  # ... but it is loud
        assert "--bench-record" in text  # and says how to repair the trajectory

    def test_machine_fingerprint_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_MACHINE", "pinned-label")
        assert trajectory.machine_fingerprint() == "pinned-label"
        record_baseline(tmp_path, machine="pinned-label")
        # compare_run derives the fingerprint from the env when not given.
        report = compare_run("engine", SERIES, mode="quick", root=tmp_path)
        assert report.gated and report.ok


class TestHeadlineGate:
    """The speedup/ratio headline numbers are gated machine-independently."""

    HEADLINE = {"shared_kdtree_speedup": 10.0, "pooled_samples": 4000}

    def test_gateable_headline_selects_ratio_like_numeric_keys(self):
        assert gateable_headline(
            {
                "shared_kdtree_speedup": 10.0,
                "cell_RATIO": 3,  # case-insensitive match, int accepted
                "pooled_samples": 4000,  # not ratio-like
                "speedup_claimed": True,  # bool is not a ratio
                "speedup_label": "10x",  # nor is a string
                "inf_speedup": float("inf"),  # unusable as a baseline
                "negative_ratio": -2.0,
            }
        ) == {"shared_kdtree_speedup": 10.0, "cell_RATIO": 3.0}
        assert gateable_headline(None) == {}

    def test_round_trip_headline_passes(self, tmp_path):
        record_baseline(tmp_path, headline=self.HEADLINE)
        report = compare_run(
            "engine", SERIES, mode="quick", root=tmp_path, machine=MACHINE,
            headline=self.HEADLINE,
        )
        assert report.ok
        (entry,) = report.headline_entries  # pooled_samples is not gated
        assert entry.name == "shared_kdtree_speedup" and entry.status == "ok"

    def test_collapsed_speedup_fails_even_across_machines(self, tmp_path):
        # The wall-time gate is advisory across machines, but a speedup is a
        # ratio of two timings from one box — its collapse must fail anywhere.
        record_baseline(tmp_path, machine="some-other-box", headline=self.HEADLINE)
        report = compare_run(
            "engine", SERIES, mode="quick", root=tmp_path, machine=MACHINE,
            headline={"shared_kdtree_speedup": 2.0},
        )
        assert not report.gated  # wall-time gate: advisory
        assert not report.ok  # headline gate: enforced regardless
        (entry,) = report.headline_regressions
        assert entry.name == "shared_kdtree_speedup"
        text = report.format()
        assert "REGRESSION" in text and "shared_kdtree_speedup" in text

    def test_noise_floor_absorbs_small_ratio_drops(self, tmp_path):
        # 1.2 -> 0.75 breaches the /1.5 threshold but only drops 0.45 < 0.5.
        record_baseline(tmp_path, headline={"x_ratio": 1.2})
        report = compare_run(
            "engine", SERIES, mode="quick", root=tmp_path, machine=MACHINE,
            headline={"x_ratio": 0.75},
        )
        assert report.ok
        (entry,) = report.headline_entries
        assert entry.status == "within-noise"

    def test_new_and_missing_headline_keys_pass(self, tmp_path):
        record_baseline(tmp_path, headline={"old_speedup": 5.0})
        report = compare_run(
            "engine", SERIES, mode="quick", root=tmp_path, machine=MACHINE,
            headline={"new_speedup": 3.0},
        )
        assert report.ok
        statuses = {entry.name: entry.status for entry in report.headline_entries}
        assert statuses == {"new_speedup": "new", "old_speedup": "missing"}

    def test_headline_baseline_skips_runs_without_gateable_values(self, tmp_path):
        # A record pass that omitted extra_info must not reset the baseline.
        record_baseline(tmp_path, headline=self.HEADLINE, commit="with-headline")
        record_baseline(tmp_path, headline={"pooled_samples": 4000}, commit="without")
        report = compare_run(
            "engine", SERIES, mode="quick", root=tmp_path, machine=MACHINE,
            headline={"shared_kdtree_speedup": 2.0},
        )
        assert report.headline_baseline["commit"] == "with-headline"
        assert not report.ok

    def test_no_headline_given_keeps_the_old_behaviour(self, tmp_path):
        record_baseline(tmp_path, headline=self.HEADLINE)
        report = compare_run("engine", SERIES, mode="quick", root=tmp_path, machine=MACHINE)
        assert report.ok and report.headline_entries == []

    def test_headline_threshold_and_floor_are_validated(self, tmp_path):
        record_baseline(tmp_path, headline=self.HEADLINE)
        with pytest.raises(TrajectoryError, match="headline threshold"):
            compare_run("engine", SERIES, mode="quick", root=tmp_path,
                        headline=self.HEADLINE, headline_threshold=1.0)
        with pytest.raises(TrajectoryError, match="headline noise floor"):
            compare_run("engine", SERIES, mode="quick", root=tmp_path,
                        headline=self.HEADLINE, headline_noise_floor=-0.1)

    def test_cli_compare_fails_on_a_headline_regression(self, tmp_path, monkeypatch, capsys):
        # Identical wall times, collapsed speedup: only the headline gate
        # can catch this, and it must flip the CLI exit code.
        monkeypatch.setenv("REPRO_BENCH_MACHINE", MACHINE)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(make_report()))
        assert trajectory.main(
            ["record", "--report", str(baseline), "--mode", "quick", "--root", str(tmp_path)]
        ) == 0
        regressed = tmp_path / "regressed.json"
        regressed.write_text(json.dumps(make_report(headline_scale=0.2)))
        code = trajectory.main(
            ["compare", "--report", str(regressed), "--mode", "quick", "--root", str(tmp_path)]
        )
        assert code == 1
        assert "headline" in capsys.readouterr().out


def make_report(scale: float = 1.0, headline_scale: float = 1.0) -> dict:
    def bench(name, seconds, extra):
        extra = {key: value * headline_scale for key, value in extra.items()}
        return {"name": name, "stats": {"min": seconds * scale}, "extra_info": extra}

    return {
        "benchmarks": [
            bench("test_engine_scaling", 1.2, {"n1000_speedup": 21.0}),
            bench("test_domain_density", 0.8, {"L150_cell_speedup": 8.6}),
            bench("test_infodynamics_scaling", 2.5, {"shared_kdtree_speedup": 3.9}),
            bench("test_fig05_single_type_f1", 9.9, {}),  # unmapped: ignored
        ]
    }


class TestBenchmarkReportNormalisation:
    def test_maps_the_three_areas_and_ignores_figure_benchmarks(self):
        per_area = runs_from_benchmark_report(make_report())
        assert set(per_area) == {"engine", "domain", "infodynamics"}
        assert per_area["engine"]["series"] == {"pytest/test_engine_scaling/min": 1.2}
        assert per_area["engine"]["headline"] == {"n1000_speedup": 21.0}

    def test_cli_record_then_compare_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_MACHINE", MACHINE)
        report_path = tmp_path / "benchmark_report.json"
        report_path.write_text(json.dumps(make_report()))
        argv = ["--report", str(report_path), "--mode", "quick", "--root", str(tmp_path)]
        assert trajectory.main(["record", *argv]) == 0
        for area in trajectory.AREAS:
            assert trajectory_path(area, tmp_path).is_file()
        assert trajectory.main(["compare", *argv]) == 0

    def test_cli_compare_fails_on_a_regressed_report(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_BENCH_MACHINE", MACHINE)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(make_report()))
        assert trajectory.main(
            ["record", "--report", str(baseline), "--mode", "quick", "--root", str(tmp_path)]
        ) == 0
        regressed = tmp_path / "regressed.json"
        regressed.write_text(json.dumps(make_report(scale=2.0)))
        code = trajectory.main(
            ["compare", "--report", str(regressed), "--mode", "quick", "--root", str(tmp_path)]
        )
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_cli_show_lists_recorded_runs(self, tmp_path, capsys):
        record_baseline(tmp_path, commit="abc123")
        assert trajectory.main(["show", "--area", "engine", "--root", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "1 recorded run(s)" in out and "abc123" in out


class TestCommittedTrajectories:
    """The seeded repo-root BENCH files must stay loadable and comparable."""

    @pytest.mark.parametrize("area", trajectory.AREAS)
    def test_committed_file_has_a_quick_baseline(self, area):
        path = trajectory_path(area)
        assert path.is_file(), f"missing committed trajectory {path.name}"
        document = load_trajectory(path)
        assert document["area"] == area
        baseline = trajectory.latest_baseline(document, mode="quick")
        assert baseline is not None, f"{path.name} has no recorded quick-mode run"
        assert baseline["series"], f"{path.name} quick baseline records no series"
