"""Persisted benchmark trajectory with regression gating.

Every speed claim this repo makes (sparse vs dense drift, the wrapped cell
list, the shared-embedding information-dynamics plan) used to live only in
commit messages: CI uploaded a ``--benchmark-json`` artifact that nothing
ever compared.  This module gives the benchmarks a *recorded trajectory* —
three append-only JSON files at the repo root, one per benchmark area::

    BENCH_engine.json          bench_engine_scaling.py
    BENCH_domain.json          bench_domain_density.py
    BENCH_infodynamics.json    bench_infodynamics.py

Each file holds a list of runs keyed by commit, date and a machine
fingerprint.  A run carries two kinds of numbers:

* ``series`` — stable-keyed wall times in seconds (e.g.
  ``single/n1000/sparse-cell``).  These are what the regression gate
  compares.
* ``headline`` — the benchmark's ``extra_info`` headline numbers (speedup
  ratios etc.).  The *ratio-like* keys — numeric values whose name contains
  ``speedup`` or ``ratio`` — are gated too, with their own threshold:
  a headline regresses when it drops below ``baseline / headline_threshold``
  *and* by more than an absolute ``headline noise floor``.  Ratios are
  dimensionless and machine-independent (both sides of a speedup ran on the
  same box), so the headline gate always fails the run — even when the
  wall-time gate is only advisory because the baseline machine differs.
  Other headline keys (sample counts, parameters) stay record-only.

``compare_run`` checks a fresh measurement against the most recent recorded
baseline with the same mode (``quick``/``full``): a series regresses when it
is *both* slower than ``threshold`` × baseline *and* slower by more than the
absolute ``noise floor`` — sub-millisecond ``--bench-quick`` timings jitter
by large ratios, and the floor keeps that from flapping the gate.  Wall
times only transfer between identical machines, so the wall-time gate is
**enforced** when the baseline's machine fingerprint matches the current one
and **advisory** (reported, never failing) otherwise; set
``REPRO_BENCH_MACHINE`` to pin the fingerprint to a stable label (e.g. in
CI).

The pytest wiring lives in ``benchmarks/conftest.py`` (``--bench-record`` /
``--bench-compare``).  This module is also a standalone tool that normalises
a pytest-benchmark ``--benchmark-json`` report into the same trajectory::

    python benchmarks/trajectory.py record  --report benchmarks/output/benchmark_report.json --mode quick
    python benchmarks/trajectory.py compare --report benchmarks/output/benchmark_report.json --mode quick
    python benchmarks/trajectory.py show    --area engine

To legitimately move a baseline (an accepted slowdown, a new machine), re-run
the benchmarks with ``--bench-record`` and commit the updated ``BENCH_*.json``.
On a shared machine, record several runs into a scratch directory and
append their median instead (``record-median``; README "Benchmark
trajectory")::

    python benchmarks/trajectory.py record-median --from benchmarks/output/runs --mode quick
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

__all__ = [
    "AREAS",
    "DEFAULT_THRESHOLD",
    "DEFAULT_NOISE_FLOOR_SECONDS",
    "DEFAULT_HEADLINE_THRESHOLD",
    "DEFAULT_HEADLINE_NOISE_FLOOR",
    "ComparisonReport",
    "HeadlineComparison",
    "SeriesComparison",
    "TrajectoryError",
    "compare_run",
    "gateable_headline",
    "load_trajectory",
    "machine_fingerprint",
    "record_median_run",
    "record_run",
    "runs_from_benchmark_report",
    "trajectory_path",
]

#: The benchmark areas with a persisted trajectory at the repo root.
AREAS = ("engine", "domain", "infodynamics")

#: A series regresses when current > threshold * baseline ...
DEFAULT_THRESHOLD = 1.25
#: ... *and* current - baseline > this floor.  Short ``--bench-quick`` series
#: (sub-millisecond up to tens of milliseconds) jitter by ratios well past
#: any sane threshold under scheduler/cache noise alone; the absolute floor
#: keeps those from flapping while a genuine 2x slowdown of the substantial
#: series (hundreds of milliseconds and up) still trips the gate.
DEFAULT_NOISE_FLOOR_SECONDS = 0.025

#: A headline ratio regresses when current < baseline / this threshold ...
#: (higher is better for speedups, the opposite sense of the wall-time gate).
DEFAULT_HEADLINE_THRESHOLD = 1.5
#: ... *and* baseline - current > this absolute floor.  A 27x speedup
#: wobbling to 26.1x is noise; a 1.4x claim decaying to 0.9x is not, and the
#: 0.5 floor keeps small-ratio regressions like that visible while absorbing
#: run-to-run jitter near 1x.
DEFAULT_HEADLINE_NOISE_FLOOR = 0.5

#: pytest-benchmark test name (bracket-stripped) -> trajectory area, used by
#: :func:`runs_from_benchmark_report` to normalise a ``--benchmark-json``
#: report into the same per-area files the fixture path writes.
BENCHMARK_AREAS = {
    "test_engine_scaling": "engine",
    "test_domain_density": "domain",
    "test_infodynamics_scaling": "infodynamics",
}

REPO_ROOT = Path(__file__).resolve().parent.parent
FORMAT = "repro-bench-trajectory"
FORMAT_VERSION = 1


class TrajectoryError(RuntimeError):
    """A trajectory file is malformed, or an area/series input is invalid."""


# ---------------------------------------------------------------------------
# run identity
# ---------------------------------------------------------------------------

def machine_fingerprint() -> str:
    """Stable identifier of the timing environment.

    Wall times only transfer between identical machines, so the regression
    gate is scoped to runs with an equal fingerprint.  ``REPRO_BENCH_MACHINE``
    overrides the derived value — useful to pin a label on CI runners whose
    hostnames rotate but whose hardware class is constant.
    """
    override = os.environ.get("REPRO_BENCH_MACHINE")
    if override:
        return override
    return (
        f"{platform.system().lower()}-{platform.machine()}"
        f"-{platform.python_implementation().lower()}"
        f"{sys.version_info.major}{sys.version_info.minor}"
        f"-cpu{os.cpu_count()}"
    )


def current_commit(root: Path | None = None) -> str:
    """Short commit hash of the repo (``unknown`` outside a git checkout).

    ``-dirty`` is appended when tracked files other than the ``BENCH_*.json``
    trajectories differ from that commit: a run recorded before its change
    is committed must not pass for a run of the commit it started from.
    """
    root = str(root or REPO_ROOT)
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "--short=12", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode != 0 or not out.stdout.strip():
            return "unknown"
        diff = subprocess.run(
            ["git", "-C", root, "diff", "--quiet", "HEAD", "--", ".", ":(exclude)BENCH_*.json"],
            capture_output=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    commit = out.stdout.strip()
    return f"{commit}-dirty" if diff.returncode == 1 else commit


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


# ---------------------------------------------------------------------------
# trajectory files
# ---------------------------------------------------------------------------

def trajectory_path(area: str, root: str | Path | None = None) -> Path:
    """Path of an area's trajectory file (``BENCH_<area>.json`` at the root)."""
    if area not in AREAS:
        raise TrajectoryError(f"unknown benchmark area {area!r}; expected one of {AREAS}")
    return Path(root or REPO_ROOT) / f"BENCH_{area}.json"


def load_trajectory(path: str | Path) -> dict[str, Any]:
    """Read a trajectory document, validating format and shape."""
    path = Path(path)
    try:
        document = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise TrajectoryError(f"corrupt trajectory file {path}: {exc}") from exc
    if not isinstance(document, dict) or document.get("format") != FORMAT:
        raise TrajectoryError(f"{path} is not a {FORMAT} document")
    if not isinstance(document.get("runs"), list):
        raise TrajectoryError(f"{path} has no 'runs' list")
    return document


def _empty_trajectory(area: str) -> dict[str, Any]:
    return {"format": FORMAT, "version": FORMAT_VERSION, "area": area, "runs": []}


def _validate_series(series: Mapping[str, float]) -> dict[str, float]:
    if not series:
        raise TrajectoryError("a recorded run needs at least one series")
    out: dict[str, float] = {}
    for name, seconds in series.items():
        value = float(seconds)
        if not value > 0.0:  # also rejects NaN
            raise TrajectoryError(f"series {name!r} must be a positive wall time, got {seconds!r}")
        out[str(name)] = value
    return out


def record_run(
    area: str,
    series: Mapping[str, float],
    *,
    mode: str,
    root: str | Path | None = None,
    headline: Mapping[str, Any] | None = None,
    machine: str | None = None,
    commit: str | None = None,
    date: str | None = None,
) -> Path:
    """Append one run to the area's trajectory file; returns the path written.

    The file is append-only by construction: existing runs are preserved
    verbatim, and the write is atomic (temp + rename) so a crash never
    truncates the recorded history.
    """
    path = trajectory_path(area, root)
    document = load_trajectory(path) if path.is_file() else _empty_trajectory(area)
    if document.get("area") != area:
        raise TrajectoryError(f"{path} records area {document.get('area')!r}, not {area!r}")
    run = {
        "commit": commit if commit is not None else current_commit(),
        "date": date if date is not None else _utc_now(),
        "machine": machine if machine is not None else machine_fingerprint(),
        "mode": str(mode),
        "series": _validate_series(series),
        "headline": dict(headline) if headline else {},
    }
    document["runs"].append(run)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return path


def record_median_run(
    area: str, source: str | Path, *, mode: str, root: str | Path | None = None
) -> Path | None:
    """Append one run holding the per-series median of the ``mode`` runs in ``source``.

    ``source`` is a scratch directory that several runs of one invocation
    were recorded into (``--bench-record --bench-trajectory-dir``).  On a
    shared machine one run can fall in a fast or a slow phase of the host,
    and the gate holds every later run to the baseline; the median of
    several runs is the usual speed.  Series and gateable headline ratios
    are medians; other headline keys come from the last run, plus
    ``median_of_runs``.  Returns ``None`` when ``source`` has no such run.
    """
    path = trajectory_path(area, source)
    if not path.is_file():
        return None
    runs = [run for run in load_trajectory(path)["runs"] if run.get("mode") == mode]
    if not runs:
        return None
    machines = {run.get("machine") for run in runs}
    if len(machines) != 1:
        raise TrajectoryError(f"{path} mixes runs from machines {sorted(machines)}")
    names = set.intersection(*(set(run.get("series", {})) for run in runs))
    series = {name: statistics.median(run["series"][name] for run in runs) for name in names}
    headline = dict(runs[-1].get("headline") or {})
    ratios = [gateable_headline(run.get("headline")) for run in runs]
    for name in set.intersection(*(set(values) for values in ratios)):
        headline[name] = round(statistics.median(values[name] for values in ratios), 2)
    headline["median_of_runs"] = len(runs)
    return record_run(
        area, series, mode=mode, root=root, headline=headline, machine=machines.pop()
    )


def latest_baseline(
    document: Mapping[str, Any], *, mode: str, machine: str | None = None
) -> dict[str, Any] | None:
    """Most recent recorded run with this mode (and machine, if given)."""
    for run in reversed(document.get("runs", [])):
        if run.get("mode") != mode:
            continue
        if machine is not None and run.get("machine") != machine:
            continue
        return run
    return None


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

def gateable_headline(headline: Mapping[str, Any] | None) -> dict[str, float]:
    """The ratio-like subset of a headline block: what the headline gate sees.

    A key is gateable when its name contains ``speedup`` or ``ratio``
    (case-insensitive) and its value is a finite positive number — those are
    the higher-is-better, machine-independent claims.  Everything else
    (sample counts, parameters, booleans) is context, recorded but not gated.
    """
    out: dict[str, float] = {}
    for name, value in (headline or {}).items():
        lowered = str(name).lower()
        if "speedup" not in lowered and "ratio" not in lowered:
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        value = float(value)
        if value > 0.0 and value != float("inf"):
            out[str(name)] = value
    return out


@dataclass(frozen=True)
class HeadlineComparison:
    """One headline ratio of the current run measured against the baseline.

    Unlike :class:`SeriesComparison` these are higher-is-better numbers: the
    ``ratio`` property is current/baseline, and values *below* 1 are the
    suspicious direction.
    """

    name: str
    baseline_value: float | None
    current_value: float | None
    status: str  # "ok" | "regression" | "within-noise" | "new" | "missing"

    @property
    def ratio(self) -> float | None:
        if self.baseline_value and self.current_value:
            return self.current_value / self.baseline_value
        return None


@dataclass(frozen=True)
class SeriesComparison:
    """One series of the current run measured against the baseline."""

    name: str
    baseline_seconds: float | None
    current_seconds: float | None
    status: str  # "ok" | "regression" | "within-noise" | "new" | "missing"

    @property
    def ratio(self) -> float | None:
        if self.baseline_seconds and self.current_seconds:
            return self.current_seconds / self.baseline_seconds
        return None


@dataclass
class ComparisonReport:
    """Per-series verdicts of one compare pass, plus how to read them.

    ``gated`` is True when the baseline was recorded on the same machine
    fingerprint — only then do wall-time ratios mean anything, and only then
    does :attr:`ok` go False on a regression.  With no usable baseline the
    report passes vacuously and says so.
    """

    area: str
    mode: str
    machine: str
    threshold: float
    noise_floor_seconds: float
    baseline: dict[str, Any] | None
    gated: bool
    entries: list[SeriesComparison] = field(default_factory=list)
    headline_threshold: float = DEFAULT_HEADLINE_THRESHOLD
    headline_noise_floor: float = DEFAULT_HEADLINE_NOISE_FLOOR
    headline_baseline: dict[str, Any] | None = None
    headline_entries: list[HeadlineComparison] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def regressions(self) -> list[SeriesComparison]:
        return [entry for entry in self.entries if entry.status == "regression"]

    @property
    def headline_regressions(self) -> list[HeadlineComparison]:
        return [entry for entry in self.headline_entries if entry.status == "regression"]

    @property
    def ok(self) -> bool:
        # Headline ratios are machine-independent, so their regressions fail
        # the run even when the wall-time gate is merely advisory.
        return not ((self.gated and self.regressions) or self.headline_regressions)

    def format(self) -> str:
        lines = [f"benchmark trajectory — area '{self.area}' (mode {self.mode})"]
        if self.baseline is None:
            lines.append(
                f"  no recorded '{self.mode}' baseline — gate skipped; "
                "record one with --bench-record and commit the BENCH file"
            )
            return "\n".join(lines)
        lines.append(
            f"  baseline: commit {self.baseline.get('commit')}, {self.baseline.get('date')}, "
            f"machine {self.baseline.get('machine')}"
        )
        if self.gated:
            lines.append(
                f"  gate ENFORCED (same machine): threshold ×{self.threshold:g}, "
                f"noise floor {self.noise_floor_seconds * 1e3:g} ms"
            )
        else:
            lines.append(
                f"  gate ADVISORY: baseline machine differs from current "
                f"({self.machine}); wall-time ratios reported but not enforced"
            )
        for note in self.notes:
            lines.append(f"  ADVISORY: {note}")
        name_width = max((len(entry.name) for entry in self.entries), default=0)
        for entry in self.entries:
            if entry.status == "new":
                detail = f"{_ms(entry.current_seconds):>10}  (new series, no baseline)"
            elif entry.status == "missing":
                detail = f"{_ms(entry.baseline_seconds):>10}  (in baseline, not measured now)"
            else:
                note = {
                    "regression": "REGRESSION",
                    "within-noise": "ok (over threshold but within noise floor)",
                    "ok": "ok",
                }[entry.status]
                detail = (
                    f"{_ms(entry.baseline_seconds):>10} -> {_ms(entry.current_seconds):>10}"
                    f"   ×{entry.ratio:5.2f}  {note}"
                )
            lines.append(f"    {entry.name:<{name_width}}  {detail}")
        if self.headline_entries:
            lines.append(
                f"  headline ratios (gate ENFORCED, machine-independent): "
                f"threshold ÷{self.headline_threshold:g}, "
                f"noise floor {self.headline_noise_floor:g}"
            )
            head_width = max(len(entry.name) for entry in self.headline_entries)
            for entry in self.headline_entries:
                if entry.status == "new":
                    detail = f"{_ratio(entry.current_value):>8}  (new headline, no baseline)"
                elif entry.status == "missing":
                    detail = f"{_ratio(entry.baseline_value):>8}  (in baseline, not measured now)"
                else:
                    note = {
                        "regression": "REGRESSION",
                        "within-noise": "ok (below threshold but within noise floor)",
                        "ok": "ok",
                    }[entry.status]
                    detail = (
                        f"{_ratio(entry.baseline_value):>8} -> {_ratio(entry.current_value):>8}"
                        f"   ×{entry.ratio:5.2f}  {note}"
                    )
                lines.append(f"    {entry.name:<{head_width}}  {detail}")
        problems = []
        if self.regressions:
            verb = "fails the gate" if self.gated else "would fail on the baseline machine"
            problems.append(
                f"  {len(self.regressions)} series regressed past ×{self.threshold:g} ({verb}); "
                "if the slowdown is intended, re-record with --bench-record and commit"
            )
        if self.headline_regressions:
            problems.append(
                f"  {len(self.headline_regressions)} headline ratio(s) fell past "
                f"÷{self.headline_threshold:g} (fails the gate); if the change is intended, "
                "re-record with --bench-record and commit"
            )
        lines.extend(problems if problems else ["  no regressions"])
        return "\n".join(lines)


def _ratio(value: float | None) -> str:
    return "-" if value is None else f"{value:.2f}x"


def _ms(seconds: float | None) -> str:
    return "-" if seconds is None else f"{seconds * 1e3:.2f} ms"


def compare_run(
    area: str,
    series: Mapping[str, float],
    *,
    mode: str,
    root: str | Path | None = None,
    machine: str | None = None,
    threshold: float = DEFAULT_THRESHOLD,
    noise_floor_seconds: float = DEFAULT_NOISE_FLOOR_SECONDS,
    headline: Mapping[str, Any] | None = None,
    headline_threshold: float = DEFAULT_HEADLINE_THRESHOLD,
    headline_noise_floor: float = DEFAULT_HEADLINE_NOISE_FLOOR,
) -> ComparisonReport:
    """Compare a fresh measurement against the last recorded baseline.

    The wall-time baseline is the most recent run with the same mode *and*
    machine fingerprint (the gate is enforced against it); when only runs
    from other machines exist, the latest same-mode run is used advisorily.

    When ``headline`` is given, its ratio-like keys (see
    :func:`gateable_headline`) are additionally gated against the most
    recent same-mode run carrying gateable headline values — from *any*
    machine, since a speedup ratio divides two timings from the same box.
    A headline regresses when ``current * headline_threshold < baseline``
    and the drop exceeds ``headline_noise_floor``; headline regressions
    always fail the report.
    """
    if threshold <= 1.0:
        raise TrajectoryError(f"threshold must be > 1, got {threshold}")
    if noise_floor_seconds < 0.0:
        raise TrajectoryError(f"noise floor must be >= 0, got {noise_floor_seconds}")
    if headline_threshold <= 1.0:
        raise TrajectoryError(f"headline threshold must be > 1, got {headline_threshold}")
    if headline_noise_floor < 0.0:
        raise TrajectoryError(f"headline noise floor must be >= 0, got {headline_noise_floor}")
    current = _validate_series(series)
    machine = machine if machine is not None else machine_fingerprint()
    path = trajectory_path(area, root)
    document = load_trajectory(path) if path.is_file() else _empty_trajectory(area)
    baseline = latest_baseline(document, mode=mode, machine=machine)
    gated = baseline is not None
    if baseline is None:
        baseline = latest_baseline(document, mode=mode)
    report = ComparisonReport(
        area=area,
        mode=mode,
        machine=machine,
        threshold=threshold,
        noise_floor_seconds=noise_floor_seconds,
        baseline=baseline,
        gated=gated,
        headline_threshold=headline_threshold,
        headline_noise_floor=headline_noise_floor,
    )
    if baseline is not None:
        base_series = baseline.get("series")
        if not isinstance(base_series, Mapping) or not base_series:
            # A hand-edited (or truncated) trajectory can carry a run with an
            # empty series block; record_run refuses to write one, but the
            # compare path must still say clearly that nothing was gated.
            report.notes.append(
                f"baseline run (commit {baseline.get('commit')}, {baseline.get('date')}) "
                "carries no series — every current series is reported as new and "
                "nothing was gated; re-record with --bench-record to repair the trajectory"
            )
            base_series = {}
        for name in sorted(set(base_series) | set(current)):
            base = base_series.get(name)
            now = current.get(name)
            if base is None:
                status = "new"
            elif now is None:
                status = "missing"
            elif now > base * threshold:
                status = "regression" if now - base > noise_floor_seconds else "within-noise"
            else:
                status = "ok"
            report.entries.append(
                SeriesComparison(name=name, baseline_seconds=base, current_seconds=now, status=status)
            )
    current_headline = gateable_headline(headline)
    if current_headline:
        # Skip same-mode runs recorded without gateable headline values (old
        # format, or a record pass that omitted extra_info) so one such run
        # does not silently reset the headline baseline.
        head_base_run = next(
            (
                run
                for run in reversed(document.get("runs", []))
                if run.get("mode") == mode and gateable_headline(run.get("headline"))
            ),
            None,
        )
        report.headline_baseline = head_base_run
        base_headline = gateable_headline(head_base_run.get("headline")) if head_base_run else {}
        for name in sorted(set(base_headline) | set(current_headline)):
            base = base_headline.get(name)
            now = current_headline.get(name)
            if base is None:
                status = "new"
            elif now is None:
                status = "missing"
            elif now * headline_threshold < base:
                status = "regression" if base - now > headline_noise_floor else "within-noise"
            else:
                status = "ok"
            report.headline_entries.append(
                HeadlineComparison(name=name, baseline_value=base, current_value=now, status=status)
            )
    return report


# ---------------------------------------------------------------------------
# pytest-benchmark report normalisation
# ---------------------------------------------------------------------------

def runs_from_benchmark_report(report: Mapping[str, Any]) -> dict[str, dict[str, Any]]:
    """Normalise a ``--benchmark-json`` report into per-area series/headline.

    Returns ``{area: {"series": {...}, "headline": {...}}}`` for every
    benchmark whose (bracket-stripped) test name appears in
    :data:`BENCHMARK_AREAS`.  The series is the benchmark's minimum wall time
    under a stable ``pytest/<name>/min`` key; ``extra_info`` becomes the
    headline block.  Benchmarks outside the mapped areas (the per-figure
    reproduction runs) are ignored — their numbers stay in the uploaded
    artifact but have no committed trajectory.
    """
    per_area: dict[str, dict[str, Any]] = {}
    for bench in report.get("benchmarks", []):
        name = str(bench.get("name", ""))
        area = BENCHMARK_AREAS.get(name.split("[", 1)[0])
        if area is None:
            continue
        stats = bench.get("stats", {})
        if "min" not in stats:
            continue
        entry = per_area.setdefault(area, {"series": {}, "headline": {}})
        entry["series"][f"pytest/{name}/min"] = float(stats["min"])
        entry["headline"].update(bench.get("extra_info", {}) or {})
    return per_area


# ---------------------------------------------------------------------------
# standalone CLI
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_report: bool) -> None:
        p.add_argument(
            "--root", type=Path, default=REPO_ROOT,
            help="directory holding the BENCH_<area>.json files (default: repo root)",
        )
        if with_report:
            p.add_argument(
                "--report", type=Path, required=True,
                help="pytest-benchmark --benchmark-json report to normalise",
            )
            p.add_argument(
                "--mode", choices=("quick", "full"), required=True,
                help="which baseline lineage the report belongs to",
            )

    record = sub.add_parser("record", help="append a report's runs to the trajectory files")
    add_common(record, with_report=True)

    compare = sub.add_parser(
        "compare", help="gate a report against the recorded baselines (exit 1 on regression)"
    )
    add_common(compare, with_report=True)
    compare.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    compare.add_argument("--noise-floor", type=float, default=DEFAULT_NOISE_FLOOR_SECONDS,
                         help="absolute slowdown (seconds) below which a ratio breach is noise")
    compare.add_argument("--headline-threshold", type=float, default=DEFAULT_HEADLINE_THRESHOLD,
                         help="factor a speedup/ratio headline may fall by before regressing")
    compare.add_argument("--headline-noise-floor", type=float, default=DEFAULT_HEADLINE_NOISE_FLOOR,
                         help="absolute ratio drop below which a headline breach is noise")

    median = sub.add_parser(
        "record-median",
        help="append the per-series median of several runs recorded into a scratch directory",
    )
    add_common(median, with_report=False)
    median.add_argument(
        "--from", dest="source", type=Path, required=True,
        help="directory the runs were recorded into (pytest --bench-trajectory-dir)",
    )
    median.add_argument("--mode", choices=("quick", "full"), required=True)

    show = sub.add_parser("show", help="print an area's recorded trajectory")
    add_common(show, with_report=False)
    show.add_argument("--area", choices=AREAS, required=True)
    return parser


def _load_report(path: Path) -> dict[str, Any]:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise TrajectoryError(f"cannot read benchmark report {path}: {exc}") from exc


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "show":
            path = trajectory_path(args.area, args.root)
            if not path.is_file():
                print(f"no trajectory recorded at {path}")
                return 0
            document = load_trajectory(path)
            print(f"{path}: {len(document['runs'])} recorded run(s)")
            for run in document["runs"]:
                print(
                    f"  {run.get('date')}  {run.get('commit')}  mode={run.get('mode')}  "
                    f"machine={run.get('machine')}  {len(run.get('series', {}))} series"
                )
            return 0

        if args.command == "record-median":
            written = [
                record_median_run(area, args.source, mode=args.mode, root=args.root)
                for area in AREAS
            ]
            for path in filter(None, written):
                print(f"recorded the median run into {path}")
            if not any(written):
                print(f"no '{args.mode}' runs recorded under {args.source}")
                return 1
            return 0

        per_area = runs_from_benchmark_report(_load_report(args.report))
        if not per_area:
            print(f"{args.report} contains no trajectory-mapped benchmarks ({BENCHMARK_AREAS})")
            return 0 if args.command == "record" else 1
        failed = False
        for area, payload in sorted(per_area.items()):
            if args.command == "record":
                path = record_run(
                    area, payload["series"], mode=args.mode, root=args.root,
                    headline=payload["headline"],
                )
                print(f"recorded {len(payload['series'])} series into {path}")
            else:
                report = compare_run(
                    area, payload["series"], mode=args.mode, root=args.root,
                    threshold=args.threshold, noise_floor_seconds=args.noise_floor,
                    headline=payload["headline"],
                    headline_threshold=args.headline_threshold,
                    headline_noise_floor=args.headline_noise_floor,
                )
                print(report.format())
                failed |= not report.ok
        return 1 if failed else 0
    except TrajectoryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
