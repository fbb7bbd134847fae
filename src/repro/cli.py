"""Command-line interface for running the paper's experiments.

The CLI exposes the experiment registry so the figures can be regenerated
without writing Python::

    python -m repro.cli list                       # show every figure experiment
    python -m repro.cli run fig5                   # run one figure's experiment(s)
    python -m repro.cli sweep fig9 --store results/store --n-jobs 4
    python -m repro.cli status fig9 --store results/store
    python -m repro.cli resume fig9 --store results/store
    python -m repro.cli serve-store --store results/store --port 8750
    python -m repro.cli sweep fig9 --store http://sweep-host:8750   # remote worker
    python -m repro.cli query fig9 --store http://sweep-host:8750
    python -m repro.cli curves                     # Fig. 2 force-scaling curves
    python -m repro.cli analyze fig5               # §7.3 pairwise transfer entropy
    python -m repro.cli watch fig4 --window 8      # live streaming metrics

``run`` prints the multi-information series as an ASCII plot and writes the
measurement JSON (plus a CSV of the series) into the output directory; it
executes the figure's experiment plan (:mod:`repro.core.plan`) once without
a store, so ``--n-jobs`` fans a sweep figure's units out across processes.
``sweep`` executes a whole figure plan against a content-addressed
:class:`~repro.io.artifacts.RunStore`: units already in the store are served
from cache bit-identically, freshly computed units are persisted as they
finish, and ``--n-jobs`` fans the units out across processes.  ``status``
reports which units of a figure plan are cached/missing without running
anything, and ``resume`` re-executes a previously started sweep, computing
only the missing units (it refuses to create a new store).
``analyze`` runs the information-dynamics pipeline (pairwise transfer entropy
and/or lagged mutual information between particles) on a figure's simulated
ensemble or on a saved ``.npz`` trajectory, with ``--backend`` selecting the
estimator backend and ``--n-jobs`` fanning the pair matrix out across
processes.

Every ``--store`` flag accepts a directory path **or** an ``http(s)://`` URL
of a ``serve-store`` service (:func:`repro.io.remote.open_store` picks the
backend), so any number of workers on any number of hosts can drain one sweep
against one shared store — lease-based dispatch in the plan executor keeps
them from duplicating work.  ``serve-store`` runs that service over a local
store directory, and ``query`` answers "figure X at these params" cache-first
from a store without ever simulating (exit code 1 when units are missing).
``watch`` runs a figure spec with a live monitor attached
(:mod:`repro.monitor`): a sliding-window streaming estimator emits metric
lines and sparklines while the simulation runs, optionally appending the
stream as JSON Lines (``--emit``) and persisting it next to the run's unit in
any run store (``--store``), where ``query`` reports it as ``[metrics]``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.core.experiments import (
    ExperimentSpec,
    all_figure_plans,
    all_figure_specs,
    fig2_force_curves,
    figure_plan,
)
from repro.core.plan import ConsoleObserver, ExperimentPlan, PlanObserver
from repro.io.artifacts import RunStoreBackend, RunStoreError
from repro.io.remote import open_store
from repro.particles.engine import DRIFT_ENGINES
from repro.viz import line_plot, save_json, save_series_csv

__all__ = ["main", "build_parser"]

DEFAULT_STORE = Path("results/run_store")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing and documentation)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Harder & Polani (2012), 'Self-organizing particle systems'.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser("list", help="list the available figure experiments")
    list_parser.add_argument("--full", action="store_true", help="show the full-scale parameters")

    def add_engine_flags(sub) -> None:
        sub.add_argument(
            "--engine", choices=list(DRIFT_ENGINES), default=None,
            help="override the drift engine (dense all-pairs, sparse neighbour-pair, or auto)",
        )
        sub.add_argument(
            "--domain", default=None, metavar="SPEC",
            help="override the simulation domain: 'free' (the paper's plane), "
            "'periodic:L' / 'periodic:Lx,Ly' (torus, minimum-image interactions), "
            "'reflecting:L' / 'reflecting:Lx,Ly' (closed box, reflecting walls) or "
            "'channel:Lx,Ly' (periodic in x, reflecting walls in y)",
        )

    def add_estimator_flags(sub) -> None:
        sub.add_argument(
            "--estimator-backend", choices=("dense", "kdtree", "auto"), default=None,
            help="override the measurement pipeline's estimator backend "
            "(dense O(m^2) matrices, tree-backed queries, or pick by sample count); "
            "non-default backends enter the run-unit content hash",
        )
        sub.add_argument(
            "--workers", type=int, default=None, metavar="N",
            help="thread count for the tree backend's cKDTree queries "
            "(-1 = all cores); pure throughput knob, excluded from the content hash",
        )

    run_parser = subparsers.add_parser("run", help="run the experiment(s) behind one figure")
    run_parser.add_argument("figure", help="figure id, e.g. fig4, fig5, fig9")
    run_parser.add_argument("--full", action="store_true", help="use the paper's scale (m=500, t_max=250)")
    run_parser.add_argument("--output", type=Path, default=Path("results"), help="output directory")
    run_parser.add_argument("--seed", type=int, default=None, help="override the spec's seed")
    run_parser.add_argument(
        "--max-specs", type=int, default=None,
        help="run at most this many specs of a sweep figure (default: all)",
    )
    run_parser.add_argument(
        "--n-jobs", type=int, default=None,
        help="process-pool width: a sweep figure's units run in parallel "
        "(a lone unit spreads its simulation batches instead)",
    )
    add_engine_flags(run_parser)
    add_estimator_flags(run_parser)
    run_parser.add_argument("--quiet", action="store_true", help="suppress the ASCII plot")

    sweep_parser = subparsers.add_parser(
        "sweep",
        help="execute a figure's experiment plan against a content-addressed run store",
    )
    resume_parser = subparsers.add_parser(
        "resume",
        help="re-execute an interrupted sweep: compute only the units missing from the store",
    )
    for sub in (sweep_parser, resume_parser):
        sub.add_argument("figure", help="figure id, e.g. fig8, fig9, fig10")
        sub.add_argument(
            "--store", type=str, default=str(DEFAULT_STORE),
            help="run-store directory, or http(s):// URL of a 'serve-store' "
            f"service shared between hosts (default: {DEFAULT_STORE})",
        )
        sub.add_argument("--full", action="store_true", help="use the paper's scale (m=500, t_max=250)")
        sub.add_argument("--n-jobs", type=int, default=None, help="process-pool width for the unit fan-out")
        sub.add_argument(
            "--max-units", type=int, default=None,
            help="execute at most this many units of the plan (default: all)",
        )
        sub.add_argument(
            "--fresh", action="store_true",
            help="ignore cache hits and recompute every unit (conflicts with 'resume')",
        )
        sub.add_argument(
            "--keep-ensembles", action="store_true",
            help="persist raw ensemble trajectories as .npz next to the JSON documents",
        )
        add_engine_flags(sub)
        add_estimator_flags(sub)
        sub.add_argument("--quiet", action="store_true", help="suppress the per-unit progress lines")

    status_parser = subparsers.add_parser(
        "status", help="show which units of a figure plan are cached in a run store"
    )
    status_parser.add_argument("figure", help="figure id, e.g. fig8, fig9, fig10")
    status_parser.add_argument(
        "--store", type=str, default=str(DEFAULT_STORE),
        help="run-store directory, or http(s):// URL of a 'serve-store' "
        f"service (default: {DEFAULT_STORE})",
    )
    status_parser.add_argument("--full", action="store_true", help="use the paper's scale")
    status_parser.add_argument(
        "--max-units", type=int, default=None,
        help="inspect at most this many units of the plan (default: all)",
    )
    status_parser.add_argument(
        "--sweep-orphans", action="store_true",
        help="delete aged orphaned files (crash leftovers) instead of only "
        "reporting them; opt-in because deleting on a store other hosts are "
        "writing to is not always safe under clock skew",
    )
    # Engine knobs (and a non-default estimator backend) enter the content
    # hash, so status must accept the same overrides as the sweep it
    # inspects to look up the same units.
    add_engine_flags(status_parser)
    add_estimator_flags(status_parser)

    query_parser = subparsers.add_parser(
        "query",
        help="answer a figure's results cache-first from a run store (never simulates)",
    )
    query_parser.add_argument("figure", help="figure id, e.g. fig8, fig9, fig10")
    query_parser.add_argument(
        "--store", type=str, default=str(DEFAULT_STORE),
        help="run-store directory, or http(s):// URL of a 'serve-store' "
        f"service (default: {DEFAULT_STORE})",
    )
    query_parser.add_argument("--full", action="store_true", help="use the paper's scale")
    query_parser.add_argument(
        "--max-units", type=int, default=None,
        help="query at most this many units of the plan (default: all)",
    )
    query_parser.add_argument(
        "--json", type=Path, default=None, metavar="PATH",
        help="also write the per-unit payload as JSON to PATH",
    )
    # Same reasoning as status: overrides change the hashes being queried.
    add_engine_flags(query_parser)
    add_estimator_flags(query_parser)

    serve_parser = subparsers.add_parser(
        "serve-store",
        help="serve a filesystem run store over HTTP so remote workers can share it",
    )
    serve_parser.add_argument(
        "--store", type=str, default=str(DEFAULT_STORE),
        help=f"run-store directory to serve (default: {DEFAULT_STORE})",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default: loopback only; bind 0.0.0.0 to serve other hosts)",
    )
    serve_parser.add_argument(
        "--port", type=int, default=8750,
        help="bind port (default: 8750; 0 picks a free port, printed at startup)",
    )
    serve_parser.add_argument("--verbose", action="store_true", help="log one line per request")

    watch_parser = subparsers.add_parser(
        "watch",
        help="run a figure spec with a live monitor attached and stream windowed metrics",
    )
    watch_parser.add_argument(
        "figure", help="figure id whose first spec is simulated, e.g. fig4, fig5"
    )
    watch_parser.add_argument("--full", action="store_true", help="use the paper's scale")
    watch_parser.add_argument(
        "--window", type=int, default=8,
        help="sliding window length in recorded steps (default: 8)",
    )
    watch_parser.add_argument(
        "--stride", type=int, default=1,
        help="emit every this-many steps once the window has filled (default: 1)",
    )
    watch_parser.add_argument(
        "--metrics", type=str, default="multi_information,transfer_entropy",
        help="comma-separated streaming metrics: 'multi_information' and/or "
        "'transfer_entropy' (default: both)",
    )
    watch_parser.add_argument(
        "--particles", type=str, default=None, metavar="I,J,...",
        help="particles pooled for multi-information; the first two are the "
        "transfer-entropy source and target (default: all particles / 0,1)",
    )
    watch_parser.add_argument(
        "--history", type=int, default=1, help="target own-history length for streaming TE"
    )
    watch_parser.add_argument("--k", type=int, default=4, help="neighbour order of the kNN estimators")
    watch_parser.add_argument(
        "--backend", choices=("dense", "kdtree"), default="dense",
        help="estimator backend for the streaming recomputation; each emission "
        "equals the post-hoc estimator on the same window (default: dense)",
    )
    watch_parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="thread count for the tree backend's cKDTree queries (-1 = all cores)",
    )
    watch_parser.add_argument(
        "--emit", type=Path, default=None, metavar="PATH",
        help="append every emitted row as JSON Lines to PATH while streaming",
    )
    watch_parser.add_argument(
        "--store", type=str, default=None,
        help="persist the finished stream next to this run's unit in a run "
        "store (directory or http(s):// URL); 'query' reports it as [metrics]",
    )
    watch_parser.add_argument(
        "--samples", type=int, default=None, help="override the spec's sample count"
    )
    watch_parser.add_argument(
        "--steps", type=int, default=None, help="override the spec's recorded step count"
    )
    watch_parser.add_argument("--seed", type=int, default=None, help="override the spec's seed")
    add_engine_flags(watch_parser)
    watch_parser.add_argument(
        "--quiet", action="store_true", help="suppress the per-emission lines"
    )

    curves_parser = subparsers.add_parser("curves", help="print the Fig. 2 force-scaling curves")
    curves_parser.add_argument("--output", type=Path, default=None, help="optional CSV output path")

    analyze_parser = subparsers.add_parser(
        "analyze",
        help="pairwise information dynamics (§7.3): transfer entropy between particles",
    )
    analyze_parser.add_argument(
        "figure", nargs="?", default=None,
        help="figure id whose first spec provides the simulated ensemble (omit with --ensemble)",
    )
    analyze_parser.add_argument(
        "--ensemble", type=Path, default=None,
        help="analyze a saved EnsembleTrajectory .npz instead of simulating a figure spec",
    )
    analyze_parser.add_argument(
        "--quantity", choices=("te", "lagged-mi", "both"), default="te",
        help="which pairwise matrix to compute (default: te)",
    )
    analyze_parser.add_argument(
        "--particles", type=str, default=None, metavar="I,J,...",
        help="comma-separated particle indices (default: the first --max-particles)",
    )
    analyze_parser.add_argument(
        "--max-particles", type=int, default=6,
        help="when --particles is omitted, analyze the first this-many particles (default: 6)",
    )
    analyze_parser.add_argument("--history", type=int, default=1, help="target own-history length for TE")
    analyze_parser.add_argument("--lag", type=int, default=1, help="lag for the lagged-MI matrix")
    analyze_parser.add_argument("--k", type=int, default=4, help="neighbour order of the kNN estimators")
    analyze_parser.add_argument(
        "--step-stride", type=int, default=1,
        help="thin the trajectories to every this-many recorded steps before embedding",
    )
    analyze_parser.add_argument(
        "--backend", choices=("dense", "kdtree", "auto"), default="auto",
        help="estimator backend: dense O(m^2) matrices, tree-backed queries, or pick by sample count",
    )
    analyze_parser.add_argument("--n-jobs", type=int, default=None, help="process-pool width for the pair fan-out")
    analyze_parser.add_argument(
        "--variant", default="ksg2",
        help="KSG estimator variant for the lagged-MI matrix: 'paper', 'ksg1' or "
        "'ksg2' (default: ksg2; the TE matrix always uses the KSG1-style CMI)",
    )
    analyze_parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="thread count for the tree backend's cKDTree queries (-1 = all cores)",
    )
    analyze_parser.add_argument("--full", action="store_true", help="use the paper's scale for the figure spec")
    analyze_parser.add_argument("--seed", type=int, default=None, help="override the figure spec's seed")
    analyze_parser.add_argument("--output", type=Path, default=Path("results"), help="output directory")
    analyze_parser.add_argument("--quiet", action="store_true", help="suppress the matrix table")

    return parser


def _command_list(args: argparse.Namespace, stream) -> int:
    specs = all_figure_specs(full=args.full)
    stream.write(f"{'figure':8s} {'specs':>5s}  {'n':>4s} {'l':>3s} {'force':>5s} {'r_c':>6s}  description\n")
    for figure, entries in specs.items():
        first = entries[0]
        cutoff = "inf" if first.simulation.cutoff is None else f"{first.simulation.cutoff:g}"
        stream.write(
            f"{figure:8s} {len(entries):5d}  {first.simulation.n_particles:4d} "
            f"{first.simulation.n_types:3d} {first.simulation.force:>5s} {cutoff:>6s}  "
            f"{first.description}\n"
        )
    return 0


def _apply_engine_overrides(simulation, args: argparse.Namespace):
    overrides = {}
    if getattr(args, "engine", None) is not None:
        overrides["engine"] = args.engine
    if getattr(args, "domain", None) is not None:
        overrides["domain"] = args.domain
    return simulation.with_updates(**overrides) if overrides else simulation


def _apply_analysis_overrides(spec: ExperimentSpec, args: argparse.Namespace) -> ExperimentSpec:
    overrides = {}
    if getattr(args, "estimator_backend", None) is not None:
        overrides["estimator_backend"] = args.estimator_backend
    if getattr(args, "workers", None) is not None:
        overrides["workers"] = args.workers
    if not overrides:
        return spec
    return spec.with_updates(analysis=replace(spec.analysis, **overrides))


def _write_run_outputs(name: str, measurement, args: argparse.Namespace, stream) -> None:
    output_dir: Path = args.output
    save_json(output_dir / f"{name}.json", measurement.to_dict())
    save_series_csv(
        output_dir / f"{name}.csv",
        {"step": measurement.steps, "multi_information_bits": measurement.multi_information},
    )
    if not args.quiet:
        stream.write(
            line_plot(
                {"I(W_1,...,W_n)": measurement.multi_information},
                x=measurement.steps,
                title=f"{name}: multi-information (bits) vs time step",
            )
            + "\n"
        )
    stream.write(
        f"{name}: delta I = {measurement.delta_multi_information:+.3f} bits "
        f"(initial {measurement.initial_multi_information:.3f}, "
        f"final {measurement.final_multi_information:.3f}); "
        f"results written to {output_dir}/{name}.json\n"
    )


def _command_run(args: argparse.Namespace, stream) -> int:
    plans = all_figure_plans(full=args.full)
    figure = args.figure.lower()
    if figure == "fig2":
        stream.write("fig2 is analytic; use the 'curves' command instead.\n")
        return 2
    if figure not in plans:
        stream.write(f"unknown figure {args.figure!r}; available: {', '.join(plans)} (and fig2 via 'curves')\n")
        return 2
    plan = plans[figure]
    if args.max_specs is not None:
        if args.max_specs < 1:
            stream.write(f"--max-specs must be >= 1, got {args.max_specs}\n")
            return 2
        plan = plan.limit(args.max_specs)
    # Apply the seed and the engine/domain/estimator overrides exactly once;
    # a malformed --domain spec or a periodic box incompatible with the
    # figure's cut-off surfaces here as a clean error instead of a traceback.
    try:
        plan = plan.map_specs(
            lambda spec: _apply_analysis_overrides(
                spec.with_updates(
                    simulation=_apply_engine_overrides(spec.simulation, args),
                    seed=spec.seed if args.seed is None else args.seed,
                ),
                args,
            )
        )
    except (KeyError, ValueError) as exc:
        stream.write(f"invalid engine/domain/estimator override: {exc}\n")
        return 2
    # One execution for the whole figure, without a store (always compute):
    # --n-jobs spreads a sweep figure's units over a process pool, and a lone
    # unit gets it for its own simulation batches.
    execution = plan.execute(None, n_jobs=args.n_jobs)
    for unit, result in zip(execution.units, execution.results):
        _write_run_outputs(unit.name, result.measurement, args, stream)
    if len(execution.units) > 1:
        stream.write(
            f"{figure}: mean delta I over {len(execution.units)} specs = "
            f"{execution.mean_delta_multi_information():+.3f} bits\n"
        )
    return 0


def _figure_plan(args: argparse.Namespace, stream) -> ExperimentPlan | None:
    """Build the (possibly limited, engine-overridden) plan of ``args.figure``."""
    try:
        plan = figure_plan(args.figure, full=getattr(args, "full", False))
    except KeyError as exc:
        stream.write(f"{exc.args[0]}\n")
        return None
    if (
        getattr(args, "engine", None)
        or getattr(args, "domain", None)
        or getattr(args, "estimator_backend", None)
        or getattr(args, "workers", None) is not None
    ):
        try:
            plan = plan.map_specs(
                lambda spec: _apply_analysis_overrides(
                    spec.with_updates(
                        simulation=_apply_engine_overrides(spec.simulation, args)
                    ),
                    args,
                )
            )
        except (KeyError, ValueError) as exc:
            # e.g. a malformed --domain spec, a periodic box smaller than
            # twice the figure's cut-off radius, or workers=0.
            stream.write(f"invalid engine/domain/estimator override: {exc}\n")
            return None
    max_units = getattr(args, "max_units", None)
    if max_units is not None:
        if max_units < 1:
            stream.write(f"--max-units must be >= 1, got {max_units}\n")
            return None
        plan = plan.limit(max_units)
    return plan


def _open_store(args: argparse.Namespace, stream, *, create: bool) -> RunStoreBackend | None:
    try:
        return open_store(args.store, create=create)
    except RunStoreError as exc:
        stream.write(f"{exc}\n")
        # "Start the sweep" is the fix for a missing *directory*; an
        # unreachable or non-store URL needs the service fixed instead.
        if not create and not str(args.store).startswith(("http://", "https://")):
            stream.write("start the sweep first: repro sweep "
                         f"{args.figure} --store {args.store}\n")
        return None


def _command_sweep(args: argparse.Namespace, stream, *, resuming: bool = False) -> int:
    if resuming and args.fresh:
        stream.write(
            "conflicting flags: resume computes only missing units, --fresh recomputes "
            "everything; use 'sweep --fresh' to rebuild the store\n"
        )
        return 2
    plan = _figure_plan(args, stream)
    if plan is None:
        return 2
    store = _open_store(args, stream, create=not resuming)
    if store is None:
        return 2
    if resuming and len(store) > 0 and plan.status(store).n_cached == 0:
        # The store holds results, yet none match this plan's hashes — the
        # classic cause is a flag mismatch with the original sweep, which
        # would silently recompute everything resume exists to preserve.
        stream.write(
            f"warning: none of this plan's {len(plan)} unit(s) are in {args.store} "
            f"({len(store)} unrelated unit(s) present); if this store was produced by "
            "this figure's sweep, re-check --full and the engine flags.\n"
        )
    observer = PlanObserver() if args.quiet else ConsoleObserver(stream)
    try:
        execution = plan.execute(
            store,
            n_jobs=args.n_jobs,
            observer=observer,
            recompute=args.fresh,
            keep_ensembles=args.keep_ensembles,
        )
    except RunStoreError as exc:
        stream.write(f"{exc}\nthe store holds a damaged document; delete it and resume.\n")
        return 2
    stream.write(
        f"{args.figure.lower()}: {len(execution.units)} unit(s), "
        f"{execution.n_cached} cached, {execution.n_computed} computed; "
        f"mean delta I = {execution.mean_delta_multi_information():+.3f} bits "
        f"({execution.wall_time_seconds:.1f} s); store: {args.store}\n"
    )
    return 0


def _command_status(args: argparse.Namespace, stream) -> int:
    plan = _figure_plan(args, stream)
    if plan is None:
        return 2
    store = _open_store(args, stream, create=False)
    if store is None:
        return 2
    # A crash between the .npz and JSON writes (or mid-write) can leave
    # orphaned archives/temporaries (and expired leases) behind; no read
    # path uses them, so status reports them.  *Deleting* them is opt-in:
    # on a store shared between hosts, another machine's clock skew can
    # make a live writer's in-flight file look older than the grace
    # period, and an unconditional sweep would destroy its save.
    if args.sweep_orphans:
        swept = store.sweep_orphans()
        if swept:
            stream.write(f"swept {len(swept)} orphaned file(s) from {args.store}\n")
    else:
        orphans = store.orphaned_files()
        if orphans:
            stream.write(
                f"{len(orphans)} orphaned file(s) in {args.store} "
                "(pass --sweep-orphans to delete)\n"
            )
    status = plan.status(store)
    try:
        # Surface damaged documents before a resume trips on them — the full
        # reconstruction, not just JSON decoding, is what resume will do.
        for unit in status.cached:
            store.load(unit.content_hash, with_ensemble=False)
    except RunStoreError as exc:
        stream.write(f"{exc}\n")
        return 2
    stream.write(
        f"{args.figure.lower()}: {status.n_cached}/{status.n_units} unit(s) cached "
        f"in {args.store}\n"
    )
    for unit in status.missing:
        stream.write(f"  missing  {unit.name} ({unit.content_hash[:12]})\n")
    if status.complete:
        stream.write("plan complete; 'sweep' or 'resume' would recompute nothing.\n")
    else:
        stream.write(f"run: repro resume {args.figure.lower()} --store {args.store}\n")
    return 0


def _command_query(args: argparse.Namespace, stream) -> int:
    """Answer a figure's results from a store without simulating anything.

    Exit code 0 when every unit of the (possibly limited/overridden) plan is
    cached, 1 when some are missing — so scripts can branch to a sweep.
    """
    plan = _figure_plan(args, stream)
    if plan is None:
        return 2
    store = _open_store(args, stream, create=False)
    if store is None:
        return 2
    figure = args.figure.lower()
    rows: list[dict] = []
    deltas: list[float] = []
    try:
        for unit in plan.status(None).units:  # deduplicated, plan order
            # 'watch --store' leaves an auxiliary metrics stream next to the
            # unit; report it so the cached artifacts are fully enumerated.
            has_metrics = store.has_metrics(unit.content_hash)
            metrics_note = " [metrics]" if has_metrics else ""
            if store.has(unit.content_hash):
                result = store.load(unit.content_hash, with_ensemble=False)
                delta = float(result.delta_multi_information)
                deltas.append(delta)
                rows.append(
                    {
                        "name": unit.name,
                        "content_hash": unit.content_hash,
                        "cached": True,
                        "delta_multi_information_bits": delta,
                        "has_metrics": has_metrics,
                    }
                )
                stream.write(
                    f"  cached   {unit.name} ({unit.content_hash[:12]}): "
                    f"delta I = {delta:+.3f} bits{metrics_note}\n"
                )
            else:
                rows.append(
                    {
                        "name": unit.name,
                        "content_hash": unit.content_hash,
                        "cached": False,
                        "delta_multi_information_bits": None,
                        "has_metrics": has_metrics,
                    }
                )
                stream.write(
                    f"  missing  {unit.name} ({unit.content_hash[:12]}){metrics_note}\n"
                )
    except RunStoreError as exc:
        stream.write(f"{exc}\n")
        return 2
    stream.write(f"{figure}: {len(deltas)}/{len(rows)} unit(s) cached in {args.store}")
    if deltas:
        stream.write(f"; mean delta I over cached = {float(np.mean(deltas)):+.3f} bits")
    stream.write("\n")
    if args.json is not None:
        path = save_json(
            args.json, {"figure": figure, "store": str(args.store), "units": rows}
        )
        stream.write(f"query payload written to {path}\n")
    if len(deltas) == len(rows):
        return 0
    stream.write(f"complete the sweep: repro resume {figure} --store {args.store}\n")
    return 1


def _command_serve_store(args: argparse.Namespace, stream) -> int:
    from repro.io.service import serve_store

    if str(args.store).startswith(("http://", "https://")):
        stream.write("serve-store fronts a local filesystem store; pass a directory path\n")
        return 2
    try:
        server = serve_store(args.store, args.host, args.port, quiet=not args.verbose)
    except RunStoreError as exc:
        stream.write(f"{exc}\n")
        return 2
    except OSError as exc:
        stream.write(f"cannot bind {args.host}:{args.port}: {exc}\n")
        return 2
    stream.write(f"serving run store {args.store} at {server.url} (Ctrl-C to stop)\n")
    if hasattr(stream, "flush"):
        stream.flush()  # supervisors parse the bound URL before any request
    # A supervisor stop (docker stop, systemd, CI teardown) arrives as
    # SIGTERM, not Ctrl-C; fold it into the same clean shutdown so the
    # socket is released and in-flight PUTs finish (server_close joins the
    # per-connection handler threads).  Signal handlers only install on the
    # main thread; embedders driving this from a worker thread keep their
    # own handling.
    import signal
    import threading

    def _terminate(signum, frame):
        raise KeyboardInterrupt

    on_main = threading.current_thread() is threading.main_thread()
    previous = signal.signal(signal.SIGTERM, _terminate) if on_main else None
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        stream.write("stopped\n")
    finally:
        if on_main:
            signal.signal(signal.SIGTERM, previous)
        server.server_close()
    return 0


def _parse_particles(spec: str | None, n_particles: int, max_particles: int) -> list[int]:
    if spec is None:
        if max_particles < 1:
            raise SystemExit(f"--max-particles must be >= 1, got {max_particles}")
        return list(range(min(max_particles, n_particles)))
    try:
        indices = [int(token) for token in spec.split(",") if token.strip() != ""]
    except ValueError as exc:
        raise SystemExit(f"--particles must be a comma-separated list of integers, got {spec!r}") from exc
    if not indices:
        raise SystemExit("--particles must name at least one particle")
    out_of_range = [index for index in indices if not 0 <= index < n_particles]
    if out_of_range:
        raise SystemExit(
            f"--particles indices {out_of_range} out of range [0, {n_particles}) "
            f"for this {n_particles}-particle ensemble"
        )
    return indices


def _matrix_table(matrix: np.ndarray, particles: list[int], value_name: str) -> str:
    from repro.viz import series_table

    # Particle ids are indices: keep them integer so the table reads
    # "3", not "3.000" (series_table only float-formats floating cells).
    columns = {"target \\ source": np.asarray(particles, dtype=np.int64)}
    for j_index, j in enumerate(particles):
        columns[f"{value_name}<-{j}"] = matrix[:, j_index]
    return series_table(columns, float_format="{:.3f}")


def _command_analyze(args: argparse.Namespace, stream) -> int:
    from repro.analysis.information_dynamics import (
        net_information_flow,
        pairwise_lagged_mutual_information,
        pairwise_transfer_entropy,
    )
    from repro.infotheory.ksg import _validate_variant
    from repro.particles.trajectory import EnsembleTrajectory

    # Validate upfront: under the default --quantity te the variant is never
    # consulted (TE always uses KSG1-style CMI), so a lazy check would let a
    # typo exit 0 silently.
    try:
        _validate_variant(args.variant)
    except ValueError as exc:
        stream.write(f"analyze: {exc}\n")
        return 2

    if args.ensemble is not None:
        ensemble = EnsembleTrajectory.load(args.ensemble)
        name = args.ensemble.stem
    elif args.figure is not None:
        from repro.core.pipeline import run_simulation_only

        registry = all_figure_specs(full=args.full)
        figure = args.figure.lower()
        if figure not in registry:
            stream.write(
                f"unknown figure {args.figure!r}; available: {', '.join(registry)}\n"
            )
            return 2
        spec = registry[figure][0]
        seed = spec.seed if args.seed is None else args.seed
        ensemble, _simulator = run_simulation_only(
            spec.simulation, spec.n_samples, seed=seed, n_jobs=args.n_jobs
        )
        name = spec.name
    else:
        stream.write("analyze needs a figure id or --ensemble PATH\n")
        return 2

    particles = _parse_particles(args.particles, ensemble.n_particles, args.max_particles)
    common = dict(
        particles=particles,
        k=args.k,
        step_stride=args.step_stride,
        backend=args.backend,
        n_jobs=args.n_jobs,
        workers=args.workers,
    )
    payload: dict = {
        "source": name,
        "particles": particles,
        "k": args.k,
        "step_stride": args.step_stride,
        "backend": args.backend,
        "workers": args.workers,
        "n_samples": ensemble.n_samples,
        "n_steps": ensemble.n_steps,
    }
    # An unknown variant/backend combination (or a bad k for this sample
    # count) surfaces from the estimator layer as ValueError; turn it into a
    # one-line message and exit code 2 instead of a traceback.
    try:
        if args.quantity in ("te", "both"):
            te = pairwise_transfer_entropy(ensemble, history=args.history, **common)
            flow = net_information_flow(te)
            payload["history"] = args.history
            payload["transfer_entropy_bits"] = te.tolist()
            payload["net_information_flow_bits"] = flow.tolist()
            if not args.quiet:
                stream.write(_matrix_table(te, particles, "T") + "\n")
            ranked = sorted(zip(particles, flow), key=lambda item: -item[1])
            stream.write(
                f"{name}: strongest net source is particle {ranked[0][0]} "
                f"({ranked[0][1]:+.3f} bits), strongest sink is particle {ranked[-1][0]} "
                f"({ranked[-1][1]:+.3f} bits)\n"
            )
        if args.quantity in ("lagged-mi", "both"):
            lagged = pairwise_lagged_mutual_information(
                ensemble, lag=args.lag, variant=args.variant, **common
            )
            payload["lag"] = args.lag
            payload["variant"] = args.variant
            payload["lagged_mutual_information_bits"] = lagged.tolist()
            if not args.quiet:
                stream.write(_matrix_table(lagged, particles, "I") + "\n")
    except ValueError as exc:
        stream.write(f"analyze: {exc}\n")
        return 2
    path = save_json(args.output / f"{name}_infodynamics.json", payload)
    stream.write(f"information-dynamics results written to {path}\n")
    return 0


def _command_watch(args: argparse.Namespace, stream) -> int:
    """Run a figure spec with a live monitor attached and stream its metrics.

    The monitor observes every recorded ensemble frame without perturbing the
    run (the trajectory stays bit-identical to an unobserved one) and each
    emitted value equals the post-hoc estimator on the same window.
    """
    from repro.core.plan import RunUnit
    from repro.monitor import (
        InformationMonitor,
        MetricsStream,
        StreamingMultiInformation,
        StreamingTransferEntropy,
    )
    from repro.particles.ensemble import EnsembleSimulator
    from repro.viz import sparkline

    registry = all_figure_specs(full=args.full)
    figure = args.figure.lower()
    if figure not in registry:
        stream.write(f"unknown figure {args.figure!r}; available: {', '.join(registry)}\n")
        return 2
    spec = registry[figure][0]
    try:
        simulation = _apply_engine_overrides(spec.simulation, args)
        if args.steps is not None:
            simulation = simulation.with_updates(n_steps=args.steps)
    except (KeyError, ValueError) as exc:
        stream.write(f"invalid engine/domain override: {exc}\n")
        return 2
    overrides: dict = {"simulation": simulation}
    if args.samples is not None:
        overrides["n_samples"] = args.samples
    if args.seed is not None:
        overrides["seed"] = args.seed
    spec = spec.with_updates(**overrides)

    if args.window < 2:
        stream.write(f"--window must be >= 2, got {args.window}\n")
        return 2
    if args.stride < 1:
        stream.write(f"--stride must be >= 1, got {args.stride}\n")
        return 2
    if args.window > simulation.n_steps + 1:
        stream.write(
            f"--window {args.window} never fills: this run records "
            f"{simulation.n_steps + 1} frame(s); lower --window or raise --steps\n"
        )
        return 2

    particles = None
    if args.particles is not None:
        particles = _parse_particles(args.particles, simulation.n_particles, 1)
    names = [token.strip() for token in args.metrics.split(",") if token.strip()]
    if not names:
        stream.write("watch: --metrics named no metric\n")
        return 2
    estimators = []
    for name in names:
        if name == "multi_information":
            estimators.append(
                StreamingMultiInformation(
                    particles, k=args.k, backend=args.backend, workers=args.workers
                )
            )
        elif name == "transfer_entropy":
            pair = particles[:2] if particles is not None else [0, 1]
            if len(pair) < 2 or simulation.n_particles < 2:
                stream.write(
                    "watch: transfer_entropy needs two particles; pass "
                    "--particles I,J or drop it from --metrics\n"
                )
                return 2
            if args.window <= args.history:
                stream.write(
                    f"watch: --window {args.window} leaves no transitions for "
                    f"--history {args.history}; widen the window\n"
                )
                return 2
            estimators.append(
                StreamingTransferEntropy(
                    pair[0], pair[1], history=args.history, k=args.k,
                    backend=args.backend, workers=args.workers,
                )
            )
        else:
            stream.write(
                f"watch: unknown metric {name!r}; expected 'multi_information' "
                "or 'transfer_entropy'\n"
            )
            return 2

    store = None
    if args.store is not None:
        # Open before simulating so a bad store spec fails in milliseconds,
        # not after the run.
        store = _open_store(args, stream, create=True)
        if store is None:
            return 2

    metrics = MetricsStream(path=args.emit)

    def _echo(row) -> None:
        if args.quiet:
            return
        spark = sparkline(metrics.values(row.metric), width=32)
        stream.write(
            f"step {row.step:>4d}  {row.metric:<18s}{row.value:+9.4f} bits  "
            f"{row.wall_ms:7.2f} ms  |{spark}|\n"
        )
        if hasattr(stream, "flush"):
            stream.flush()

    monitor = InformationMonitor(
        estimators, window=args.window, stride=args.stride, stream=metrics, on_emit=_echo
    )
    simulator = EnsembleSimulator(spec.simulation, spec.n_samples, seed=spec.seed)
    simulator.add_observer(monitor)
    try:
        simulator.run()
    except ValueError as exc:
        # e.g. an ensemble too large for one observer batch, or a k too
        # large for this window's sample count.
        stream.write(f"watch: {exc}\n")
        return 2
    finally:
        metrics.close()

    for name in metrics.metrics():
        values = metrics.values(name)
        stream.write(
            f"{figure}: {name}: {len(values)} emission(s), last {values[-1]:+.4f} "
            f"bits  |{sparkline(values, width=48)}|\n"
        )
    if args.emit is not None:
        stream.write(f"metrics stream written to {args.emit}\n")
    if store is not None:
        unit = RunUnit(spec)
        try:
            store.save_metrics(unit.content_hash, metrics.to_jsonl())
        except RunStoreError as exc:
            stream.write(f"{exc}\n")
            return 2
        stream.write(
            f"metrics stream persisted for unit {unit.content_hash[:12]} in {args.store}\n"
        )
    return 0


def _command_curves(args: argparse.Namespace, stream) -> int:
    curves = fig2_force_curves()
    stream.write(
        line_plot(
            {"F1": curves["F1"], "F2": curves["F2"]},
            x=curves["distance"],
            title="Fig. 2 — force-scaling functions",
        )
        + "\n"
    )
    if args.output is not None:
        path = save_series_csv(
            args.output, {"distance": curves["distance"], "F1": curves["F1"], "F2": curves["F2"]}
        )
        stream.write(f"series written to {path}\n")
    return 0


def main(argv: list[str] | None = None, stream=None) -> int:
    """Entry point; returns the process exit code."""
    stream = stream or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        return _command_list(args, stream)
    if args.command == "run":
        return _command_run(args, stream)
    if args.command == "sweep":
        return _command_sweep(args, stream)
    if args.command == "resume":
        return _command_sweep(args, stream, resuming=True)
    if args.command == "status":
        return _command_status(args, stream)
    if args.command == "query":
        return _command_query(args, stream)
    if args.command == "serve-store":
        return _command_serve_store(args, stream)
    if args.command == "watch":
        return _command_watch(args, stream)
    if args.command == "curves":
        return _command_curves(args, stream)
    if args.command == "analyze":
        return _command_analyze(args, stream)
    parser.error(f"unknown command {args.command!r}")
    return 2  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
