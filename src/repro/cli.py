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

Every figure command (``run``, ``sweep``, ``resume``, ``status``, ``query``,
``watch`` and ``analyze <figure>``) builds its plan in :func:`_resolve_plan`:
one lookup, one limit, one set of spec overrides, so a bad figure or value is
refused in one line (exit code 2) before anything is written.  A flag that
means the same on several commands is declared once, in a parent parser of
:func:`build_parser`.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.core.experiments import ExperimentSpec, all_figure_plans, fig2_force_curves, figure_plan
from repro.core.plan import ConsoleObserver, ExperimentPlan, PlanObserver, RunUnit
from repro.io.artifacts import RunStoreBackend, RunStoreError
from repro.io.remote import open_store
from repro.parallel.pool import effective_n_jobs
from repro.particles.engine import DRIFT_ENGINES
from repro.viz import line_plot, save_json, save_series_csv

__all__ = ["main", "build_parser"]

DEFAULT_STORE = Path("results/run_store")


class _CommandError(Exception):
    """A refused command: :func:`main` writes the message and exits with 2."""


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing and documentation)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Harder & Polani (2012), 'Self-organizing particle systems'.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def flags(*parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
        return argparse.ArgumentParser(add_help=False, parents=list(parents))

    # A flag that means the same on several commands is declared once, in one
    # of these parent parsers, and every command that takes it inherits it.
    full = flags()
    full.add_argument("--full", action="store_true", help="use the paper's scale (m=500, t_max=250)")
    figure = flags(full)
    figure.add_argument("figure", help="figure id, e.g. fig4, fig5, fig9")
    seed = flags()
    seed.add_argument("--seed", type=int, default=None, help="override the spec's seed")
    engine = flags()
    engine.add_argument(
        "--engine", choices=list(DRIFT_ENGINES), default=None,
        help="override the drift engine (dense all-pairs, sparse neighbour-pair, or auto)",
    )
    engine.add_argument(
        "--domain", default=None, metavar="SPEC",
        help="override the simulation domain: 'free' (the paper's plane), "
        "'periodic:L' / 'periodic:Lx,Ly' (torus, minimum-image interactions), "
        "'reflecting:L' / 'reflecting:Lx,Ly' (closed box, reflecting walls) or "
        "'channel:Lx,Ly' (periodic in x, reflecting walls in y)",
    )
    estimator = flags()
    estimator.add_argument(
        "--estimator-backend", choices=("dense", "kdtree", "auto"), default=None,
        help="override the measurement pipeline's estimator backend "
        "(dense O(m^2) matrices, tree-backed queries, or pick by sample count); "
        "non-default backends enter the run-unit content hash",
    )
    # Only where a unit is computed: workers never enters a content hash.
    workers = flags()
    workers.add_argument(
        "--workers", dest="analysis_workers", type=int, default=None, metavar="N",
        help="thread count for the tree backend's cKDTree queries "
        "(-1 = all cores); pure throughput knob, excluded from the content hash",
    )
    store = flags()
    store.add_argument(
        "--store", type=str, default=str(DEFAULT_STORE),
        help="run-store directory, or http(s):// URL of a 'serve-store' "
        f"service shared between hosts (default: {DEFAULT_STORE})",
    )
    store.add_argument(
        "--max-units", type=int, default=None,
        help="use at most this many units of the plan (default: all)",
    )
    execute = flags()
    execute.add_argument("--n-jobs", type=int, default=None, help="process-pool width for the unit fan-out")
    execute.add_argument(
        "--keep-ensembles", action="store_true",
        help="persist raw ensemble trajectories as .npz next to the JSON documents",
    )
    execute.add_argument("--quiet", action="store_true", help="suppress the per-unit progress lines")
    output = flags()
    output.add_argument("--output", type=Path, default=Path("results"), help="output directory")
    # watch's and analyze's own estimators (never the spec's).
    knn = flags()
    knn.add_argument("--k", type=int, default=4, help="neighbour order of the kNN estimators")
    knn.add_argument("--history", type=int, default=1, help="target own-history length for transfer entropy")
    knn.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="thread count for the tree backend's cKDTree queries (-1 = all cores)",
    )

    def command(name: str, handler, summary: str, parents=(), **defaults) -> argparse.ArgumentParser:
        sub = subparsers.add_parser(name, help=summary, parents=list(parents))
        sub.set_defaults(handler=handler, **defaults)
        return sub

    command("list", _command_list, "list the available figure experiments", [full])

    run = command(
        "run", _command_run, "run the experiment(s) behind one figure",
        [figure, seed, engine, estimator, workers, output],
    )
    run.add_argument(
        "--max-specs", type=int, default=None,
        help="run at most this many specs of a sweep figure (default: all)",
    )
    run.add_argument(
        "--n-jobs", type=int, default=None,
        help="process-pool width: a sweep figure's units run in parallel "
        "(a lone unit spreads its simulation batches instead)",
    )
    run.add_argument("--quiet", action="store_true", help="suppress the ASCII plot")

    # Engine knobs (and a non-default estimator backend) enter the content
    # hash, so every store command takes the overrides of the sweep it
    # inspects, to look up the same units.
    computing = [figure, store, engine, estimator, workers, execute]
    sweep = command(
        "sweep", _command_sweep,
        "execute a figure's experiment plan against a content-addressed run store", computing,
    )
    sweep.add_argument("--fresh", action="store_true", help="ignore cache hits and recompute every unit")
    command(
        "resume", _command_sweep,
        "re-execute an interrupted sweep: compute only the units missing from the store",
        computing, fresh=False,
    )
    status = command(
        "status", _command_status, "show which units of a figure plan are cached in a run store",
        [figure, store, engine, estimator],
    )
    status.add_argument(
        "--sweep-orphans", action="store_true",
        help="delete aged orphaned files (crash leftovers) instead of only "
        "reporting them; opt-in because deleting on a store other hosts are "
        "writing to is not always safe under clock skew",
    )
    query = command(
        "query", _command_query,
        "answer a figure's results cache-first from a run store (never simulates)",
        [figure, store, engine, estimator],
    )
    query.add_argument(
        "--json", type=Path, default=None, metavar="PATH",
        help="also write the per-unit payload as JSON to PATH",
    )

    serve = command(
        "serve-store", _command_serve_store,
        "serve a filesystem run store over HTTP so remote workers can share it",
    )
    serve.add_argument(
        "--store", type=str, default=str(DEFAULT_STORE),
        help=f"run-store directory to serve (default: {DEFAULT_STORE})",
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default: loopback only; bind 0.0.0.0 to serve other hosts)",
    )
    serve.add_argument(
        "--port", type=int, default=8750,
        help="bind port (default: 8750; 0 picks a free port, printed at startup)",
    )
    serve.add_argument("--verbose", action="store_true", help="log one line per request")

    watch = command(
        "watch", _command_watch,
        "run a figure's first spec with a live monitor attached and stream windowed metrics",
        [figure, seed, engine, knn],
    )
    watch.add_argument(
        "--window", type=int, default=8,
        help="sliding window length in recorded steps (default: 8)",
    )
    watch.add_argument(
        "--stride", type=int, default=1,
        help="emit every this-many steps once the window has filled (default: 1)",
    )
    watch.add_argument(
        "--metrics", type=str, default="multi_information,transfer_entropy",
        help="comma-separated streaming metrics: 'multi_information' and/or "
        "'transfer_entropy' (default: both)",
    )
    watch.add_argument(
        "--particles", type=str, default=None, metavar="I,J,...",
        help="particles pooled for multi-information; the first two are the "
        "transfer-entropy source and target (default: all particles / 0,1)",
    )
    watch.add_argument(
        "--backend", choices=("dense", "kdtree"), default="dense",
        help="estimator backend for the streaming recomputation; each emission "
        "equals the post-hoc estimator on the same window (default: dense)",
    )
    watch.add_argument(
        "--emit", type=Path, default=None, metavar="PATH",
        help="append every emitted row as JSON Lines to PATH while streaming",
    )
    watch.add_argument(
        "--store", type=str, default=None,
        help="persist the finished stream next to this run's unit in a run "
        "store (directory or http(s):// URL); 'query' reports it as [metrics]",
    )
    watch.add_argument("--samples", type=int, default=None, help="override the spec's sample count")
    watch.add_argument("--steps", type=int, default=None, help="override the spec's recorded step count")
    watch.add_argument("--quiet", action="store_true", help="suppress the per-emission lines")

    curves = command("curves", _command_curves, "print the Fig. 2 force-scaling curves")
    curves.add_argument("--output", type=Path, default=None, help="optional CSV output path")

    analyze = command(
        "analyze", _command_analyze,
        "pairwise information dynamics (§7.3): transfer entropy between particles",
        [full, seed, knn, output],
    )
    analyze.add_argument(
        "figure", nargs="?", default=None,
        help="figure id whose first spec provides the simulated ensemble (omit with --ensemble)",
    )
    analyze.add_argument(
        "--ensemble", type=Path, default=None,
        help="analyze a saved EnsembleTrajectory .npz instead of simulating a figure spec",
    )
    analyze.add_argument(
        "--quantity", choices=("te", "lagged-mi", "both"), default="te",
        help="which pairwise matrix to compute (default: te)",
    )
    analyze.add_argument(
        "--particles", type=str, default=None, metavar="I,J,...",
        help="comma-separated particle indices (default: the first --max-particles)",
    )
    analyze.add_argument(
        "--max-particles", type=int, default=6,
        help="when --particles is omitted, analyze the first this-many particles (default: 6)",
    )
    analyze.add_argument("--lag", type=int, default=1, help="lag for the lagged-MI matrix")
    analyze.add_argument(
        "--step-stride", type=int, default=1,
        help="thin the trajectories to every this-many recorded steps before embedding",
    )
    analyze.add_argument(
        "--backend", choices=("dense", "kdtree", "auto"), default="auto",
        help="estimator backend: dense O(m^2) matrices, tree-backed queries, or pick by sample count",
    )
    analyze.add_argument("--n-jobs", type=int, default=None, help="process-pool width for the pair fan-out")
    analyze.add_argument(
        "--variant", default="ksg2",
        help="KSG estimator variant for the lagged-MI matrix: 'paper', 'ksg1' or "
        "'ksg2' (default: ksg2; the TE matrix always uses the KSG1-style CMI)",
    )
    analyze.add_argument("--quiet", action="store_true", help="suppress the matrix table")
    return parser


def _command_list(args: argparse.Namespace, stream) -> int:
    stream.write(f"{'figure':8s} {'specs':>5s}  {'n':>4s} {'l':>3s} {'force':>5s} {'r_c':>6s}  description\n")
    for figure, plan in all_figure_plans(full=args.full).items():
        specs = plan.specs()
        first = specs[0]
        cutoff = "inf" if first.simulation.cutoff is None else f"{first.simulation.cutoff:g}"
        stream.write(
            f"{figure:8s} {len(specs):5d}  {first.simulation.n_particles:4d} "
            f"{first.simulation.n_types:3d} {first.simulation.force:>5s} {cutoff:>6s}  "
            f"{first.description}\n"
        )
    return 0


def _given(args: argparse.Namespace, **fields: str) -> dict:
    """``{field: value}`` for every ``dest=field`` flag the command was given."""
    return {
        field: getattr(args, dest)
        for dest, field in fields.items()
        if getattr(args, dest, None) is not None
    }


def _override(spec: ExperimentSpec, args: argparse.Namespace) -> ExperimentSpec:
    """``spec`` with every spec override the command declares and was given."""
    changes = _given(args, seed="seed", samples="n_samples")
    simulation = _given(args, engine="engine", domain="domain", steps="n_steps")
    analysis = _given(args, estimator_backend="estimator_backend", analysis_workers="workers")
    if simulation:
        changes["simulation"] = spec.simulation.with_updates(**simulation)
    if analysis:
        changes["analysis"] = replace(spec.analysis, **analysis)
    return spec.with_updates(**changes)


def _resolve_plan(args: argparse.Namespace, limit: int | None, flag: str = "") -> ExperimentPlan:
    """The plan a figure command works on: looked up, cut to ``limit``, overridden.

    Every figure command resolves its figure here, so each refusal reads the
    same on every command: the plan is cut to the command's limit (``flag``
    names it) before the overrides are applied, so an override is checked
    only against the units the command will use.  A new spec override is a
    flag on a parent parser plus one entry in :func:`_override`.
    """
    if args.figure.lower() == "fig2":
        raise _CommandError("fig2 is analytic; use the 'curves' command instead.")
    try:
        plan = figure_plan(args.figure, full=args.full)
    except KeyError as exc:
        raise _CommandError(exc.args[0]) from None
    if limit is not None:
        if limit < 1:
            raise _CommandError(f"{flag} must be >= 1, got {limit}")
        plan = plan.limit(limit)
    try:
        # A malformed --domain, a periodic box smaller than twice the
        # figure's cut-off, --workers 0, a negative --seed or k >= --samples.
        plan = plan.map_specs(lambda spec: _override(spec, args))
    except (KeyError, ValueError) as exc:
        raise _CommandError(f"invalid override: {exc}") from None
    try:
        effective_n_jobs(getattr(args, "n_jobs", None))
    except ValueError as exc:
        raise _CommandError(f"invalid --n-jobs: {exc}") from None
    return plan


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
    plan = _resolve_plan(args, args.max_specs, "--max-specs")
    # One execution for the whole figure, without a store (always compute):
    # --n-jobs spreads a sweep figure's units over a process pool, and a lone
    # unit gets it for its own simulation batches.
    execution = plan.execute(None, n_jobs=args.n_jobs)
    for unit, result in zip(execution.units, execution.results):
        _write_run_outputs(unit.name, result.measurement, args, stream)
    if len(execution.units) > 1:
        stream.write(
            f"{args.figure.lower()}: mean delta I over {len(execution.units)} specs = "
            f"{execution.mean_delta_multi_information():+.3f} bits\n"
        )
    return 0


def _open_store(args: argparse.Namespace, *, create: bool) -> RunStoreBackend:
    try:
        return open_store(args.store, create=create)
    except RunStoreError as exc:
        message = str(exc)
        # "Start the sweep" is the fix for a missing *directory*; an
        # unreachable or non-store URL needs the service fixed instead.
        if not create and not str(args.store).startswith(("http://", "https://")):
            message += f"\nstart the sweep first: repro sweep {args.figure} --store {args.store}"
        raise _CommandError(message) from None


def _command_sweep(args: argparse.Namespace, stream) -> int:
    resuming = args.command == "resume"
    plan = _resolve_plan(args, args.max_units, "--max-units")
    store = _open_store(args, create=not resuming)
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
        raise _CommandError(f"{exc}\nthe store holds a damaged document; delete it and resume.") from None
    stream.write(
        f"{args.figure.lower()}: {len(execution.units)} unit(s), "
        f"{execution.n_cached} cached, {execution.n_computed} computed; "
        f"mean delta I = {execution.mean_delta_multi_information():+.3f} bits "
        f"({execution.wall_time_seconds:.1f} s); store: {args.store}\n"
    )
    return 0


def _command_status(args: argparse.Namespace, stream) -> int:
    plan = _resolve_plan(args, args.max_units, "--max-units")
    store = _open_store(args, create=False)
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
        raise _CommandError(str(exc)) from None
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
    plan = _resolve_plan(args, args.max_units, "--max-units")
    store = _open_store(args, create=False)
    figure = args.figure.lower()
    rows: list[dict] = []
    deltas: list[float] = []
    try:
        for unit in plan.status(None).units:  # deduplicated, plan order
            # 'watch --store' leaves an auxiliary metrics stream next to the
            # unit; report it so the cached artifacts are fully enumerated.
            has_metrics = store.has_metrics(unit.content_hash)
            metrics_note = " [metrics]" if has_metrics else ""
            cached = store.has(unit.content_hash)
            delta = None
            if cached:
                delta = float(store.load(unit.content_hash, with_ensemble=False).delta_multi_information)
                deltas.append(delta)
                stream.write(
                    f"  cached   {unit.name} ({unit.content_hash[:12]}): "
                    f"delta I = {delta:+.3f} bits{metrics_note}\n"
                )
            else:
                stream.write(f"  missing  {unit.name} ({unit.content_hash[:12]}){metrics_note}\n")
            rows.append(
                {
                    "name": unit.name,
                    "content_hash": unit.content_hash,
                    "cached": cached,
                    "delta_multi_information_bits": delta,
                    "has_metrics": has_metrics,
                }
            )
    except RunStoreError as exc:
        raise _CommandError(str(exc)) from None
    stream.write(f"{figure}: {len(deltas)}/{len(rows)} unit(s) cached in {args.store}")
    if deltas:
        stream.write(f"; mean delta I over cached = {float(np.mean(deltas)):+.3f} bits")
    stream.write("\n")
    if args.json is not None:
        path = save_json(args.json, {"figure": figure, "store": str(args.store), "units": rows})
        stream.write(f"query payload written to {path}\n")
    if len(deltas) == len(rows):
        return 0
    stream.write(f"complete the sweep: repro resume {figure} --store {args.store}\n")
    return 1


def _command_serve_store(args: argparse.Namespace, stream) -> int:
    from repro.io.service import serve_store

    if str(args.store).startswith(("http://", "https://")):
        raise _CommandError("serve-store fronts a local filesystem store; pass a directory path")
    try:
        server = serve_store(args.store, args.host, args.port, quiet=not args.verbose)
    except RunStoreError as exc:
        raise _CommandError(str(exc)) from None
    except OSError as exc:
        raise _CommandError(f"cannot bind {args.host}:{args.port}: {exc}") from None
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
            raise _CommandError(f"--max-particles must be >= 1, got {max_particles}")
        return list(range(min(max_particles, n_particles)))
    try:
        indices = [int(token) for token in spec.split(",") if token.strip() != ""]
    except ValueError as exc:
        raise _CommandError(f"--particles must be a comma-separated list of integers, got {spec!r}") from exc
    if not indices:
        raise _CommandError("--particles must name at least one particle")
    out_of_range = [index for index in indices if not 0 <= index < n_particles]
    if out_of_range:
        raise _CommandError(
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
        raise _CommandError(f"analyze: {exc}") from None

    if args.ensemble is not None:
        # Two sources, or a figure's flags on a saved ensemble: refused
        # rather than silently ignored.
        if args.figure is not None:
            raise _CommandError("analyze takes a figure id or --ensemble PATH, not both")
        for flag, given in (("--full", args.full), ("--seed", args.seed is not None)):
            if given:
                raise _CommandError(f"analyze: {flag} selects a figure's spec; it has no effect with --ensemble")
        ensemble = EnsembleTrajectory.load(args.ensemble)
        name = args.ensemble.stem
    elif args.figure is not None:
        from repro.core.pipeline import run_simulation_only

        (spec,) = _resolve_plan(args, 1).specs()
        ensemble, _simulator = run_simulation_only(
            spec.simulation, spec.n_samples, seed=spec.seed, n_jobs=args.n_jobs
        )
        name = spec.name
    else:
        raise _CommandError("analyze needs a figure id or --ensemble PATH")

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
        raise _CommandError(f"analyze: {exc}") from None
    path = save_json(args.output / f"{name}_infodynamics.json", payload)
    stream.write(f"information-dynamics results written to {path}\n")
    return 0


def _command_watch(args: argparse.Namespace, stream) -> int:
    """Run a figure spec with a live monitor attached and stream its metrics.

    The monitor observes every recorded ensemble frame without perturbing the
    run (the trajectory stays bit-identical to an unobserved one) and each
    emitted value equals the post-hoc estimator on the same window.
    """
    from repro.monitor import (
        InformationMonitor,
        MetricsStream,
        StreamingMultiInformation,
        StreamingTransferEntropy,
    )
    from repro.particles.ensemble import EnsembleSimulator
    from repro.viz import sparkline

    (spec,) = _resolve_plan(args, 1).specs()
    simulation = spec.simulation
    if args.window < 2:
        raise _CommandError(f"--window must be >= 2, got {args.window}")
    if args.stride < 1:
        raise _CommandError(f"--stride must be >= 1, got {args.stride}")
    if args.window > simulation.n_steps + 1:
        raise _CommandError(
            f"--window {args.window} never fills: this run records "
            f"{simulation.n_steps + 1} frame(s); lower --window or raise --steps"
        )

    particles = None
    if args.particles is not None:
        particles = _parse_particles(args.particles, simulation.n_particles, 1)
    names = [token.strip() for token in args.metrics.split(",") if token.strip()]
    if not names:
        raise _CommandError("watch: --metrics named no metric")
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
                raise _CommandError(
                    "watch: transfer_entropy needs two particles; pass "
                    "--particles I,J or drop it from --metrics"
                )
            if args.window <= args.history:
                raise _CommandError(
                    f"watch: --window {args.window} leaves no transitions for "
                    f"--history {args.history}; widen the window"
                )
            estimators.append(
                StreamingTransferEntropy(
                    pair[0], pair[1], history=args.history, k=args.k,
                    backend=args.backend, workers=args.workers,
                )
            )
        else:
            raise _CommandError(
                f"watch: unknown metric {name!r}; expected 'multi_information' "
                "or 'transfer_entropy'"
            )

    # Open before simulating so a bad store spec fails in milliseconds, not
    # after the run.
    store = None if args.store is None else _open_store(args, create=True)

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
    simulator = EnsembleSimulator(simulation, spec.n_samples, seed=spec.seed)
    simulator.add_observer(monitor)
    try:
        simulator.run()
    except ValueError as exc:
        # e.g. an ensemble too large for one observer batch, or a k too
        # large for this window's sample count.
        raise _CommandError(f"watch: {exc}") from None
    finally:
        metrics.close()

    for name in metrics.metrics():
        values = metrics.values(name)
        stream.write(
            f"{args.figure.lower()}: {name}: {len(values)} emission(s), last {values[-1]:+.4f} "
            f"bits  |{sparkline(values, width=48)}|\n"
        )
    if args.emit is not None:
        stream.write(f"metrics stream written to {args.emit}\n")
    if store is not None:
        unit = RunUnit(spec)
        try:
            store.save_metrics(unit.content_hash, metrics.to_jsonl())
        except RunStoreError as exc:
            raise _CommandError(str(exc)) from None
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
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args, stream)
    except _CommandError as exc:
        stream.write(f"{exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
