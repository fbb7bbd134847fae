"""Declarative experiment plans: composable sweeps, content-addressed caching.

The one-shot entry point :func:`repro.core.pipeline.run_experiment` recomputes
everything on every call.  This module turns experiment orchestration into a
*data structure*:

1. an :class:`ExperimentPlan` is a composable tree of sweep nodes —
   :func:`single` specs, :func:`chain` concatenation and :func:`grid`
   cartesian products over spec fields;
2. the tree *lowers* to a flat list of :class:`RunUnit`\\ s, each carrying a
   stable content hash derived from the unit's full
   :class:`~repro.particles.model.SimulationConfig`,
   :class:`~repro.core.self_organization.AnalysisConfig`, seed and ensemble
   size (cosmetic fields — name, description, tags — do not enter the hash);
3. :meth:`ExperimentPlan.execute` fans the units out through
   :func:`repro.parallel.pool.parallel_starmap`, skips units whose hash is
   already present in a :class:`~repro.io.artifacts.RunStore`, and persists
   every freshly computed result under its hash.

Because a unit's hash is a pure function of its specification, re-executing a
plan against the same store after an interruption runs *only* the missing
units and returns results bit-identical to an uninterrupted run — the store
documents are deterministic (volatile wall-time diagnostics are stripped).
Progress is observable through the pluggable :class:`PlanObserver` hook.

Sweep axes are dotted paths into the spec: top-level
:class:`~repro.core.experiments.ExperimentSpec` fields (``"n_samples"``,
``"seed"``), or nested ``"simulation.<field>"`` / ``"analysis.<field>"``
updates (``__`` may be used instead of ``.`` so axes can be passed as plain
keyword arguments)::

    plan = grid(base_spec, **{"simulation.cutoff": [2.5, 7.5, None]})
    execution = plan.execute(store=RunStore("results/store"), n_jobs=4)
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import secrets
import socket
import threading
import time
from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.core.pipeline import ExperimentResult, run_experiment
from repro.io.artifacts import DEFAULT_LEASE_TTL_SECONDS
from repro.parallel.pool import parallel_starmap_unordered
from repro.particles.model import RETIRED_HASH_FIELDS

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a circular import
    from repro.core.experiments import ExperimentSpec
    from repro.io.artifacts import RunStoreBackend

__all__ = [
    "RunUnit",
    "ExperimentPlan",
    "PlanExecution",
    "PlanStatus",
    "PlanObserver",
    "ConsoleObserver",
    "single",
    "chain",
    "grid",
    "unit_content_hash",
]


# --------------------------------------------------------------------------- #
# run units and content hashing
# --------------------------------------------------------------------------- #
def unit_content_hash(spec: "ExperimentSpec") -> str:
    """Stable content hash of a fully specified experiment.

    The hash covers everything that determines the numbers an execution
    produces — the full simulation config (including performance knobs such
    as ``engine``, which never change results but are hashed conservatively),
    the full analysis config, the seed and the ensemble size.  Cosmetic
    fields (name, description, expectation, tags) are excluded, so renaming a
    sweep point never invalidates its cache entry — and so is the analysis
    ``workers`` thread count, a pure throughput knob that never changes any
    result (``estimator_backend`` stays hashed: backends agree only to
    float tolerance).  The retired simulation fields are hashed at the
    values they always had (:data:`~repro.particles.model.RETIRED_HASH_FIELDS`),
    which keeps every hash computed while they existed.
    """
    analysis = spec.analysis.to_dict()
    analysis.pop("workers", None)
    payload = {
        "simulation": {**spec.simulation.to_dict(), **RETIRED_HASH_FIELDS},
        "analysis": analysis,
        "n_samples": int(spec.n_samples),
        "seed": int(spec.seed),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf8")).hexdigest()


@dataclass(frozen=True)
class RunUnit:
    """One executable cell of a plan: a spec plus its content hash."""

    spec: "ExperimentSpec"

    @cached_property
    def content_hash(self) -> str:
        """Content hash of the unit (see :func:`unit_content_hash`)."""
        return unit_content_hash(self.spec)

    @property
    def name(self) -> str:
        return self.spec.name

    def execute(self, *, n_jobs: int | None = None, keep_ensemble: bool = False) -> ExperimentResult:
        """Run the unit through the standard pipeline (no caching involved)."""
        return _execute_spec(self.spec, keep_ensemble, n_jobs)


def _execute_spec(
    spec: "ExperimentSpec", keep_ensemble: bool = False, n_jobs: int | None = None
) -> ExperimentResult:
    """Top-level worker so plan execution can fan units out across processes."""
    return run_experiment(
        spec.simulation,
        spec.n_samples,
        analysis_config=spec.analysis,
        seed=spec.seed,
        n_jobs=n_jobs,
        keep_ensemble=keep_ensemble,
    )


# --------------------------------------------------------------------------- #
# sweep axes
# --------------------------------------------------------------------------- #
def _normalise_axis(path: str) -> str:
    """Allow ``simulation__cutoff`` as a keyword-friendly alias of ``simulation.cutoff``."""
    return path.replace("__", ".")


def _apply_axis(spec: "ExperimentSpec", path: str, value: Any) -> "ExperimentSpec":
    """Return a copy of ``spec`` with the dotted-path field replaced."""
    head, dot, leaf = path.partition(".")
    try:
        if not dot:
            return spec.with_updates(**{head: value})
        if head == "simulation":
            return spec.with_updates(simulation=spec.simulation.with_updates(**{leaf: value}))
        if head == "analysis":
            return spec.with_updates(analysis=replace(spec.analysis, **{leaf: value}))
    except TypeError as exc:
        raise ValueError(f"unknown sweep axis {path!r}: {exc}") from exc
    raise ValueError(
        f"unknown sweep axis {path!r}; use a top-level ExperimentSpec field, "
        f"'simulation.<field>' or 'analysis.<field>'"
    )


def _axis_token(path: str, value: Any) -> str:
    """Compact ``<leaf><value>`` token used to derive swept spec names."""
    leaf = path.rpartition(".")[2]
    if value is None:
        text = "none"
    elif isinstance(value, float):
        text = f"{value:g}"
    else:
        text = str(value)
    return f"{leaf}{text.replace(' ', '')}"


def _apply_combination(
    spec: "ExperimentSpec", paths: Sequence[str], values: Sequence[Any]
) -> "ExperimentSpec":
    out = spec
    for path, value in zip(paths, values):
        out = _apply_axis(out, path, value)
    tokens = "_".join(_axis_token(path, value) for path, value in zip(paths, values))
    return out.with_updates(name=f"{spec.name}__{tokens}")


# --------------------------------------------------------------------------- #
# plan tree nodes
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class _PlanNode:
    """Base node; subclasses lower themselves to a flat spec list."""

    def specs(self) -> list["ExperimentSpec"]:  # pragma: no cover - abstract
        raise NotImplementedError


@dataclass(frozen=True)
class _Single(_PlanNode):
    spec: "ExperimentSpec"

    def specs(self) -> list["ExperimentSpec"]:
        return [self.spec]


@dataclass(frozen=True)
class _Chain(_PlanNode):
    children: tuple[_PlanNode, ...]

    def specs(self) -> list["ExperimentSpec"]:
        out: list["ExperimentSpec"] = []
        for child in self.children:
            out.extend(child.specs())
        return out


@dataclass(frozen=True)
class _Sweep(_PlanNode):
    base: _PlanNode
    paths: tuple[str, ...]
    values: tuple[tuple[Any, ...], ...]  # one tuple of axis values per combination

    def specs(self) -> list["ExperimentSpec"]:
        out: list["ExperimentSpec"] = []
        for spec in self.base.specs():
            for combination in self.values:
                out.append(_apply_combination(spec, self.paths, combination))
        return out


def _as_node(plan_or_spec: "ExperimentPlan | ExperimentSpec") -> _PlanNode:
    if isinstance(plan_or_spec, ExperimentPlan):
        return plan_or_spec._root
    return _Single(plan_or_spec)


# --------------------------------------------------------------------------- #
# observers
# --------------------------------------------------------------------------- #
class PlanObserver:
    """Pluggable progress hook for plan execution (all methods are no-ops).

    ``on_unit_start`` fires before a unit is (or a batch of units are)
    submitted; ``on_unit_complete`` fires once its result is available, with
    ``cached=True`` when the result was served from the store without
    recomputation.  Under a process pool the start hooks for one batch fire
    before the completion hooks, and completions arrive in *completion*
    order (nondeterministic across workers); serial execution completes in
    plan order.  :class:`PlanExecution` results are always in plan order.
    """

    def on_plan_start(self, units: list[RunUnit], missing: list[RunUnit]) -> None:
        """Called once, with the deduplicated units and the subset to be computed."""

    def on_unit_start(self, unit: RunUnit, index: int, total: int) -> None:
        """Called before unit ``index`` (0-based, of ``total`` to compute) runs."""

    def on_unit_complete(self, unit: RunUnit, result: ExperimentResult, cached: bool) -> None:
        """Called when a unit's result is available (freshly computed or cached)."""

    def on_plan_complete(self, execution: "PlanExecution") -> None:
        """Called once with the finished execution."""


class ConsoleObserver(PlanObserver):
    """Writes one progress line per unit to a stream (the CLI's observer)."""

    def __init__(self, stream) -> None:
        self.stream = stream

    def on_plan_start(self, units: list[RunUnit], missing: list[RunUnit]) -> None:
        cached = len(units) - len(missing)
        self.stream.write(
            f"plan: {len(units)} unit(s), {cached} cached, {len(missing)} to compute\n"
        )

    def on_unit_complete(self, unit: RunUnit, result: ExperimentResult, cached: bool) -> None:
        origin = "cached  " if cached else "computed"
        self.stream.write(
            f"  [{origin}] {unit.name} ({unit.content_hash[:12]}): "
            f"delta I = {result.delta_multi_information:+.3f} bits\n"
        )


# --------------------------------------------------------------------------- #
# execution results
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class PlanStatus:
    """Cache status of a plan against a store (nothing is executed)."""

    units: tuple[RunUnit, ...]
    cached: tuple[RunUnit, ...]
    missing: tuple[RunUnit, ...]

    @property
    def n_units(self) -> int:
        return len(self.units)

    @property
    def n_cached(self) -> int:
        return len(self.cached)

    @property
    def n_missing(self) -> int:
        return len(self.missing)

    @property
    def complete(self) -> bool:
        return not self.missing


@dataclass(frozen=True)
class PlanExecution:
    """Results of one :meth:`ExperimentPlan.execute` call.

    ``results`` is aligned with the plan's unit order (duplicated units share
    one result object).  ``computed`` / ``cached`` hold the content hashes
    that were freshly run vs. served from the store; ``external`` holds units
    that a *concurrent* worker on the same store computed while this
    execution ran — they were missing at the start, another worker's lease
    covered them, and their results were loaded once that worker committed.
    """

    units: tuple[RunUnit, ...]
    results: tuple[ExperimentResult, ...]
    computed: tuple[str, ...]
    cached: tuple[str, ...]
    wall_time_seconds: float = 0.0
    external: tuple[str, ...] = ()

    @property
    def n_computed(self) -> int:
        return len(self.computed)

    @property
    def n_cached(self) -> int:
        return len(self.cached)

    @property
    def n_external(self) -> int:
        return len(self.external)

    def summaries(self) -> list[dict[str, Any]]:
        """Compact per-unit summaries (see :meth:`ExperimentResult.summary`)."""
        return [result.summary() for result in self.results]

    def mean_delta_multi_information(self) -> float:
        """Mean ΔI over the plan's units — the quantity the sweep figures average."""
        return float(np.mean([r.delta_multi_information for r in self.results]))


# --------------------------------------------------------------------------- #
# the plan
# --------------------------------------------------------------------------- #
class ExperimentPlan:
    """A composable tree of experiment sweeps that lowers to run units.

    Construct plans with :func:`single`, :func:`grid` and :func:`chain`,
    or from a flat spec list with :meth:`from_specs`.  Plans are immutable;
    every combinator returns a new plan.
    """

    def __init__(self, root: _PlanNode) -> None:
        self._root = root

    # construction ------------------------------------------------------- #
    @classmethod
    def from_specs(cls, specs: Iterable["ExperimentSpec"]) -> "ExperimentPlan":
        """Chain a flat list of specs into a plan (one unit per spec)."""
        return cls(_Chain(tuple(_Single(spec) for spec in specs)))

    def map_specs(self, fn: Callable[["ExperimentSpec"], "ExperimentSpec"]) -> "ExperimentPlan":
        """Apply ``fn`` to every lowered spec (e.g. engine overrides); returns a new plan."""
        return ExperimentPlan.from_specs(fn(spec) for spec in self.specs())

    def limit(self, n_units: int) -> "ExperimentPlan":
        """Keep only the first ``n_units`` units (useful for smoke runs)."""
        if n_units < 1:
            raise ValueError("n_units must be >= 1")
        return ExperimentPlan.from_specs(self.specs()[:n_units])

    # lowering ----------------------------------------------------------- #
    def specs(self) -> list["ExperimentSpec"]:
        """Lower the tree to the flat spec list (plan order)."""
        return self._root.specs()

    @cached_property
    def _units(self) -> tuple[RunUnit, ...]:
        return tuple(RunUnit(spec) for spec in self.specs())

    def units(self) -> list[RunUnit]:
        """Lower the tree to the flat list of content-hashed run units.

        A plan is immutable, so it is lowered once: every call returns the
        same units, and each hashes its spec at most once however often the
        plan is executed.
        """
        return list(self._units)

    def __len__(self) -> int:
        return len(self._units)

    def __iter__(self) -> Iterator[RunUnit]:
        return iter(self._units)

    # cache interrogation ------------------------------------------------ #
    def status(self, store: "RunStoreBackend | None") -> PlanStatus:
        """Which units are already in the store, without executing anything."""
        units = self._unique_units()
        if store is None:
            return PlanStatus(units=tuple(units), cached=(), missing=tuple(units))
        # One has() per unit: a round trip each on an HTTP store, and a unit
        # a peer commits mid-scan still lands in exactly one of the two lists.
        present = {unit.content_hash: store.has(unit.content_hash) for unit in units}
        cached = tuple(u for u in units if present[u.content_hash])
        missing = tuple(u for u in units if not present[u.content_hash])
        return PlanStatus(units=tuple(units), cached=cached, missing=missing)

    def _unique_units(self, units: list[RunUnit] | None = None) -> list[RunUnit]:
        seen: dict[str, RunUnit] = {}
        for unit in self.units() if units is None else units:
            seen.setdefault(unit.content_hash, unit)
        return list(seen.values())

    # execution ---------------------------------------------------------- #
    def execute(
        self,
        store: "RunStoreBackend | None" = None,
        *,
        n_jobs: int | None = None,
        observer: PlanObserver | None = None,
        recompute: bool = False,
        keep_ensembles: bool = False,
        lease_ttl_seconds: float = DEFAULT_LEASE_TTL_SECONDS,
        lease_poll_seconds: float = 0.5,
    ) -> PlanExecution:
        """Execute the plan, skipping units already present in ``store``.

        Parameters
        ----------
        store:
            Content-addressed result cache — any
            :class:`~repro.io.artifacts.RunStoreBackend` (a local filesystem
            :class:`~repro.io.artifacts.RunStore`, or an
            :class:`~repro.io.remote.HTTPRunStore` for a store shared
            between hosts).  Units whose hash is present are *not*
            recomputed — their persisted results are loaded bit-identically.
            Freshly computed units are persisted as their results arrive
            (not after the whole batch), so an interrupted execution loses
            at most the in-flight units and resumes where it stopped.
            ``None`` disables caching entirely (every unit runs).

            With a store, missing units are **leased** before computing:
            any number of concurrent executions of the same plan against
            one store partition the sweep between them — each worker
            computes the units it leases, waits on (and then loads) units
            another live worker holds, and steals leases whose holders
            crashed.  Saves are write-once, so even a duplicated compute
            (possible only across a lease expiry) never rewrites a
            committed document.
        n_jobs:
            Process-pool width for the unit fan-out (``None``/1 = serial).
            Each unit's own simulation runs serially inside its worker; the
            per-sample RNG streams make results independent of this knob.
        observer:
            Progress hook; defaults to the silent :class:`PlanObserver`.
            Units computed by a *concurrent* worker surface through
            ``on_unit_complete(..., cached=True)`` once loaded.
        recompute:
            Ignore cache hits and recompute (and re-persist) every unit.
            Concurrent workers still lease, so a recompute sweep shared
            between workers recomputes every unit exactly once overall.
        keep_ensembles:
            Attach raw trajectories to results and persist them as ``.npz``
            next to the JSON documents (memory- and disk-heavy).  A cached
            unit counts as a hit only when its *document references* a
            persisted ensemble — a bare sibling ``.npz`` may be an orphan
            from a crashed save — otherwise it is recomputed (its document
            is rewritten with the ensemble reference).
        lease_ttl_seconds:
            Lease lifetime; held leases are renewed at a third of this, so
            the TTL only bounds how long a crashed worker's units stay
            blocked for other workers.
        lease_poll_seconds:
            How often to re-check the store while every remaining unit is
            leased by other workers.
        """
        observer = observer or PlanObserver()
        t0 = time.perf_counter()
        all_units = self.units()
        unique_units = self._unique_units(all_units)

        def is_cached(unit: RunUnit) -> bool:
            if store is None or recompute or not store.has(unit.content_hash):
                return False
            # A cache hit must satisfy the *whole* request: when ensembles
            # are asked for, the document itself must reference a persisted
            # archive.  (Checking for a sibling .npz file is NOT enough — an
            # orphaned archive from a crashed save sits beside a document
            # with no ensemble reference, and loading that "hit" would
            # silently return ensemble=None.)
            return not keep_ensembles or store.provides_ensemble(unit.content_hash)

        cache_flags = {unit.content_hash: is_cached(unit) for unit in unique_units}
        cached_units = [u for u in unique_units if cache_flags[u.content_hash]]
        missing_units = [u for u in unique_units if not cache_flags[u.content_hash]]
        observer.on_plan_start(unique_units, missing_units)

        results_by_hash: dict[str, ExperimentResult] = {}
        for unit in cached_units:
            # Skip the (potentially huge) raw-ensemble .npz unless this
            # execution actually asked for ensembles.
            result = store.load(unit.content_hash, with_ensemble=keep_ensembles)
            results_by_hash[unit.content_hash] = result
            observer.on_unit_complete(unit, result, cached=True)

        computed_hashes: list[str] = []
        external_hashes: list[str] = []
        if missing_units:
            if store is None:
                for index, unit in enumerate(missing_units):
                    observer.on_unit_start(unit, index, len(missing_units))
                for index, result in _compute_batch(missing_units, keep_ensembles, n_jobs):
                    unit = missing_units[index]
                    results_by_hash[unit.content_hash] = result
                    computed_hashes.append(unit.content_hash)
                    observer.on_unit_complete(unit, result, cached=False)
            else:
                computed_hashes, external_hashes = self._execute_shared(
                    store,
                    missing_units,
                    results_by_hash,
                    observer,
                    n_jobs=n_jobs,
                    recompute=recompute,
                    keep_ensembles=keep_ensembles,
                    lease_ttl_seconds=lease_ttl_seconds,
                    lease_poll_seconds=lease_poll_seconds,
                )

        execution = PlanExecution(
            units=tuple(all_units),
            results=tuple(results_by_hash[u.content_hash] for u in all_units),
            computed=tuple(computed_hashes),
            cached=tuple(u.content_hash for u in cached_units),
            wall_time_seconds=time.perf_counter() - t0,
            external=tuple(external_hashes),
        )
        observer.on_plan_complete(execution)
        return execution

    def _execute_shared(
        self,
        store: "RunStoreBackend",
        missing_units: list[RunUnit],
        results_by_hash: dict[str, ExperimentResult],
        observer: PlanObserver,
        *,
        n_jobs: int | None,
        recompute: bool,
        keep_ensembles: bool,
        lease_ttl_seconds: float,
        lease_poll_seconds: float,
    ) -> tuple[list[str], list[str]]:
        """Drain missing units against a (possibly shared) store via leases.

        Each pass leases whatever it can and computes that batch; units held
        by other live workers are waited on and their committed results
        loaded (``external``).  A lease whose holder stopped renewing (a
        crash) expires and is stolen on a later pass — the only window in
        which a unit can be computed twice, and the write-once save makes
        even that window persistence-safe.
        """
        owner = f"{socket.gethostname()}-{os.getpid()}-{secrets.token_hex(4)}"
        keeper = _LeaseKeeper(store, owner, lease_ttl_seconds)
        keeper.start()
        computed_hashes: list[str] = []
        external_hashes: list[str] = []
        total = len(missing_units)
        started = 0
        pending = list(missing_units)

        def committed(unit: RunUnit) -> bool:
            # Under ``recompute`` nothing is ever adopted — this worker
            # insists on computing, so it waits its turn for the lease.
            return (
                not recompute
                and store.has(unit.content_hash)
                and (not keep_ensembles or store.provides_ensemble(unit.content_hash))
            )

        def adopt(unit: RunUnit) -> None:
            result = store.load(unit.content_hash, with_ensemble=keep_ensembles)
            results_by_hash[unit.content_hash] = result
            external_hashes.append(unit.content_hash)
            observer.on_unit_complete(unit, result, cached=True)

        try:
            while pending:
                # A finished worker releases its lease right after saving, so
                # a freed lease says nothing about the unit: adopt whatever a
                # concurrent worker committed *before* leasing, and check
                # again *after* a successful acquire — the peer may have
                # committed and released between the two calls.
                mine: list[RunUnit] = []
                held_elsewhere: list[RunUnit] = []
                for unit in pending:
                    if committed(unit):
                        adopt(unit)
                    elif not store.try_acquire_lease(unit.content_hash, owner, lease_ttl_seconds):
                        held_elsewhere.append(unit)
                    else:
                        keeper.track(unit.content_hash)
                        if committed(unit):
                            keeper.untrack(unit.content_hash)
                            store.release_lease(unit.content_hash, owner)
                            adopt(unit)
                        else:
                            mine.append(unit)
                if mine:
                    for unit in mine:
                        observer.on_unit_start(unit, started, total)
                        started += 1
                    # Results surface in *completion* order and every unit is
                    # persisted the moment its result arrives — a slow early
                    # unit never holds finished ones hostage, so an
                    # interruption loses only the genuinely in-flight units.
                    for index, result in _compute_batch(mine, keep_ensembles, n_jobs):
                        unit = mine[index]
                        # Write-once unless the caller explicitly asked to
                        # recompute: if a lease expired and another worker
                        # committed this unit first, the save is a no-op.
                        store.save(unit, result, overwrite=recompute)
                        keeper.untrack(unit.content_hash)
                        store.release_lease(unit.content_hash, owner)
                        results_by_hash[unit.content_hash] = result
                        computed_hashes.append(unit.content_hash)
                        observer.on_unit_complete(unit, result, cached=False)
                    pending = held_elsewhere
                    continue
                # Every remaining unit is leased by another live worker:
                # poll until a result lands (adopted by the next pass) or a
                # dead worker's lease expires (stolen by the next pass).
                if held_elsewhere:
                    time.sleep(lease_poll_seconds)
                pending = held_elsewhere
        finally:
            # Always drop every lease still held — a failed save (or an
            # observer raising) must not block other workers (or a later
            # execution in this very process) until the TTL runs out.
            keeper.stop()
            for content_hash in keeper.tracked():
                try:
                    store.release_lease(content_hash, owner)
                except Exception:  # pragma: no cover - store died mid-teardown
                    pass
        return computed_hashes, external_hashes


def _compute_batch(
    units: list[RunUnit], keep_ensembles: bool, n_jobs: int | None
) -> Iterator[tuple[int, ExperimentResult]]:
    """Compute a batch of units, yielding ``(index, result)`` in completion order."""
    if len(units) == 1:
        # A lone unit gets the whole budget as *inner* (simulation batch)
        # parallelism instead of a pointless one-task pool — this keeps
        # `run --n-jobs` behaving as before the plan layer.
        return iter([(0, _execute_spec(units[0].spec, keep_ensembles, n_jobs))])
    return parallel_starmap_unordered(
        _execute_spec,
        [(unit.spec, keep_ensembles) for unit in units],
        n_jobs=n_jobs,
    )


class _LeaseKeeper(threading.Thread):
    """Daemon thread renewing the leases one plan execution currently holds.

    Renewal at a third of the TTL keeps live computations' leases from
    expiring no matter how long a unit takes; renewals are best-effort — a
    missed one only widens the (already persistence-safe) duplicate-compute
    window.
    """

    def __init__(self, store: "RunStoreBackend", owner: str, ttl_seconds: float) -> None:
        super().__init__(name="plan-lease-keeper", daemon=True)
        self._store = store
        self._owner = owner
        self._ttl = float(ttl_seconds)
        self._held: set[str] = set()
        self._lock = threading.Lock()
        self._stopped = threading.Event()

    def track(self, content_hash: str) -> None:
        with self._lock:
            self._held.add(content_hash)

    def untrack(self, content_hash: str) -> None:
        with self._lock:
            self._held.discard(content_hash)

    def tracked(self) -> list[str]:
        with self._lock:
            return sorted(self._held)

    def stop(self) -> None:
        self._stopped.set()

    def run(self) -> None:
        interval = max(0.05, self._ttl / 3.0)
        while not self._stopped.wait(interval):
            for content_hash in self.tracked():
                try:
                    self._store.renew_lease(content_hash, self._owner, self._ttl)
                except Exception:  # noqa: BLE001 - keep renewing the rest
                    continue


# --------------------------------------------------------------------------- #
# combinator functions (the public construction vocabulary)
# --------------------------------------------------------------------------- #
def single(spec: "ExperimentSpec") -> ExperimentPlan:
    """Plan with exactly one unit."""
    return ExperimentPlan(_Single(spec))


def chain(*plans: "ExperimentPlan | ExperimentSpec") -> ExperimentPlan:
    """Concatenate plans (or bare specs) into one plan; units run in order."""
    if not plans:
        raise ValueError("chain needs at least one plan")
    return ExperimentPlan(_Chain(tuple(_as_node(p) for p in plans)))


def grid(base: "ExperimentPlan | ExperimentSpec", **axes: Iterable[Any]) -> ExperimentPlan:
    """Cartesian-product sweep: every combination of axis values applied to ``base``.

    Axes are dotted paths (``"simulation.cutoff"``; ``simulation__cutoff``
    works as a plain keyword).  ``base`` may itself be a plan, in which case
    the product is taken over *each* of its specs.
    """
    if not axes:
        raise ValueError("a sweep needs at least one axis")
    paths = tuple(_normalise_axis(path) for path in axes)
    value_lists = [list(values) for values in axes.values()]
    if any(len(values) == 0 for values in value_lists):
        raise ValueError("sweep axes must be non-empty")
    return ExperimentPlan(_Sweep(_as_node(base), paths, tuple(itertools.product(*value_lists))))
