"""Content-addressed persistence of plan run units.

A run store is the cache behind :meth:`repro.core.plan.ExperimentPlan.execute`:
every executed :class:`~repro.core.plan.RunUnit` is persisted under its
content hash as a JSON document (``units/<hash>.json``), with the raw ensemble
optionally kept as a sibling ``units/<hash>.npz``.

Two implementations share one interface, the :class:`RunStoreBackend`
protocol: the filesystem :class:`RunStore` defined here (the reference
implementation) and the HTTP client in :mod:`repro.io.remote`, which talks to
a ``repro serve-store`` server fronting a filesystem store on another host.
:func:`repro.io.remote.open_store` picks the backend from a path-or-URL spec.

Design points:

* **Deterministic documents** — the stored JSON is a pure function of the
  unit's specification and its (seeded, hence reproducible) result: volatile
  wall-time diagnostics are stripped before writing (:func:`build_document` /
  :func:`encode_document` are shared by every backend, so a document is
  byte-identical no matter which backend persisted it).  Re-executing a plan
  against a warm store therefore leaves every byte of the store untouched,
  which is what makes resumed sweeps bit-identical to uninterrupted ones.
* **Write-once commits** — on a store shared between concurrent workers,
  ``save(..., overwrite=False)`` never rewrites a document that already
  satisfies the request: the filesystem backend commits with an exclusive
  hard-link rename, the HTTP backend with a content-hash-conditional PUT.
  Combined with the deterministic bytes, "first writer wins" and every later
  writer is a no-op.
* **Atomic, durable writes** — documents are written to a temporary sibling,
  fsynced, and renamed into place (the containing directory is fsynced too),
  so an interrupted execution — or a power loss right after it — never
  leaves a truncated document behind; at worst the unit is simply missing
  and is recomputed on resume.  The raw-ensemble ``.npz`` is committed
  *before* its JSON document, so a crash between the two can only leave an
  **orphaned** archive (never a document referencing a missing archive);
  orphans are ignored by every read path and can be listed/removed with
  :meth:`RunStore.orphaned_files` / :meth:`RunStore.sweep_orphans` (the CLI
  ``status`` command reports them; ``status --sweep-orphans`` deletes them —
  deletion is opt-in because on a *shared* store another host's clock skew
  can make a live writer's in-flight file look older than it is).
* **Leases, not locks** — concurrent workers draining one plan coordinate
  through advisory, expiring leases (``leases/<hash>.json``): a worker
  leases a unit before computing it, renews the lease while the computation
  runs, and releases it after the save.  A crashed worker's lease simply
  expires, so the unit is picked up again — at-most-rare duplicate compute,
  and never duplicate persistence (see above).
* **Readable layout** — documents are indented, sorted JSON carrying the full
  configs, so a store can be inspected (and diffed) with standard tools.
"""

from __future__ import annotations

import abc
import json
import os
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

import numpy as np

from repro.core.pipeline import ExperimentResult
from repro.core.self_organization import AnalysisConfig, SelfOrganizationResult
from repro.particles.model import SimulationConfig
from repro.particles.trajectory import EnsembleTrajectory

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.plan import RunUnit

__all__ = [
    "RunStore",
    "RunStoreBackend",
    "RunStoreError",
    "ORPHAN_MIN_AGE_SECONDS",
    "DEFAULT_LEASE_TTL_SECONDS",
    "build_document",
    "encode_document",
    "metrics_artifact_name",
]

_HASH_LENGTH = 64  # sha256 hexdigest

#: Grace period before a stray file counts as an orphan: younger files may
#: belong to a live writer in another process (mid-save, between its .npz
#: and JSON commits), which a sweep must never touch.
ORPHAN_MIN_AGE_SECONDS = 3600.0

#: Default lease lifetime.  Holders renew well before expiry (the plan
#: executor renews at a third of the TTL), so the TTL only bounds how long a
#: *crashed* worker blocks other workers from picking its unit up.
DEFAULT_LEASE_TTL_SECONDS = 60.0


class RunStoreError(RuntimeError):
    """A store (directory or service) or document is missing, truncated or malformed."""


def _as_hash(unit_or_hash: "RunUnit | str") -> str:
    content_hash = getattr(unit_or_hash, "content_hash", unit_or_hash)
    if not isinstance(content_hash, str) or len(content_hash) != _HASH_LENGTH:
        raise ValueError(f"expected a RunUnit or a sha256 hex digest, got {unit_or_hash!r}")
    return content_hash


def build_document(unit: "RunUnit", result: ExperimentResult) -> dict[str, Any]:
    """The deterministic JSON document of a unit's result (no ensemble entry).

    It carries the full experiment result except the raw ensemble.  Volatile
    wall-time diagnostics are stripped so the bytes depend only on the unit's
    specification and its seeded result.  Backends that persist a raw
    ensemble add the ``unit.ensemble`` reference themselves, *after* the
    archive is durably committed.
    """
    summary = result.summary()
    summary["wall_time_seconds"] = {}
    return {
        "summary": summary,
        "simulation_config": result.simulation_config.to_dict(),
        "analysis_config": result.analysis_config.to_dict(),
        "n_samples": result.n_samples,
        "seed": result.seed,
        "measurement": result.measurement.to_dict(),
        "mean_force_norm": result.mean_force_norm.tolist(),
        "fraction_at_equilibrium": result.fraction_at_equilibrium,
        "wall_time_seconds": {},
        "unit": {
            "name": unit.spec.name,
            "description": unit.spec.description,
            "tags": list(unit.spec.tags),
            "content_hash": unit.content_hash,
        },
    }


def _result_from_document(document: dict[str, Any]) -> ExperimentResult:
    """Inverse of :func:`build_document` (``ensemble`` is ``None``)."""
    return ExperimentResult(
        simulation_config=SimulationConfig.from_dict(document["simulation_config"]),
        analysis_config=AnalysisConfig.from_dict(document["analysis_config"]),
        n_samples=int(document["n_samples"]),
        seed=None if document["seed"] is None else int(document["seed"]),
        measurement=SelfOrganizationResult.from_dict(document["measurement"]),
        mean_force_norm=np.asarray(document["mean_force_norm"], dtype=float),
        fraction_at_equilibrium=float(document["fraction_at_equilibrium"]),
        ensemble=None,
        wall_time_seconds=dict(document.get("wall_time_seconds", {})),
    )


def encode_document(document: dict[str, Any]) -> str:
    """Canonical text encoding of a store document (shared by all backends)."""
    return json.dumps(document, indent=2, sort_keys=True)


def metrics_artifact_name(unit_or_hash: "RunUnit | str") -> str:
    """Name of a unit's auxiliary live-metrics artifact (JSONL).

    The ``.metrics.jsonl`` suffix keeps the artifact out of :meth:`RunStore
    .keys` (which globs ``*.json``) and out of the orphan sweep — it is pure
    sidecar data ``repro watch`` attaches next to a unit and ``repro query``
    reports.
    """
    return f"{_as_hash(unit_or_hash)}.metrics.jsonl"


class RunStoreBackend(abc.ABC):
    """Interface every run-store backend implements.

    The contract the plan executor relies on:

    * documents are **deterministic** (built via :func:`build_document` /
      :func:`encode_document`), so any two backends holding the same unit
      hold byte-identical documents;
    * :meth:`save` with ``overwrite=False`` never rewrites a document that
      already satisfies the request (write-once commits on shared stores);
    * :meth:`provides_ensemble` consults the *document's* ``unit.ensemble``
      reference — never the mere existence of a sibling archive, which may
      be an orphan from a crashed save;
    * leases are advisory and expire: :meth:`try_acquire_lease` /
      :meth:`renew_lease` / :meth:`release_lease` let concurrent workers
      partition a sweep with at-most-rare duplicate compute.
    """

    # interrogation ------------------------------------------------------ #
    @abc.abstractmethod
    def has(self, unit_or_hash: "RunUnit | str") -> bool:
        """Whether a completed result for this unit is present."""

    @abc.abstractmethod
    def keys(self) -> list[str]:
        """Content hashes of every persisted unit (sorted for determinism)."""

    @abc.abstractmethod
    def load_document(self, unit_or_hash: "RunUnit | str") -> dict[str, Any]:
        """Raw JSON document of a persisted unit."""

    def __contains__(self, unit_or_hash: "RunUnit | str") -> bool:
        return self.has(unit_or_hash)

    def __len__(self) -> int:
        return len(self.keys())

    def __iter__(self) -> Iterator[str]:
        return iter(self.keys())

    def provides_ensemble(self, unit_or_hash: "RunUnit | str") -> bool:
        """Whether a persisted document exists *and* references a raw ensemble.

        This is the cache check for ``keep_ensembles`` requests.  It reads
        the document's ``unit.ensemble`` reference: a bare ``.npz`` beside a
        reference-less document is an orphan from a crashed save (possibly
        still inside the sweep grace period) and must not count as a hit.
        """
        try:
            document = self.load_document(unit_or_hash)
        except RunStoreError:
            return False
        return document.get("unit", {}).get("ensemble") is not None

    def _existing_satisfies(self, unit: "RunUnit", result: ExperimentResult) -> bool:
        """Whether the already-persisted state fully covers this save request."""
        if not self.has(unit):
            return False
        return result.ensemble is None or self.provides_ensemble(unit)

    # persistence -------------------------------------------------------- #
    @abc.abstractmethod
    def save(self, unit: "RunUnit", result: ExperimentResult, *, overwrite: bool = True):
        """Persist a unit's result under its content hash.

        ``overwrite=False`` is the shared-store mode: if an equivalent
        document is already committed (same hash, and carrying an ensemble
        reference whenever this result carries an ensemble), nothing is
        written — the existing bytes are guaranteed identical by the
        deterministic-document contract.
        """

    # auxiliary metrics artifacts ---------------------------------------- #
    @abc.abstractmethod
    def save_metrics(self, unit_or_hash: "RunUnit | str", payload: str, *, overwrite: bool = True):
        """Persist a unit's live-monitor metric stream (JSONL text).

        Metric rows carry volatile wall times, so unlike documents they are
        rewritten by default — each ``repro watch`` of a unit replaces the
        previous stream.  ``overwrite=False`` keeps an existing stream.
        """

    @abc.abstractmethod
    def load_metrics(self, unit_or_hash: "RunUnit | str") -> str:
        """The persisted JSONL metric stream (:class:`RunStoreError` when absent)."""

    @abc.abstractmethod
    def has_metrics(self, unit_or_hash: "RunUnit | str") -> bool:
        """Whether a live-metrics artifact is attached to this unit."""

    # reconstruction ----------------------------------------------------- #
    def load(self, unit_or_hash: "RunUnit | str", *, with_ensemble: bool = True) -> ExperimentResult:
        """Reconstruct the full :class:`ExperimentResult` of a persisted unit.

        ``with_ensemble=False`` skips reading the referenced ``.npz`` even
        when one exists — callers that only need the summaries (e.g. a warm
        sweep that did not ask for ensembles) avoid pulling whole raw
        trajectories into memory.

        Only an archive the document *references* (``unit.ensemble``) is
        attached: a sibling ``.npz`` that merely exists is an orphan from a
        crashed save — possibly still inside the sweep grace period — and
        must never round-trip into a result whose run kept no ensemble.
        """
        document = self.load_document(unit_or_hash)
        try:
            result = _result_from_document(document)
        except (KeyError, TypeError, ValueError) as exc:
            raise RunStoreError(
                f"corrupt run-store document {self._document_label(unit_or_hash)}: {exc}"
            ) from exc
        ensemble_name = document.get("unit", {}).get("ensemble")
        if with_ensemble and ensemble_name is not None:
            result.ensemble = self._read_ensemble(unit_or_hash, ensemble_name)
        return result

    @abc.abstractmethod
    def _document_label(self, unit_or_hash: "RunUnit | str") -> str:
        """Human-readable location of the unit's document (path or URL)."""

    @abc.abstractmethod
    def _read_ensemble(self, unit_or_hash: "RunUnit | str", ensemble_name: str) -> EnsembleTrajectory:
        """Fetch the referenced raw-ensemble archive (raising :class:`RunStoreError`)."""

    # maintenance -------------------------------------------------------- #
    @abc.abstractmethod
    def orphaned_files(self, min_age_seconds: float = ORPHAN_MIN_AGE_SECONDS) -> list:
        """Stray files a crash can leave behind (nothing any read path uses)."""

    @abc.abstractmethod
    def sweep_orphans(self, min_age_seconds: float = ORPHAN_MIN_AGE_SECONDS) -> list:
        """Delete orphaned files (see :meth:`orphaned_files`); returns what was removed."""

    # leases ------------------------------------------------------------- #
    @abc.abstractmethod
    def try_acquire_lease(
        self,
        unit_or_hash: "RunUnit | str",
        owner: str,
        ttl_seconds: float = DEFAULT_LEASE_TTL_SECONDS,
    ) -> bool:
        """Claim a unit for computation; False when another live owner holds it.

        An expired lease (its holder crashed or stalled past the TTL) is
        stolen.  Acquiring a lease one already holds renews it.
        """

    @abc.abstractmethod
    def renew_lease(
        self,
        unit_or_hash: "RunUnit | str",
        owner: str,
        ttl_seconds: float = DEFAULT_LEASE_TTL_SECONDS,
    ) -> bool:
        """Extend one's own lease; False when it expired and was taken over."""

    @abc.abstractmethod
    def release_lease(self, unit_or_hash: "RunUnit | str", owner: str) -> None:
        """Drop one's own lease (no-op when not held)."""


class RunStore(RunStoreBackend):
    """Content-addressed on-disk cache of experiment results.

    The reference :class:`RunStoreBackend` implementation — and the storage
    a ``repro serve-store`` service fronts for remote workers.

    Parameters
    ----------
    root:
        Store directory; created (with a format marker) unless ``create`` is
        False, in which case a missing or unmarked directory raises
        :class:`RunStoreError` — the behaviour the CLI's ``status``/``resume``
        commands rely on to catch typos before running anything.
    """

    MARKER_NAME = "run_store.json"
    FORMAT = {"format": "repro-run-store", "version": 1}

    def __init__(self, root: str | Path, *, create: bool = True) -> None:
        self.root = Path(root)
        self.units_dir = self.root / "units"
        self.leases_dir = self.root / "leases"
        marker = self.root / self.MARKER_NAME
        if create:
            try:
                self.units_dir.mkdir(parents=True, exist_ok=True)
                if not marker.exists():
                    _atomic_write(marker, json.dumps(self.FORMAT, indent=2, sort_keys=True))
            except OSError as exc:
                raise RunStoreError(f"cannot create run store at {self.root}: {exc}") from exc
        else:
            if not self.root.is_dir():
                raise RunStoreError(f"run store {self.root} does not exist")
            if not marker.is_file():
                raise RunStoreError(
                    f"{self.root} is not a run store (missing {self.MARKER_NAME} marker)"
                )

    # paths -------------------------------------------------------------- #
    def path_for(self, unit_or_hash: "RunUnit | str") -> Path:
        """Path of the unit's JSON document (whether or not it exists)."""
        return self.units_dir / f"{_as_hash(unit_or_hash)}.json"

    def ensemble_path_for(self, unit_or_hash: "RunUnit | str") -> Path:
        """Path of the unit's optional raw-ensemble archive."""
        return self.units_dir / f"{_as_hash(unit_or_hash)}.npz"

    def lease_path_for(self, unit_or_hash: "RunUnit | str") -> Path:
        """Path of the unit's advisory lease file (whether or not it exists)."""
        return self.leases_dir / f"{_as_hash(unit_or_hash)}.json"

    def metrics_path_for(self, unit_or_hash: "RunUnit | str") -> Path:
        """Path of the unit's optional live-metrics artifact (JSONL)."""
        return self.units_dir / metrics_artifact_name(unit_or_hash)

    def _document_label(self, unit_or_hash: "RunUnit | str") -> str:
        return str(self.path_for(unit_or_hash))

    # interrogation ------------------------------------------------------ #
    def has(self, unit_or_hash: "RunUnit | str") -> bool:
        """Whether a completed result for this unit is present."""
        return self.path_for(unit_or_hash).is_file()

    def keys(self) -> list[str]:
        """Content hashes of every persisted unit (sorted for determinism)."""
        if not self.units_dir.is_dir():
            return []
        return sorted(path.stem for path in self.units_dir.glob("*.json"))

    # persistence -------------------------------------------------------- #
    def save(self, unit: "RunUnit", result: ExperimentResult, *, overwrite: bool = True) -> Path:
        """Persist a unit's result under its content hash; returns the JSON path.

        The document is deterministic (see :func:`build_document`).  When the
        result carries its raw ensemble, the trajectory is written as a
        sibling ``.npz`` (the JSON never embeds arrays of that size).

        ``overwrite=False`` makes the commit write-once: a document that
        already satisfies the request is left byte-for-byte untouched, and
        when two workers race on a genuinely new unit the loser's rename
        fails against the winner's committed (identical) document.
        """
        path = self.path_for(unit)
        if not overwrite and self._existing_satisfies(unit, result):
            return path
        document = build_document(unit, result)
        if result.ensemble is not None:
            ensemble_path = self.ensemble_path_for(unit)
            # Same write-fsync-rename discipline (and temp name) as the JSON
            # documents; the .npz suffix on the temp name keeps numpy from
            # appending a second extension.  The archive commits
            # *before* the document that references it: a crash between the
            # two leaves an orphaned .npz (harmless, swept later), never a
            # document pointing at a missing archive.
            tmp = _temp_path(ensemble_path, ".tmp.npz")
            result.ensemble.save(tmp)
            _fsync_path(tmp)
            os.replace(tmp, ensemble_path)
            _fsync_path(ensemble_path.parent)
            document["unit"]["ensemble"] = ensemble_path.name
        # Exclusive (link-based) commit only when nothing is there yet: if a
        # partial document exists (e.g. it lacks the ensemble reference this
        # result carries), the rewrite is a deliberate upgrade.
        _atomic_write(path, encode_document(document), exclusive=not overwrite and not self.has(unit))
        return path

    # auxiliary metrics artifacts ---------------------------------------- #
    def save_metrics(self, unit_or_hash: "RunUnit | str", payload: str, *, overwrite: bool = True) -> Path:
        """Persist a unit's live-metrics JSONL stream; returns its path."""
        path = self.metrics_path_for(unit_or_hash)
        if not overwrite and path.is_file():
            return path
        try:
            self.units_dir.mkdir(parents=True, exist_ok=True)
            _atomic_write(path, payload)
        except OSError as exc:
            raise RunStoreError(f"cannot write metrics artifact {path}: {exc}") from exc
        return path

    def load_metrics(self, unit_or_hash: "RunUnit | str") -> str:
        path = self.metrics_path_for(unit_or_hash)
        if not path.is_file():
            raise RunStoreError(
                f"no metrics artifact for {_as_hash(unit_or_hash)[:12]}… in {self.root}"
            )
        try:
            return path.read_text(encoding="utf8")
        except OSError as exc:
            raise RunStoreError(f"cannot read metrics artifact {path}: {exc}") from exc

    def has_metrics(self, unit_or_hash: "RunUnit | str") -> bool:
        return self.metrics_path_for(unit_or_hash).is_file()

    # maintenance -------------------------------------------------------- #
    def orphaned_files(self, min_age_seconds: float = ORPHAN_MIN_AGE_SECONDS) -> list[Path]:
        """Stray files a crash can leave behind (nothing any read path uses).

        Three kinds: raw-ensemble ``.npz`` archives whose JSON document was
        never committed (the save order makes this the *only* possible
        inconsistency), ``*.tmp`` / ``*.tmp.npz`` temporaries abandoned by a
        writer that died before its rename — in ``units/``, ``leases/`` *and*
        at the store root, where a writer that died between creating the
        directory and renaming the store marker leaks
        ``run_store.json.<pid>.<thread>.tmp`` — and **expired lease files** whose
        holder never released them (a crashed worker's leftovers).

        Files younger than ``min_age_seconds`` are *not* reported: a live
        writer in another process looks exactly like a crash for the moment
        between committing its ``.npz`` and committing the JSON (and while
        its temporaries exist), and sweeping those would fail or corrupt an
        in-flight save.  Genuine crash leftovers keep ageing, so the default
        one-hour grace period only delays their cleanup.
        """
        newest_allowed = time.time() - min_age_seconds
        orphans: list[Path] = []

        def scan(directory: Path, *, stray_npz: bool, expired_leases: bool = False) -> None:
            if not directory.is_dir():
                return
            for path in sorted(directory.iterdir()):
                name = path.name
                if name.endswith(".tmp") or name.endswith(".tmp.npz"):
                    candidate = path.is_file()
                elif stray_npz and name.endswith(".npz"):
                    # An archive is live only while its sibling document
                    # *references* it — one next to a summaries-only document
                    # (another sweep's crash leftover) is as orphaned as one
                    # with no document at all.
                    candidate = not self._archive_is_referenced(path)
                elif expired_leases and name.endswith(".json"):
                    # A lease past its expiry whose holder never released it.
                    # Live holders renew (refreshing both expiry and mtime),
                    # so only genuinely abandoned leases age into candidates.
                    lease = self._read_lease(path)
                    candidate = lease is None or lease["expires"] <= time.time()
                else:
                    candidate = False
                if not candidate:
                    continue
                try:
                    if path.stat().st_mtime > newest_allowed:
                        continue
                except OSError:  # pragma: no cover - raced with its writer/cleaner
                    continue
                orphans.append(path)

        # Root level: only abandoned temporaries (e.g. the store marker's)
        # are ours to sweep — any other stray file is not a store artifact.
        scan(self.root, stray_npz=False)
        scan(self.units_dir, stray_npz=True)
        scan(self.leases_dir, stray_npz=False, expired_leases=True)
        return orphans

    def _archive_is_referenced(self, archive: Path) -> bool:
        """Whether the sibling document claims this raw-ensemble archive."""
        document_path = self.units_dir / f"{archive.stem}.json"
        if not document_path.is_file():
            return False
        try:
            document = json.loads(document_path.read_text())
        except (OSError, json.JSONDecodeError):
            return True  # unreadable document: never delete data beside it
        return document.get("unit", {}).get("ensemble") == archive.name

    def sweep_orphans(self, min_age_seconds: float = ORPHAN_MIN_AGE_SECONDS) -> list[Path]:
        """Delete orphaned files (see :meth:`orphaned_files`); returns what was removed.

        Documents are never touched, and the ``min_age_seconds`` grace
        period keeps concurrent writers' in-flight files out of reach.
        """
        removed: list[Path] = []
        for path in self.orphaned_files(min_age_seconds):
            try:
                path.unlink()
            except OSError:  # pragma: no cover - concurrent cleaner won the race
                continue
            removed.append(path)
        return removed

    def load_document(self, unit_or_hash: "RunUnit | str") -> dict[str, Any]:
        """Raw JSON document of a persisted unit."""
        path = self.path_for(unit_or_hash)
        if not path.is_file():
            raise RunStoreError(f"no persisted result for {_as_hash(unit_or_hash)[:12]}… in {self.root}")
        try:
            return json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise RunStoreError(f"corrupt run-store document {path}: {exc}") from exc

    def _read_ensemble(self, unit_or_hash: "RunUnit | str", ensemble_name: str) -> EnsembleTrajectory:
        ensemble_path = self.units_dir / ensemble_name
        if not ensemble_path.is_file():
            # The save order (npz before its document) makes this state
            # unreachable by crashes; something external removed the
            # archive, and silently dropping the ensemble would hide it.
            raise RunStoreError(
                f"run-store document {self.path_for(unit_or_hash)} references "
                f"missing ensemble archive {ensemble_name}"
            )
        try:
            return EnsembleTrajectory.load(ensemble_path)
        except Exception as exc:  # zipfile/OSError zoo from a damaged archive
            raise RunStoreError(
                f"corrupt run-store ensemble {ensemble_path}: {exc}"
            ) from exc

    # leases ------------------------------------------------------------- #
    def _read_lease(self, path: Path) -> dict[str, Any] | None:
        """The lease payload, or None when the file is gone or unreadable."""
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(payload, dict) or "owner" not in payload or "expires" not in payload:
            return None
        return payload

    def _write_lease(
        self, path: Path, owner: str, ttl_seconds: float, *, exclusive: bool = False
    ) -> bool:
        """Put a complete lease payload in place; False if ``exclusive`` and one exists.

        The payload is written to a temporary file first, so no reader ever
        sees a partial lease; ``exclusive`` commits it with :func:`os.link`,
        which fails instead of replacing — the atomic claim of a free unit.
        """
        payload = json.dumps({"owner": owner, "expires": time.time() + float(ttl_seconds)})
        tmp = _temp_path(path)
        tmp.write_text(payload)
        if not exclusive:
            os.replace(tmp, path)  # advisory state: atomic, but no fsync needed
            return True
        try:
            os.link(tmp, path)
        except FileExistsError:
            return False
        except OSError:  # pragma: no cover - filesystems without hard links
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                return False
            with os.fdopen(fd, "w", encoding="utf8") as handle:
                handle.write(payload)
        finally:
            tmp.unlink()
        return True

    def try_acquire_lease(
        self,
        unit_or_hash: "RunUnit | str",
        owner: str,
        ttl_seconds: float = DEFAULT_LEASE_TTL_SECONDS,
    ) -> bool:
        path = self.lease_path_for(unit_or_hash)
        try:
            self.leases_dir.mkdir(parents=True, exist_ok=True)
            # The exclusive link is the atomic claim: exactly one of N
            # concurrent acquirers wins it on a shared filesystem.
            if self._write_lease(path, owner, ttl_seconds, exclusive=True):
                return True
            age = time.time() - path.stat().st_mtime
        except FileNotFoundError:
            return False  # released since the claim failed: a later pass claims it
        except OSError as exc:
            raise RunStoreError(f"cannot write lease in {self.leases_dir}: {exc}") from exc
        current = self._read_lease(path)
        if current is None:
            # Unreadable: damaged, or still being written by a writer that
            # creates the file before its payload.  It counts as held until
            # it is older than a lease lifetime.
            if age < ttl_seconds:
                return False
        elif current["owner"] != owner and current["expires"] > time.time():
            return False  # held by a live (or at least unexpired) owner
        # Expired, stale, or already ours: take it over.  Two stealers can
        # both replace; reading back arbitrates — exactly one sees its own
        # owner id in the committed file.
        self._write_lease(path, owner, ttl_seconds)
        confirmed = self._read_lease(path)
        return confirmed is not None and confirmed["owner"] == owner

    def renew_lease(
        self,
        unit_or_hash: "RunUnit | str",
        owner: str,
        ttl_seconds: float = DEFAULT_LEASE_TTL_SECONDS,
    ) -> bool:
        path = self.lease_path_for(unit_or_hash)
        current = self._read_lease(path)
        if current is None or current["owner"] != owner:
            return False  # expired and stolen (or never held): do not revive
        self._write_lease(path, owner, ttl_seconds)
        return True

    def release_lease(self, unit_or_hash: "RunUnit | str", owner: str) -> None:
        path = self.lease_path_for(unit_or_hash)
        current = self._read_lease(path)
        if current is None or current["owner"] != owner:
            return  # not ours (anymore): never drop another worker's claim
        # Unlinking the path just read as ours would delete a stealer's lease
        # written in between (ours may have expired).  Rename it aside
        # instead, check the file actually taken, and put back a claim that
        # turns out not to be ours.
        taken = _temp_path(path)
        try:
            os.rename(path, taken)
        except OSError:  # pragma: no cover - raced with a stealer/cleaner
            return
        current = self._read_lease(taken)
        if current is None or current["owner"] != owner:
            try:
                os.link(taken, path)
            except OSError:  # a newer claim landed meanwhile
                pass
        taken.unlink()


def _temp_path(path: Path, suffix: str = ".tmp") -> Path:
    """The temporary sibling every store writer stages ``path`` in.

    It carries the pid and the thread id, so no two writers share one: not
    two sweeps on one store, and not two handler threads of ``serve-store``
    committing the same document (a client retry, or two workers after a
    lease steal).  A shared temporary would let one writer truncate or
    rename away the other's.  Orphan sweeps recognise the ``.tmp`` and
    ``.tmp.npz`` endings.
    """
    return path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}{suffix}")


def _fsync_path(path: Path) -> None:
    """Flush a file (or directory entry table) to stable storage."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - e.g. directories on Windows
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _atomic_write(path: Path, data: str | bytes, *, exclusive: bool = False) -> bool:
    """Write-fsync-rename so readers never observe a partially written file.

    ``data`` is text (written as UTF-8) or bytes.  Concurrent writers of one
    file stage it in their own temporaries (:func:`_temp_path`): the last
    rename wins, and both renamed files are complete and identical anyway.
    Without the fsync before :func:`os.replace`, a crash shortly after the
    rename could surface a *committed name with uncommitted bytes* (an empty
    or truncated document) on journaled filesystems; syncing the directory
    afterwards makes the rename itself durable.

    ``exclusive=True`` commits via :func:`os.link`, which fails (instead of
    replacing) when the target already exists — the write-once mode shared
    stores use; returns False when another writer won the race.  Filesystems
    without hard links fall back to the plain replace.
    """
    tmp = _temp_path(path)
    with open(tmp, "wb") as handle:
        handle.write(data.encode("utf8") if isinstance(data, str) else data)
        handle.flush()
        os.fsync(handle.fileno())
    if exclusive:
        try:
            os.link(tmp, path)
        except FileExistsError:
            os.unlink(tmp)
            return False  # first writer already committed (identical bytes)
        except OSError:  # pragma: no cover - e.g. FAT/exotic network mounts
            os.replace(tmp, path)
        else:
            os.unlink(tmp)
        _fsync_path(path.parent)
        return True
    os.replace(tmp, path)
    _fsync_path(path.parent)
    return True
