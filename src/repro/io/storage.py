"""Persistence of measurement time series.

Ensembles are stored as compressed ``.npz`` (see
:meth:`repro.particles.trajectory.EnsembleTrajectory.save`); the measurement
series produced by the pipeline are stored as JSON documents so they remain
human-readable and diff-able.  :func:`load_measurement` restores every series
a measurement carries (including the per-step decomposition objects).  Full
experiment results are persisted by the content-addressed run cache
(:mod:`repro.io.artifacts`), whose documents embed this same measurement
dictionary.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.core.self_organization import SelfOrganizationResult

__all__ = ["save_measurement", "load_measurement"]


def save_measurement(path: str | Path, result: SelfOrganizationResult) -> Path:
    """Write a measurement time series to JSON; returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    return path


def load_measurement(path: str | Path) -> SelfOrganizationResult:
    """Load a measurement written by :func:`save_measurement`.

    Every series survives the round-trip: the optional entropy and alignment
    series come back as arrays, and the per-step
    :class:`~repro.infotheory.decomposition.DecompositionResult` objects are
    restored so ``decomposition_series()`` works on the loaded result.
    """
    payload: dict[str, Any] = json.loads(Path(path).read_text())
    result = SelfOrganizationResult.from_dict(payload)
    if result.decompositions is None and "decomposition" in payload:
        # Files written before the lossless round-trip only carry the
        # flattened per-term series; keep exposing it where the old loader
        # put it so existing consumers do not lose the data.
        result.metadata.setdefault("decomposition", payload["decomposition"])
    return result
