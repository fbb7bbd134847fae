"""Export of figure series to CSV / JSON.

Every benchmark writes the series it prints to ``benchmarks/output/`` so the
numbers behind a figure can be re-plotted with any external tool.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

__all__ = ["save_series_csv", "save_json"]


def _to_builtin(value: Any) -> Any:
    """Convert NumPy scalars/arrays to plain Python for JSON serialisation."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, dict):
        return {key: _to_builtin(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_builtin(v) for v in value]
    return value


def save_series_csv(path: str | Path, columns: Mapping[str, Sequence[float] | np.ndarray]) -> Path:
    """Write aligned columns to a CSV file; returns the path written."""
    if not columns:
        raise ValueError("columns must be non-empty")
    arrays = {name: np.asarray(values) for name, values in columns.items()}
    lengths = {arr.shape[0] for arr in arrays.values()}
    if len(lengths) != 1:
        raise ValueError("all columns must have the same length")
    n_rows = lengths.pop()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(arrays))
        for i in range(n_rows):
            writer.writerow([arrays[name][i] for name in arrays])
    return path


def save_json(path: str | Path, payload: Any) -> Path:
    """Write a JSON document (NumPy types converted); returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_to_builtin(payload), indent=2, sort_keys=True))
    return path
