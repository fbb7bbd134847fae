"""Metric rows and the in-memory / JSONL metrics sink.

A :class:`MetricsStream` is the landing zone for everything the monitor
emits: each emission is one :class:`MetricRow` appended to an in-memory list
and — when a path is given — one JSON line appended (and flushed) to an
append-only JSONL file, so a crash mid-run loses at most the in-flight row.

The JSONL rows are self-describing dictionaries, so the file round-trips
through :meth:`MetricsStream.load` and is the exact payload ``repro watch``
persists into a run store as the ``<hash>.metrics.jsonl`` auxiliary
artifact.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import IO, Any

__all__ = ["MetricRow", "MetricsStream"]


@dataclass(frozen=True)
class MetricRow:
    """One emitted metric value.

    ``step`` is the recorded step the window ends at, ``window`` the window
    width in recorded steps, ``wall_ms`` the wall time the streaming
    estimator spent on this emission (volatile — excluded from equality
    checks against post-hoc recomputes).
    """

    step: int
    window: int
    metric: str
    value: float
    wall_ms: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "MetricRow":
        return cls(
            step=int(data["step"]),
            window=int(data["window"]),
            metric=str(data["metric"]),
            value=float(data["value"]),
            wall_ms=float(data["wall_ms"]),
        )


class MetricsStream:
    """Append-only sink for metric rows: in-memory always, JSONL optionally."""

    def __init__(self, path: str | Path | None = None) -> None:
        self.rows: list[MetricRow] = []
        self.path = Path(path) if path is not None else None
        self._handle: IO[str] | None = None

    def record(
        self, *, step: int, window: int, metric: str, value: float, wall_ms: float
    ) -> MetricRow:
        """Append one row (and flush it to the JSONL file, if any)."""
        row = MetricRow(
            step=int(step),
            window=int(window),
            metric=str(metric),
            value=float(value),
            wall_ms=float(wall_ms),
        )
        self.rows.append(row)
        if self.path is not None:
            if self._handle is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = self.path.open("a", encoding="utf8")
            self._handle.write(row.to_json() + "\n")
            self._handle.flush()
        return row

    def values(self, metric: str) -> list[float]:
        """All recorded values of one metric, in emission order."""
        return [row.value for row in self.rows if row.metric == metric]

    def metrics(self) -> list[str]:
        """Distinct metric names, in first-emission order."""
        seen: dict[str, None] = {}
        for row in self.rows:
            seen.setdefault(row.metric, None)
        return list(seen)

    def to_jsonl(self) -> str:
        """The whole stream as JSONL text (the store-artifact payload)."""
        return "".join(row.to_json() + "\n" for row in self.rows)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "MetricsStream":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self.rows)

    @staticmethod
    def parse(text: str) -> list[MetricRow]:
        """Parse JSONL text (one row per non-empty line) into metric rows."""
        rows = []
        for line in text.splitlines():
            line = line.strip()
            if line:
                rows.append(MetricRow.from_dict(json.loads(line)))
        return rows

    @classmethod
    def load(cls, path: str | Path) -> list[MetricRow]:
        """Read the rows a previous stream appended to ``path``."""
        return cls.parse(Path(path).read_text(encoding="utf8"))
