"""Telemetry exporters: where window records go.

An exporter is anything with ``export(record: dict)`` and ``close()``.
Two are provided:

* :class:`JsonLinesExporter` — one JSON object per line, the machine
  interface (``--telemetry out.jsonl`` on the CLI); the format is
  validated by :mod:`repro.obs.schema` and documented in
  ``docs/observability.md``.
* :class:`InMemoryExporter` — keeps records in a list; the test and
  notebook interface.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Protocol, runtime_checkable

__all__ = [
    "Exporter",
    "JsonLinesExporter",
    "InMemoryExporter",
]


@runtime_checkable
class Exporter(Protocol):
    """Sink for telemetry records."""

    def export(self, record: dict) -> None: ...

    def close(self) -> None: ...


class JsonLinesExporter:
    """Append records to a file as JSON lines.

    Parameters
    ----------
    target:
        A path (opened lazily, truncated) or an already-open text stream
        (not closed by :meth:`close` unless this exporter opened it).
    """

    def __init__(self, target: str | Path | IO[str]):
        if isinstance(target, (str, Path)):
            self._path: Path | None = Path(target)
            self._stream: IO[str] | None = None
        else:
            self._path = None
            self._stream = target
        self.records = 0

    def export(self, record: dict) -> None:
        if self._stream is None:
            self._stream = self._path.open("w")
        json.dump(record, self._stream, allow_nan=False, separators=(",", ":"))
        self._stream.write("\n")
        self.records += 1

    def close(self) -> None:
        if self._path is None:
            return
        if self._stream is None:
            # Nothing was exported; still leave an (empty) file so a
            # --telemetry run always produces its promised artifact.
            self._path.touch()
            return
        self._stream.close()
        self._stream = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        where = self._path if self._path is not None else "<stream>"
        return f"JsonLinesExporter({where}, records={self.records})"


class InMemoryExporter:
    """Keep every record in a list (tests, notebooks, E12 tables)."""

    def __init__(self) -> None:
        self.records: list[dict] = []

    def export(self, record: dict) -> None:
        self.records.append(record)

    def close(self) -> None:
        pass

    @property
    def windows(self) -> list[dict]:
        """Only the per-window records, in emission order."""
        return [r for r in self.records if r.get("type") == "window"]

    @property
    def summary(self) -> dict | None:
        """The final summary record, if one was emitted."""
        for record in reversed(self.records):
            if record.get("type") == "summary":
                return record
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"InMemoryExporter(records={len(self.records)})"
