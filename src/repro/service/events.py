"""Per-job event fan-out for the campaign service.

One :class:`EventBus` per campaign job carries its lifecycle events
(scenario settled, campaign finished, …) and — when telemetry is on —
its windowed :mod:`repro.obs` records to every connected SSE reader.

Design constraints:

* **Multiple concurrent readers.**  Each SSE client polls with its own
  cursor into the bus's append-only history, so two clients streaming
  the same job see the same events in the same order regardless of when
  they connected (the acceptance criterion for ≥2 concurrent streams).
* **Bounded memory.**  The history is capped; readers that connect
  after eviction see a ``truncated`` marker event rather than silently
  missing records.  Lifecycle events are few; telemetry windows
  dominate and are safe to age out.
* **Stored as sent.**  Each event is kept as its encoded SSE frame,
  serialized once when published, and every reader writes those same
  bytes.  A finished job's history lives as long as the server, and
  its frames take well under half the memory of the events' nested
  dicts (``docs/service.md`` has the numbers).
* **Stdlib only.**  A list, a ``threading.Condition``, nothing else.
"""

from __future__ import annotations

import json
import threading
from typing import Any

__all__ = ["EventBus"]

#: Default cap on retained events per job.
DEFAULT_HISTORY_LIMIT = 10_000


def _frame(event: dict[str, Any]) -> bytes:
    """One event as its Server-Sent Events frame (``event:`` + ``data:``)."""
    name = event.get("event", "message")
    return f"event: {name}\ndata: {json.dumps(event, sort_keys=True)}\n\n".encode()


class EventBus:
    """Append-only, bounded log of SSE frames with blocking cursor reads."""

    def __init__(self, history_limit: int = DEFAULT_HISTORY_LIMIT):
        if history_limit < 1:
            raise ValueError(f"history_limit must be >= 1, got {history_limit}")
        self._limit = history_limit
        self._events: list[bytes] = []
        #: Sequence number of self._events[0] (grows as old events evict).
        self._base = 0
        self._closed = False
        self._cond = threading.Condition()

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    def publish(self, event: dict[str, Any]) -> int:
        """Append one event as its SSE frame; returns its sequence number.

        The event is serialized here, in the publishing thread (a job's
        worker), so an event that ``json`` cannot encode raises
        ``TypeError`` or ``ValueError`` to the publisher and leaves the
        history unchanged.
        """
        frame = _frame(event)
        with self._cond:
            if self._closed:
                raise RuntimeError("EventBus is closed")
            self._events.append(frame)
            seq = self._base + len(self._events) - 1
            overflow = len(self._events) - self._limit
            if overflow > 0:
                del self._events[:overflow]
                self._base += overflow
            self._cond.notify_all()
            return seq

    def close(self) -> None:
        """No more events will arrive; wakes every blocked reader."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def read(
        self, cursor: int, timeout: float | None = None
    ) -> tuple[list[bytes], int, bool]:
        """SSE frames of the events at sequence >= ``cursor``.

        Blocks up to ``timeout`` while there is nothing to return.
        Returns ``(frames, next_cursor, closed)``.  An empty ``frames``
        with ``closed=False`` is a timeout (SSE readers emit a heartbeat
        and poll again); with ``closed=True`` the stream is over.  A
        cursor older than the retained window yields a single
        ``{"event": "truncated", "dropped": n}`` frame before the
        surviving ones.
        """
        with self._cond:
            if cursor >= self._base + len(self._events) and not self._closed:
                self._cond.wait(timeout)
            truncated = cursor < self._base
            start = max(cursor, self._base)
            frames = self._events[start - self._base:]
            if truncated:
                frames.insert(0, _frame({
                    "event": "truncated",
                    "dropped": self._base - cursor,
                }))
            return frames, self._base + len(self._events), self._closed
