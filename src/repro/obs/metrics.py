"""Metrics registry: named pull-model gauges.

The registry is the shared namespace components publish into — stations,
load balancers, admission controllers and resilient clients each
register a handful of zero-argument *readers* at construction, and a
single :meth:`MetricsRegistry.snapshot` calls them all to read the whole
system state at any virtual time.  A station exposes ``queue_length``
without touching its hot path at all: the cost is paid only when a
snapshot is taken.

Metric names are dotted paths, ``<component>.<instrument>`` by
convention (``station.s0.queue_length``, ``client.resilient.retries``);
the documented names live in ``docs/observability.md``.
"""

from __future__ import annotations

from collections.abc import Callable

__all__ = ["MetricsRegistry"]


class MetricsRegistry:
    """Named readers, each called at snapshot time."""

    def __init__(self) -> None:
        self._gauges: dict[str, Callable[[], float]] = {}

    def gauge(self, name: str, fn: Callable[[], float]) -> None:
        """Register ``fn`` as the reader of the gauge called ``name``.

        A name registers once; a second registration is always a bug in
        the instrumentation, so it raises ``ValueError``.
        """
        if name in self._gauges:
            raise ValueError(f"gauge {name!r} already registered")
        self._gauges[name] = fn

    def snapshot(self) -> dict[str, float]:
        """Read every gauge into one flat ``name -> value`` mapping."""
        return {name: float(fn()) for name, fn in self._gauges.items()}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MetricsRegistry(gauges={len(self._gauges)})"
