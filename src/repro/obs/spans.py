"""Per-request span tracing: where did every millisecond go.

A *span* is one named, timestamped interval in a request's life.  Spans
from the same logical operation share a ``trace_id`` (the operation's
request id), so a trace reads like a miniature distributed-tracing
waterfall:

* ``net.out``   — client → server wire leg (``created → arrived``),
* ``queue``     — waiting for a server (``arrived → service_start``),
* ``service``   — the forward pass (``service_start → service_end``),
* ``net.back``  — server → client wire leg (``service_end → completed``),
* ``refusal``   — a refused attempt's round trip (``created → completed``),
* ``attempt``   — the resilience layer's view of one delivery attempt,
  with ``kind`` distinguishing first tries, retries, hedges and
  failover hops.

The four serving spans tile the request's lifetime exactly, so their
durations sum to the end-to-end latency and decompose it into the
paper's :math:`n + w + s` terms — the invariant
``tests/test_observability.py`` checks against :class:`RequestLog`.

Spans are derived from the timestamps a :class:`~repro.sim.request.Request`
already carries, at *completion* time: one recorder call per finished
request instead of four hot-path hooks.
"""

from __future__ import annotations

import math

from repro.sim.request import Request

__all__ = ["Span", "SpanRecorder", "request_spans"]

#: Span names whose durations tile a served request's lifetime.
SERVING_SPANS = ("net.out", "queue", "service", "net.back")


class Span:
    """One named interval of a traced operation."""

    __slots__ = ("trace_id", "rid", "name", "kind", "start", "end", "site", "attrs")

    def __init__(
        self,
        trace_id: int,
        rid: int,
        name: str,
        start: float,
        end: float,
        site: str | None = None,
        kind: str = "request",
        attrs: dict | None = None,
    ):
        self.trace_id = trace_id
        self.rid = rid
        self.name = name
        self.kind = kind
        self.start = start
        self.end = end
        self.site = site
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        """JSON-safe representation (exporters and tests)."""
        out = {
            "trace_id": self.trace_id,
            "rid": self.rid,
            "name": self.name,
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "site": self.site,
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Span(trace={self.trace_id}, name={self.name!r}, "
            f"[{self.start:.6f}, {self.end:.6f}])"
        )


def request_spans(request: Request) -> list[Span]:
    """Derive the causally-linked spans of one finished request.

    Served requests yield the four tiling spans (``net.out``, ``queue``,
    ``service``, ``net.back``); refused requests (dropped / shed /
    rejected — they crossed the wire but were never served) yield a
    single ``refusal`` span covering their round trip.
    """
    trace = request.op_id if request.op_id is not None else request.rid
    if math.isnan(request.service_start):
        return [
            Span(
                trace,
                request.rid,
                "refusal",
                request.created,
                request.completed,
                site=request.site,
                attrs={"outcome": request.outcome},
            )
        ]
    site = request.site
    return [
        Span(trace, request.rid, "net.out", request.created, request.arrived, site=site),
        Span(trace, request.rid, "queue", request.arrived, request.service_start, site=site),
        Span(
            trace,
            request.rid,
            "service",
            request.service_start,
            request.service_end,
            site=site,
            attrs={"degraded": True} if request.degraded else None,
        ),
        Span(trace, request.rid, "net.back", request.service_end, request.completed, site=site),
    ]


class SpanRecorder:
    """Accumulates every recorded span, oldest first, in :attr:`spans`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []

    def record(self, span: Span) -> None:
        """Store one span."""
        self.spans.append(span)

    def record_request(self, request: Request) -> None:
        """Derive and store the spans of one finished request."""
        self.spans.extend(request_spans(request))

    def __len__(self) -> int:
        return len(self.spans)

    def for_trace(self, trace_id: int) -> list[Span]:
        """All spans of one logical operation, by start time."""
        return sorted(
            (s for s in self.spans if s.trace_id == trace_id), key=lambda s: (s.start, s.end)
        )

    def decompose(self, trace_id: int) -> dict[str, float]:
        """Per-component time of one trace: span name -> summed duration.

        For a served request this returns exactly the paper's
        decomposition: ``net.out + net.back = n``, ``queue = w``,
        ``service = s``.
        """
        out: dict[str, float] = {}
        for span in self.for_trace(trace_id):
            out[span.name] = out.get(span.name, 0.0) + span.duration
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SpanRecorder(spans={len(self.spans)})"
