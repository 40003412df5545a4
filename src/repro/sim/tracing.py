"""Request-level metrics collection.

:class:`RequestLog` appends each completed request as one row of floats
to a single ``array('d')``, so the per-request hot-path cost is one
``fromlist`` call instead of retaining a Python object per request, and
the columnar conversion in :meth:`RequestLog.breakdown` is pure
vectorized arithmetic instead of an O(n) Python loop.
:class:`LatencyBreakdown` is the columnar view (one array per latency
component) used by the stats and experiments layers.  The original
:class:`~repro.sim.request.Request` objects are *not* retained;
:attr:`RequestLog.requests` materializes equivalent lazy views on demand
for the resilience/overload/observability code paths that still want
per-request records.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from repro.sim.request import Request

__all__ = ["RequestLog", "LatencyBreakdown"]


@dataclass
class LatencyBreakdown:
    """Columnar latency components for a set of completed requests.

    All arrays are aligned (same order, same length) and in seconds.
    """

    created: np.ndarray
    end_to_end: np.ndarray
    wait: np.ndarray
    service: np.ndarray
    network: np.ndarray
    site: np.ndarray  # dtype=object (site names), aligned with the rest

    def __len__(self) -> int:
        return self.end_to_end.size

    def after(self, t: float) -> "LatencyBreakdown":
        """Return the subset of requests created at or after time ``t``.

        Used to trim warm-up transients before computing statistics.
        """
        mask = self.created >= t
        return LatencyBreakdown(
            created=self.created[mask],
            end_to_end=self.end_to_end[mask],
            wait=self.wait[mask],
            service=self.service[mask],
            network=self.network[mask],
            site=self.site[mask],
        )

    def for_site(self, site: str) -> "LatencyBreakdown":
        """Return the subset of requests served by ``site``."""
        mask = self.site == site
        return LatencyBreakdown(
            created=self.created[mask],
            end_to_end=self.end_to_end[mask],
            wait=self.wait[mask],
            service=self.service[mask],
            network=self.network[mask],
            site=self.site[mask],
        )

    @property
    def sites(self) -> list[str]:
        """Distinct site names present, sorted."""
        return sorted(set(self.site.tolist()))


# Row layout of RequestLog._rows (float64).  Timestamps are stored raw
# — the same five stamps a Request carries — so derived quantities are
# computed with exactly the same IEEE operations as the Request
# properties, and a lazy Request view can be reconstructed faithfully.
_CREATED, _ARRIVED, _START, _END, _COMPLETED, _SERVICE, _RID, _PRIORITY, _DEGRADED = range(9)
_COLS = 9


class RequestLog:
    """Sink for completed requests (one flat row buffer).

    ``add()`` appends one row of nine floats to an ``array('d')`` and the
    site to a list; ``breakdown()`` memoizes its columnar conversion —
    summaries, reports and live telemetry all ask for the same view
    repeatedly, and the cache is invalidated whenever the log length
    changes, so interleaving ``add`` and ``breakdown`` (as windowed
    telemetry does) always sees current data.

    :attr:`requests` rebuilds :class:`Request` views from the stored
    rows (also memoized per length).  The views carry every timestamp,
    ``rid``, ``site``, ``priority``, ``service_time`` and ``degraded``
    of the original; transient in-flight fields (``outcome``, ``op_id``,
    ``attempt``, ``deadline``) are not persisted and read as their
    defaults.
    """

    __slots__ = ("_rows", "_sites", "_cache", "_cache_len", "_view", "_view_len")

    def __init__(self) -> None:
        self._rows = array("d")
        self._sites: list[str | None] = []
        self._cache: LatencyBreakdown | None = None
        self._cache_len = -1
        self._view: list[Request] | None = None
        self._view_len = -1

    def add(self, request: Request) -> None:
        """Record a completed request."""
        if not request.is_complete:
            raise ValueError(f"request {request.rid} has not completed")
        service = request.service_time
        # fromlist appends the whole row or, if a value fails to
        # convert, nothing at all; the site follows only on success.
        self._rows.fromlist([
            request.created,
            request.arrived,
            request.service_start,
            request.service_end,
            request.completed,
            math.nan if service is None else service,
            request.rid,
            request.priority,
            request.degraded,
        ])
        self._sites.append(request.site)

    def __len__(self) -> int:
        return len(self._sites)

    @property
    def requests(self) -> list[Request]:
        """Lazy per-request views of the stored rows (cached per length)."""
        n = len(self._sites)
        if self._view is not None and self._view_len == n:
            return self._view
        view: list[Request] = []
        values = self._rows.tolist()
        for i, site in enumerate(self._sites):
            created, arrived, start, end, completed, service, rid, priority, degraded = (
                values[i * _COLS : (i + 1) * _COLS]
            )
            r = Request(
                int(rid),
                site=site,
                created=created,
                service_time=None if math.isnan(service) else service,
                priority=int(priority),
            )
            r.arrived = arrived
            r.service_start = start
            r.service_end = end
            r.completed = completed
            r.degraded = bool(degraded)
            view.append(r)
        self._view = view
        self._view_len = n
        return view

    def breakdown(self) -> LatencyBreakdown:
        """Materialize the columnar latency view (cached per log length)."""
        n = len(self._sites)
        if self._cache is not None and self._cache_len == n:
            return self._cache
        # A copy, not np.frombuffer: a live view would pin the array's
        # buffer, and the next add() would raise BufferError.
        data = np.array(self._rows).reshape(n, _COLS)
        created = data[:, _CREATED].copy()
        e2e = data[:, _COMPLETED] - data[:, _CREATED]
        wait = data[:, _START] - data[:, _ARRIVED]
        service = data[:, _SERVICE].copy()
        network = e2e - (data[:, _END] - data[:, _ARRIVED])
        site = np.array(self._sites, dtype=object)
        self._cache = LatencyBreakdown(created, e2e, wait, service, network, site)
        self._cache_len = n
        return self._cache
