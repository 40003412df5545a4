"""Request-trace container and operations.

A :class:`RequestTrace` is the common currency between workload
generators and the simulators: aligned arrays of absolute arrival times
and (optional) per-request service times.  The operations mirror what
the paper does with the Azure traces: merge per-site traces into the
cloud's aggregate stream and compute windowed rates for the time-series
figures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RequestTrace"]


@dataclass(frozen=True)
class RequestTrace:
    """Immutable request trace.

    Attributes
    ----------
    arrival_times:
        Absolute, finite, non-decreasing request timestamps in seconds.
    service_times:
        Optional per-request service demands (seconds), aligned, finite
        and non-negative.
    """

    arrival_times: np.ndarray
    service_times: np.ndarray | None = None

    def __post_init__(self):
        a = np.asarray(self.arrival_times, dtype=float)
        if a.ndim != 1:
            raise ValueError("arrival_times must be 1-D")
        if not np.isfinite(a).all():
            raise ValueError("arrival_times must be finite")
        if (a[1:] < a[:-1]).any():
            raise ValueError("arrival_times must be non-decreasing")
        object.__setattr__(self, "arrival_times", a)
        if self.service_times is not None:
            s = np.asarray(self.service_times, dtype=float)
            if s.shape != a.shape:
                raise ValueError(
                    f"service_times shape {s.shape} != arrival_times shape {a.shape}"
                )
            if not np.isfinite(s).all():
                raise ValueError("service_times must be finite")
            if s.size and s.min() < 0:
                raise ValueError("service_times must be non-negative")
            object.__setattr__(self, "service_times", s)

    def __len__(self) -> int:
        return self.arrival_times.size

    @property
    def duration(self) -> float:
        """Span from first to last arrival (0 for < 2 requests)."""
        if len(self) < 2:
            return 0.0
        return float(self.arrival_times[-1] - self.arrival_times[0])

    @property
    def mean_rate(self) -> float:
        """Average request rate over the trace duration (req/s)."""
        d = self.duration
        if d == 0.0:
            return 0.0
        return (len(self) - 1) / d

    def interarrival_cv2(self) -> float:
        """Squared CoV of the inter-arrival gaps (burstiness measure)."""
        if len(self) < 3:
            raise ValueError("need at least 3 arrivals for inter-arrival CoV")
        gaps = np.diff(self.arrival_times)
        m = gaps.mean()
        if m == 0.0:
            return 0.0
        return float(gaps.var() / m**2)

    def slice(self, start: float, end: float) -> "RequestTrace":
        """Requests with arrival time in ``[start, end)``."""
        if end < start:
            raise ValueError(f"end ({end}) must be >= start ({start})")
        mask = (self.arrival_times >= start) & (self.arrival_times < end)
        return RequestTrace(
            self.arrival_times[mask],
            None if self.service_times is None else self.service_times[mask],
        )

    def windowed_rates(self, window: float, horizon: float | None = None):
        """Per-window request rates (req/s) over ``[0, horizon)``.

        ``horizon`` defaults to the last arrival, and to 0 for an empty
        trace.  Returns ``(window_starts, rates)``; the Figure 8 series.
        """
        if window <= 0:
            raise ValueError(f"window must be > 0, got {window}")
        if horizon is None:
            horizon = self.arrival_times[-1] if len(self) else 0.0
        end = float(horizon)
        if end <= 0:
            return np.empty(0), np.empty(0)
        edges = np.arange(0.0, end + window, window)
        counts, _ = np.histogram(self.arrival_times, bins=edges)
        return edges[:-1], counts / window

    @staticmethod
    def merge(traces: list["RequestTrace"]) -> "RequestTrace":
        """Superpose several traces into one time-ordered stream.

        This is the cloud's view: the aggregate of all edge-site
        workloads (Section 4.1's "cumulative request trace").
        """
        if not traces:
            raise ValueError("need at least one trace")
        has_services = [t.service_times is not None for t in traces]
        if any(has_services) and not all(has_services):
            raise ValueError("cannot merge traces with and without service times")
        times = np.concatenate([t.arrival_times for t in traces])
        order = np.argsort(times, kind="stable")
        services = None
        if all(has_services):
            services = np.concatenate([t.service_times for t in traces])[order]
        return RequestTrace(times[order], services)
