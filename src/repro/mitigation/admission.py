"""Admission control: protect latency by refusing excess load.

Complementary to dropping at a full queue
(:class:`~repro.sim.station.Station` with ``queue_capacity``) and to
queue-discipline shedding (:mod:`repro.sim.overload`): an admission
controller refuses requests *at the front door*, before they consume
queue slots, keeping the latency of admitted requests bounded during
overload — the standard alternative to the paper's §4.2 "dropping or
thrashing" observation.

Two generations of policy live here:

* **Static** — :class:`OccupancyAdmission` admits while in-system per
  server is below a threshold.  Simple, but the right threshold depends
  on the very service times and load the operator does not control.
* **Adaptive** — :class:`AdaptiveAdmission` drives the admit limit from
  a :class:`ConcurrencyLimit` controller that *learns* the station's
  capacity from observed latency: :class:`AIMDConcurrencyLimit` (TCP
  Reno-style additive increase / multiplicative decrease against a
  latency target) and :class:`GradientConcurrencyLimit` (Vegas-style,
  comparing smoothed latency to a no-load baseline).  Under an overload
  pulse the limit collapses, shedding the excess; when pressure passes
  it recovers on its own — no hand-tuned threshold.

:class:`AdaptiveAdmission` also implements priority-aware shedding:
request classes (``Request.priority``; 0 = most important) see scaled
fractions of the limit, so sheddable traffic is refused first and
high-priority goodput survives overload nearly untouched.

Policies plug into a :class:`~repro.sim.station.Station` via its
``admission=`` parameter (rejections count in ``station.rejected`` and
go to the station's ``on_refuse(request, "rejected")``, so they surface
with outcome ``"rejected"``).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections.abc import Mapping

from repro.sim.request import Request
from repro.sim.station import Station

__all__ = [
    "OccupancyAdmission",
    "ConcurrencyLimit",
    "StaticConcurrencyLimit",
    "AIMDConcurrencyLimit",
    "GradientConcurrencyLimit",
    "AdaptiveAdmission",
]


class OccupancyAdmission:
    """Admit while the station holds fewer than ``limit`` requests/server."""

    def __init__(self, limit: float):
        if limit <= 0:
            raise ValueError(f"limit must be > 0, got {limit}")
        self.limit = float(limit)

    def admit(self, station: Station, request: Request, now: float) -> bool:
        """Decide admission for one arriving request."""
        return station.in_system / station.servers < self.limit


class ConcurrencyLimit(ABC):
    """A controller for the number of requests a station may hold.

    ``current_limit`` is read at every admission decision;
    ``on_response`` receives feedback for every service completion
    (``ok=True`` with the observed server latency — queueing plus
    service) and for every drop/shed (``ok=False``, latency ``None``).
    """

    @abstractmethod
    def current_limit(self, station: Station) -> float:
        """The in-system limit to enforce right now."""

    def on_response(self, latency: float | None, ok: bool, now: float) -> None:
        """Feedback hook; static limits ignore it."""


class StaticConcurrencyLimit(ConcurrencyLimit):
    """A fixed in-system limit (the non-adaptive baseline)."""

    def __init__(self, limit: float):
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        self.limit = float(limit)

    def current_limit(self, station: Station) -> float:
        return self.limit


class AIMDConcurrencyLimit(ConcurrencyLimit):
    """Additive-increase / multiplicative-decrease concurrency limit.

    The TCP-congestion view of a server: every response faster than
    ``latency_target`` is evidence the station can take a little more
    (limit grows by ``increase / limit`` — about one unit per *limit*
    responses, the AIMD probe rate); a breach or a failed response
    (drop, shed, timeout-cancel) multiplies the limit by ``backoff``.
    Decreases are rate-limited to one per ``cooldown`` seconds so a
    burst of already-doomed queued responses counts as one congestion
    event, not many.

    Parameters
    ----------
    latency_target:
        Server latency (seconds) considered acceptable — the knee the
        controller defends.
    min_limit / max_limit:
        Clamp bounds for the limit.
    initial:
        Starting limit (default ``max_limit``, i.e. start open and let
        pressure shrink it).
    increase / backoff:
        Additive probe size and multiplicative decrease factor.
    cooldown:
        Minimum seconds between decreases (default ``latency_target``).
    """

    def __init__(
        self,
        latency_target: float,
        min_limit: float = 1.0,
        max_limit: float = 256.0,
        initial: float | None = None,
        increase: float = 1.0,
        backoff: float = 0.8,
        cooldown: float | None = None,
    ):
        if latency_target <= 0:
            raise ValueError(f"latency_target must be > 0, got {latency_target}")
        if not 1.0 <= min_limit <= max_limit:
            raise ValueError(f"need 1 <= min_limit <= max_limit, got {min_limit}, {max_limit}")
        if not 0.0 < backoff < 1.0:
            raise ValueError(f"backoff must be in (0, 1), got {backoff}")
        if increase <= 0:
            raise ValueError(f"increase must be > 0, got {increase}")
        self.latency_target = float(latency_target)
        self.min_limit = float(min_limit)
        self.max_limit = float(max_limit)
        self.increase = float(increase)
        self.backoff = float(backoff)
        self.cooldown = float(cooldown) if cooldown is not None else self.latency_target
        self.limit = float(initial) if initial is not None else self.max_limit
        if not self.min_limit <= self.limit <= self.max_limit:
            raise ValueError(f"initial limit {self.limit} outside [{min_limit}, {max_limit}]")
        self.decreases = 0
        self._next_decrease = 0.0

    def current_limit(self, station: Station) -> float:
        return self.limit

    def on_response(self, latency: float | None, ok: bool, now: float) -> None:
        if ok and latency is not None and latency <= self.latency_target:
            self.limit = min(self.max_limit, self.limit + self.increase / self.limit)
            return
        if now >= self._next_decrease:
            self.limit = max(self.min_limit, self.limit * self.backoff)
            self.decreases += 1
            self._next_decrease = now + self.cooldown

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AIMDConcurrencyLimit(limit={self.limit:.1f}, decreases={self.decreases})"


class GradientConcurrencyLimit(ConcurrencyLimit):
    """Vegas/gradient-style limit: observed latency vs a no-load baseline.

    Keeps an exponentially smoothed recent server latency and, as the
    *baseline*, the smallest smoothed value seen so far — the lowest
    *sustained* latency, i.e. the no-load service time (a min over raw
    samples would chase one lucky fast request and judge all normal
    traffic slow).  Each successful response moves the limit toward
    ``limit × gradient + sqrt(limit)`` where
    ``gradient = clamp(tolerance × baseline / smoothed, 0.5, 1.0)`` —
    while recent latency is within ``tolerance`` of the baseline the
    square-root queue allowance lets the limit probe upward; when
    latency inflates, the gradient pulls it down proportionally (the
    fixed point of the update is ``(1 / (1 - gradient))²``).  Failed
    responses fall back to a rate-limited multiplicative decrease,
    exactly like AIMD's congestion event.
    """

    def __init__(
        self,
        min_limit: float = 1.0,
        max_limit: float = 256.0,
        initial: float = 16.0,
        tolerance: float = 1.5,
        smoothing: float = 0.1,
        backoff: float = 0.8,
        cooldown: float = 1.0,
    ):
        if not 1.0 <= min_limit <= max_limit:
            raise ValueError(f"need 1 <= min_limit <= max_limit, got {min_limit}, {max_limit}")
        if tolerance < 1.0:
            raise ValueError(f"tolerance must be >= 1, got {tolerance}")
        if not 0.0 < smoothing <= 1.0:
            raise ValueError(f"smoothing must be in (0, 1], got {smoothing}")
        if not 0.0 < backoff < 1.0:
            raise ValueError(f"backoff must be in (0, 1), got {backoff}")
        if cooldown <= 0:
            raise ValueError(f"cooldown must be > 0, got {cooldown}")
        self.min_limit = float(min_limit)
        self.max_limit = float(max_limit)
        self.tolerance = float(tolerance)
        self.smoothing = float(smoothing)
        self.backoff = float(backoff)
        self.cooldown = float(cooldown)
        self.limit = float(initial)
        if not self.min_limit <= self.limit <= self.max_limit:
            raise ValueError(f"initial limit {initial} outside [{min_limit}, {max_limit}]")
        self.baseline: float | None = None
        self.smoothed: float | None = None
        self.decreases = 0
        self._next_decrease = 0.0

    def current_limit(self, station: Station) -> float:
        return self.limit

    def on_response(self, latency: float | None, ok: bool, now: float) -> None:
        if not ok or latency is None:
            if now >= self._next_decrease:
                self.limit = max(self.min_limit, self.limit * self.backoff)
                self.decreases += 1
                self._next_decrease = now + self.cooldown
            return
        if self.smoothed is None:
            self.smoothed = latency
        else:
            self.smoothed += self.smoothing * (latency - self.smoothed)
        self.baseline = (
            self.smoothed if self.baseline is None else min(self.baseline, self.smoothed)
        )
        gradient = max(0.5, min(1.0, self.tolerance * self.baseline / self.smoothed))
        target = gradient * self.limit + math.sqrt(self.limit)
        self.limit += self.smoothing * (target - self.limit)
        self.limit = max(self.min_limit, min(self.max_limit, self.limit))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        base = "?" if self.baseline is None else f"{self.baseline * 1e3:.0f}ms"
        return f"GradientConcurrencyLimit(limit={self.limit:.1f}, baseline={base})"


class AdaptiveAdmission:
    """Station admission policy driven by a :class:`ConcurrencyLimit`.

    Admits an arriving request while the station's in-system count is
    below the controller's current limit, scaled per request class when
    ``priority_shares`` is given: a class with share ``f`` is refused
    once in-system reaches ``f × limit``, so sheddable classes (larger
    ``Request.priority``) lose admission first and the most important
    class keeps (nearly) the whole limit.

    Plug into a station with ``Station(..., admission=policy)``; the
    station feeds every completion and drop/shed back into the limit
    controller.

    Parameters
    ----------
    limit:
        The concurrency controller (static, AIMD or gradient).
    priority_shares:
        Optional mapping ``priority -> share in (0, 1]``.  Classes not
        listed use the smallest share (most sheddable).  ``None``
        treats all classes alike.
    """

    def __init__(
        self,
        limit: ConcurrencyLimit,
        priority_shares: Mapping[int, float] | None = None,
    ):
        if priority_shares is not None:
            if not priority_shares:
                raise ValueError("priority_shares must not be empty")
            for p, share in priority_shares.items():
                if not 0.0 < share <= 1.0:
                    raise ValueError(f"share for priority {p} must be in (0, 1], got {share}")
        self.limit = limit
        self.priority_shares = dict(priority_shares) if priority_shares is not None else None
        self._floor_share = (
            min(self.priority_shares.values()) if self.priority_shares is not None else 1.0
        )
        self.offered = 0
        self.admitted = 0
        self.rejected_by_class: dict[int, int] = {}

    def admit(self, station: Station, request: Request, now: float) -> bool:
        """One admission decision (counted per request class)."""
        self.offered += 1
        effective = self.limit.current_limit(station)
        if self.priority_shares is not None:
            effective *= self.priority_shares.get(request.priority, self._floor_share)
        if station.in_system < effective:
            self.admitted += 1
            return True
        key = request.priority
        self.rejected_by_class[key] = self.rejected_by_class.get(key, 0) + 1
        return False

    def on_response(self, latency: float | None, ok: bool, now: float) -> None:
        """Forward station feedback to the limit controller."""
        self.limit.on_response(latency, ok, now)

    @property
    def rejection_rate(self) -> float:
        """Fraction of offered requests refused at the door."""
        if self.offered == 0:
            return 0.0
        return 1.0 - self.admitted / self.offered

    def observables(self) -> dict:
        """Pull-model gauge readers for the telemetry registry.

        The headline signal is ``limit`` — watching the adaptive limit
        collapse and recover across windows is the whole point of the
        E11 pulse experiment's telemetry view.
        """
        return {
            "limit": lambda: self.limit.limit if hasattr(self.limit, "limit") else math.nan,
            "offered": lambda: self.offered,
            "admitted": lambda: self.admitted,
            "rejection_rate": lambda: self.rejection_rate,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AdaptiveAdmission(limit={self.limit!r}, offered={self.offered})"
