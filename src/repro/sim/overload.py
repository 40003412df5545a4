"""Server-side overload control: queue disciplines and brownout serving.

The paper's §4.2 observes that the real stack "starts dropping requests
or thrashing" at saturation, and E10 showed client retries turn that
into a metastable storm.  This module is the *server* half of the
robustness story: mechanisms a :class:`~repro.sim.station.Station` uses
to defend its latency at and past saturation instead of queueing
unboundedly or tail-dropping.

Three families of mechanism live here; a fourth (adaptive concurrency
limiting / priority shedding) lives in :mod:`repro.mitigation.admission`
because it guards the front door rather than the waiting line:

* **Queue disciplines** — pluggable orderings of the waiting line.
  :class:`FIFODiscipline` is the classic (and default) order;
  :class:`AdaptiveLIFODiscipline` switches to newest-first when a
  backlog builds, so the requests actually served are the fresh ones
  whose clients are still waiting; :class:`CoDelDiscipline` drops at
  *dequeue* based on sojourn time (CoDel's "controlled delay" law),
  shedding stale work before it wastes a server.
* **Brownout serving** — :class:`BrownoutController` trades quality for
  latency under pressure: a fraction of requests (the *dimmer*) is
  served by a cheaper degraded service variant (a smaller model for the
  paper's DNN-inference workload), raising effective capacity without
  rejecting anyone.  The degraded fraction is reported.
* **Overload signals** — brownout estimates the wait from a station's
  ``backlog_work()``; the resilient client's failover compares its
  ``in_system`` with a saturation threshold to steer around saturated
  sites.

Requests refused by a discipline are *shed* (station counter ``shed``,
outcome ``"shed"``), distinct from queue-capacity drops (``dropped``)
and admission rejections (``rejected``) so reports can tell deliberate
load shedding from passive overflow.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections import deque
from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro.sim.request import Request

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.station import Station

__all__ = [
    "QueueDiscipline",
    "FIFODiscipline",
    "AdaptiveLIFODiscipline",
    "CoDelDiscipline",
    "BrownoutController",
]


class QueueDiscipline(ABC):
    """Order (and optionally shed) a station's waiting line.

    A discipline owns the waiting requests between ``arrive`` and
    service start.  The station pushes arrivals that find all servers
    busy and pops whenever a server frees; :meth:`pop` may *shed*
    waiting requests (reported through ``station._shed``) before
    returning the next one to serve.

    The waiting requests live in the deque ``_queue``, which a
    discipline changes only in place and never rebinds: the station
    keeps a reference to it from construction and reads the queue
    length as ``len()`` of it.  ``len()``, iteration and ``in`` on the
    discipline itself remain its public protocol.

    One discipline instance belongs to exactly one station.
    """

    def __init__(self) -> None:
        self._station: "Station | None" = None
        self._queue: deque[Request] = deque()

    def bind(self, station: "Station") -> None:
        """Attach to the owning station (called by ``Station.__init__``)."""
        if self._station is not None and self._station is not station:
            raise ValueError(
                f"{type(self).__name__} is already bound to station "
                f"{self._station.name!r}; disciplines are per-station"
            )
        self._station = station

    def push(self, request: Request) -> None:
        """Append an arriving request to the waiting line."""
        self._queue.append(request)

    @abstractmethod
    def pop(self) -> Request | None:
        """Return the next request to serve, or ``None`` if none remain.

        Implementations may shed stale requests (via ``station._shed``)
        while selecting.
        """

    def remove(self, request: Request) -> bool:
        """Remove a specific waiting request (client cancellation)."""
        try:
            self._queue.remove(request)
        except ValueError:
            return False
        return True

    def __len__(self) -> int:
        return len(self._queue)

    def __iter__(self) -> Iterator[Request]:
        return iter(self._queue)

    def __contains__(self, request: Request) -> bool:
        return request in self._queue

    @property
    def _now(self) -> float:
        return self._station.sim.now


class FIFODiscipline(QueueDiscipline):
    """First-come-first-served — the classic order and the default."""

    def pop(self) -> Request | None:
        return self._queue.popleft() if self._queue else None


class AdaptiveLIFODiscipline(QueueDiscipline):
    """FIFO normally; newest-first once a backlog builds.

    The adaptive-LIFO trick (deployed in Facebook's thrift servers):
    under overload a FIFO serves exactly the requests whose clients have
    already timed out, so every served request is wasted work.  Serving
    newest-first keeps the *served* latency bounded — fresh requests go
    out fast — while the old backlog ages out (clients gave up) instead
    of poisoning the service order.

    Parameters
    ----------
    pressure_threshold:
        Switch to LIFO while more than this many requests wait.  ``0``
        is pure LIFO.
    """

    def __init__(self, pressure_threshold: int = 8):
        if pressure_threshold < 0:
            raise ValueError(f"pressure_threshold must be >= 0, got {pressure_threshold}")
        super().__init__()
        self.pressure_threshold = int(pressure_threshold)
        self.lifo_pops = 0

    def pop(self) -> Request | None:
        if not self._queue:
            return None
        if len(self._queue) > self.pressure_threshold:
            self.lifo_pops += 1
            return self._queue.pop()
        return self._queue.popleft()

    def observables(self) -> dict:
        """Pull-model gauge readers for the telemetry registry."""
        return {"lifo_pops": lambda: self.lifo_pops}


class CoDelDiscipline(QueueDiscipline):
    """Controlled-delay (CoDel) sojourn-time dropping at dequeue.

    Nichols & Jacobson's AQM, applied to a request queue: the signal is
    how long the *dequeued* request waited (its sojourn), not how long
    the queue is.  Waiting longer than ``target`` is tolerated for one
    ``interval`` (bursts are fine); sustained excess enters a dropping
    episode that sheds the stale head-of-line request and then sheds
    again at intervals shrinking with ``interval / sqrt(count)`` — the
    control law that makes drop pressure track persistent overload.
    Sojourn back at or below ``target`` ends the episode.

    Parameters
    ----------
    target:
        Acceptable sojourn time (seconds) — the latency the queue
        defends.
    interval:
        Window (seconds) a sojourn excursion must persist before the
        first shed; also the initial spacing of the drop law.
    """

    def __init__(self, target: float, interval: float | None = None):
        if target <= 0:
            raise ValueError(f"target must be > 0, got {target}")
        super().__init__()
        self.target = float(target)
        self.interval = float(interval) if interval is not None else 2.0 * self.target
        if self.interval <= 0:
            raise ValueError(f"interval must be > 0, got {self.interval}")
        self._first_above: float | None = None  # when sustained excess confirms
        self._dropping = False
        self._drop_next = 0.0
        self._drop_count = 0

    def pop(self) -> Request | None:
        now = self._now
        while self._queue:
            request = self._queue.popleft()
            sojourn = now - request.arrived
            if sojourn <= self.target:
                self._first_above = None
                self._dropping = False
                self._drop_count = 0
                return request
            if self._first_above is None:
                self._first_above = now + self.interval
            if not self._dropping:
                if now < self._first_above:
                    return request  # transient burst: tolerated for one interval
                self._dropping = True
                self._drop_count = 1
                self._station._shed(request)
                self._drop_next = now + self.interval / math.sqrt(self._drop_count)
                continue
            if now < self._drop_next:
                return request  # between paced drops, keep serving
            self._drop_count += 1
            self._station._shed(request)
            self._drop_next = now + self.interval / math.sqrt(self._drop_count)
        self._first_above = None
        return None


class BrownoutController:
    """Graceful degradation: serve a cheaper variant under pressure.

    Brownout serving (Klein et al.): instead of rejecting work when the
    queue builds, serve some requests with a degraded, faster variant —
    for the paper's DNN-inference service, a smaller model whose forward
    pass costs ``degraded_scale`` of the full one.  The *dimmer* (the
    probability an arriving-to-service request is degraded) ramps
    linearly with the station's estimated queueing delay: 0 at or below
    ``target_wait``, 1 at or above ``full_wait``.  Quality is traded
    for latency only while pressure lasts, and the paid price is
    reported as :attr:`degraded_fraction`.

    One controller instance belongs to exactly one station.

    Parameters
    ----------
    degraded_scale:
        Service-time multiplier of the degraded variant, in (0, 1).
    target_wait:
        Estimated wait (seconds) below which everything is served at
        full quality.
    full_wait:
        Estimated wait at which *every* request is degraded (default
        ``4 × target_wait``).
    """

    def __init__(
        self,
        degraded_scale: float = 0.4,
        target_wait: float = 0.5,
        full_wait: float | None = None,
    ):
        if not 0.0 < degraded_scale < 1.0:
            raise ValueError(f"degraded_scale must be in (0, 1), got {degraded_scale}")
        if target_wait < 0:
            raise ValueError(f"target_wait must be >= 0, got {target_wait}")
        self.degraded_scale = float(degraded_scale)
        self.target_wait = float(target_wait)
        self.full_wait = float(full_wait) if full_wait is not None else 4.0 * target_wait
        if self.full_wait <= self.target_wait:
            raise ValueError(
                f"full_wait ({self.full_wait}) must exceed target_wait ({self.target_wait})"
            )
        self.offered = 0
        self.degraded = 0
        self._station: "Station | None" = None
        self._rng = None

    def bind(self, station: "Station") -> None:
        """Attach to the owning station (called by ``Station.__init__``)."""
        if self._station is not None and self._station is not station:
            raise ValueError(
                f"BrownoutController is already bound to station "
                f"{self._station.name!r}; controllers are per-station"
            )
        self._station = station
        self._rng = station.sim.spawn_rng()

    def dimmer(self, station: "Station") -> float:
        """Current degrade probability from the station's backlog estimate."""
        estimated_wait = station.backlog_work() / station.servers
        if estimated_wait <= self.target_wait:
            return 0.0
        if estimated_wait >= self.full_wait:
            return 1.0
        return (estimated_wait - self.target_wait) / (self.full_wait - self.target_wait)

    def should_degrade(self, station: "Station", request: Request) -> bool:
        """Decide (and record) whether this service starts degraded."""
        self.offered += 1
        level = self.dimmer(station)
        degrade = level >= 1.0 or (level > 0.0 and float(self._rng.random()) < level)
        if degrade:
            self.degraded += 1
        return degrade

    @property
    def degraded_fraction(self) -> float:
        """Fraction of service starts that ran the degraded variant."""
        if self.offered == 0:
            return 0.0
        return self.degraded / self.offered

    def observables(self) -> dict:
        """Pull-model gauge readers for the telemetry registry."""
        return {
            "dimmer": lambda: (
                self.dimmer(self._station) if self._station is not None else 0.0
            ),
            "degraded": lambda: self.degraded,
            "degraded_fraction": lambda: self.degraded_fraction,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BrownoutController(scale={self.degraded_scale}, "
            f"degraded={self.degraded}/{self.offered})"
        )
