"""Multi-server queue station with pluggable overload control.

A :class:`Station` models one serving location: a waiting line in front
of ``servers`` identical servers.  With ``servers = 1`` it is the
paper's edge site; with ``servers = k`` (or `k × cores`) and Poisson
input it is the paper's cloud central queue (Figure 1b).

The waiting line is managed by a pluggable
:class:`~repro.sim.overload.QueueDiscipline` (FIFO by default;
adaptive-LIFO and CoDel sojourn-dropping defend latency under
overload), the front door by an optional admission policy
(:mod:`repro.mitigation.admission`), and the service itself by an
optional :class:`~repro.sim.overload.BrownoutController` that serves a
cheaper degraded variant under pressure.  Refusals are accounted
separately — ``rejected`` (admission), ``dropped`` (queue capacity),
``shed`` (discipline/overload) — so reports can tell deliberate load
shedding from passive overflow.

The station keeps running time-integrals of busy servers and queue
length so utilization and mean queue length can be read off exactly, and
supports run-time capacity changes (used by the autoscaling mitigation).
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.queueing.distributions import Distribution
from repro.sim.engine import Simulation
from repro.sim.overload import BrownoutController, FIFODiscipline, QueueDiscipline
from repro.sim.request import Request

__all__ = ["Station"]


class Station:
    """Multi-server queue with ``servers`` parallel servers.

    Parameters
    ----------
    sim:
        Owning simulation.
    servers:
        Initial number of servers (≥ 1).
    service_dist:
        Distribution used to sample service times for requests that do
        not carry a pre-assigned ``service_time`` (trace replays do).
    name:
        Identifier used in request logs and repr.
    on_departure:
        Callback invoked with each request when its service completes
        (the deployment layer uses it to schedule the return network leg).
    queue_capacity:
        Maximum number of *waiting* requests (an M/M/c/K-style bound
        with K = servers + queue_capacity).  ``None`` (default) is an
        unbounded queue.  Arrivals past the bound are dropped — the
        paper's observed behaviour of the real stack at saturation
        ("starts dropping requests or thrashing").
    on_refuse:
        Callback invoked as ``on_refuse(request, outcome)`` with each
        refused request; ``outcome`` is ``"rejected"`` (admission),
        ``"dropped"`` (queue capacity) or ``"shed"`` (discipline).
    discipline:
        Waiting-line order/shedding policy
        (:class:`~repro.sim.overload.QueueDiscipline`); ``None`` is
        FIFO.  One instance per station.
    admission:
        Front-door policy with ``admit(station, request, now) -> bool``
        (e.g. :class:`~repro.mitigation.admission.AdaptiveAdmission`).
        Refused requests count as ``rejected`` and go to ``on_refuse``.
        If the policy exposes ``on_response(latency, ok, now)`` it is
        fed every service completion and every drop/shed — the feedback
        adaptive concurrency limiters learn from.
    brownout:
        Optional :class:`~repro.sim.overload.BrownoutController`; under
        pressure, service starts run a degraded (cheaper) variant.
    """

    def __init__(
        self,
        sim: Simulation,
        servers: int,
        service_dist: Distribution | None = None,
        name: str = "station",
        on_departure: Callable[[Request], None] | None = None,
        queue_capacity: int | None = None,
        on_refuse: Callable[[Request, str], None] | None = None,
        discipline: QueueDiscipline | None = None,
        admission=None,
        brownout: BrownoutController | None = None,
    ):
        if servers < 1:
            raise ValueError(f"servers must be >= 1, got {servers}")
        if queue_capacity is not None and queue_capacity < 0:
            raise ValueError(f"queue_capacity must be >= 0, got {queue_capacity}")
        self.sim = sim
        self.name = name
        self.service_dist = service_dist
        self.on_departure = on_departure
        self.queue_capacity = queue_capacity
        self.on_refuse = on_refuse
        self.admission = admission
        self._admission_feedback = getattr(admission, "on_response", None)
        self.brownout = brownout
        if brownout is not None:
            brownout.bind(self)
        self.drops = 0
        self.rejected = 0
        self.shed = 0
        self.degraded = 0
        self.cancellations = 0
        # Of the cancellations, those removed from the waiting line after
        # being counted as arrivals (on-wire cancels never arrive) — the
        # term that closes the request-conservation identity checked by
        # repro.analysis.invariants.
        self.cancelled_waiting = 0
        self._servers = int(servers)
        self._busy = 0
        self._failed = False
        self._discipline = discipline if discipline is not None else FIFODiscipline()
        self._discipline.bind(self)
        # The discipline's waiting deque, changed only in place: len() of
        # it is the queue length at C speed, with no Python-level call.
        self._waiting = self._discipline._queue
        self._rng = sim.spawn_rng()
        # Service times are pre-sampled in geometrically growing blocks
        # (one vectorized draw instead of one Distribution.sample call
        # per service start); the block comes from the station's private
        # stream, so per-seed determinism is unaffected.  The block is
        # kept as a plain list (one bulk tolist() per refill) so the
        # per-event access is a list index, not a NumPy scalar extraction.
        self._svc_block: list[float] | None = None
        self._svc_i = 0
        self._svc_n = 16
        # Exact time-integral accounting for utilization / queue length.
        self._last_change = sim.now
        self._busy_integral = 0.0
        self._queue_integral = 0.0
        self.arrivals = 0
        self.completions = 0
        # Observability is pull-model for stations: the collector polls
        # counters and occupancy at window boundaries, so the per-event
        # paths above pay nothing whether telemetry is on or off.
        if sim.telemetry is not None:
            sim.telemetry.register_station(self)
        if sim.invariants is not None:
            sim.invariants.register_station(self)

    # -- state inspection ------------------------------------------------
    @property
    def servers(self) -> int:
        """Current number of servers."""
        return self._servers

    @property
    def busy(self) -> int:
        """Servers currently serving a request."""
        return self._busy

    @property
    def queue_length(self) -> int:
        """Requests waiting (not in service)."""
        return len(self._waiting)

    @property
    def in_system(self) -> int:
        """Requests waiting or in service."""
        return self._busy + len(self._waiting)

    @property
    def failed(self) -> bool:
        """True while the station is down (queues but does not serve)."""
        return self._failed

    @property
    def dropped(self) -> int:
        """Queue-capacity drops (alias of ``drops``)."""
        return self.drops

    @property
    def discipline(self) -> QueueDiscipline:
        """The waiting-line discipline in use."""
        return self._discipline

    def pressure(self) -> float:
        """In-system requests per server — the overload signal
        backpressure-aware dispatch and failover read."""
        return self.in_system / self._servers

    def backlog_work(self) -> float:
        """Approximate unfinished work in seconds (for least-work dispatch).

        Sum of queued requests' (known or expected) service demands; the
        residual of in-service requests is approximated by half a mean
        service time each, which is exact in expectation for exponential
        service and a good proxy otherwise.
        """
        mean = self.service_dist.mean if self.service_dist is not None else 0.0
        queued = sum(
            r.service_time if r.service_time is not None else mean for r in self._discipline
        )
        return queued + 0.5 * mean * self._busy

    # -- dynamics --------------------------------------------------------
    def arrive(self, request: Request) -> None:
        """Accept (or refuse) a request at the current virtual time."""
        self._account()
        if request.canceled:
            # The client abandoned this attempt while it was on the wire
            # (timeout / hedge supersession); it never enters the queue.
            self.cancellations += 1
            return
        self.arrivals += 1
        request.arrived = self.sim.now
        if self.admission is not None and not self.admission.admit(self, request, self.sim.now):
            self.rejected += 1
            if self.on_refuse is not None:
                self.on_refuse(request, "rejected")
            return
        if not self._failed and self._busy < self._servers:
            self._start(request)
        elif self.queue_capacity is None or len(self._waiting) < self.queue_capacity:
            self._discipline.push(request)
        else:
            self.drops += 1
            if self._admission_feedback is not None:
                self._admission_feedback(None, False, self.sim.now)
            if self.on_refuse is not None:
                self.on_refuse(request, "dropped")

    def cancel(self, request: Request) -> bool:
        """Remove a *waiting* request from the queue (client timeout).

        Returns True if the request was found and removed.  In-service
        work cannot be reclaimed — the server finishes it and the client
        ignores the late response (wasted work, as in a real stack where
        the backend does not observe client disconnects mid-request).
        """
        if request not in self._discipline:
            return False  # held elsewhere: leave this station's integrals alone
        self._account()  # the request waited up to now: count it first
        self._discipline.remove(request)
        self.cancellations += 1
        self.cancelled_waiting += 1
        return True

    def set_servers(self, servers: int) -> None:
        """Change capacity at run time.

        Increasing capacity immediately starts queued requests; when
        decreasing, in-flight services finish normally and the station
        simply stops refilling above the new limit (graceful drain).
        """
        if servers < 1:
            raise ValueError(f"servers must be >= 1, got {servers}")
        self._account()
        self._servers = int(servers)
        self._refill()

    def _refill(self) -> None:
        while not self._failed and self._busy < self._servers:
            request = self._discipline.pop()
            if request is None:
                break
            self._start(request)

    def _shed(self, request: Request) -> None:
        """Discipline callback: a waiting request was shed (overload)."""
        self.shed += 1
        if self._admission_feedback is not None:
            self._admission_feedback(None, False, self.sim.now)
        if self.on_refuse is not None:
            self.on_refuse(request, "shed")

    def _sample_service(self) -> float:
        block = self._svc_block
        i = self._svc_i
        if block is None or i >= len(block):
            n = self._svc_n
            self._svc_n = min(2 * n, 4096)
            self._svc_block = block = (
                np.asarray(self.service_dist.sample(self._rng, n), dtype=float)
                .reshape(n)
                .tolist()
            )
            i = 0
        self._svc_i = i + 1
        return block[i]

    def _start(self, request: Request) -> None:
        self._busy += 1
        request.service_start = self.sim.now
        if request.service_time is None:
            if self.service_dist is None:
                raise ValueError(
                    f"station {self.name!r} has no service distribution and request "
                    f"{request.rid} carries no service_time"
                )
            request.service_time = self._sample_service()
        if self.brownout is not None and self.brownout.should_degrade(self, request):
            request.degraded = True
            request.service_time *= self.brownout.degraded_scale
            self.degraded += 1
        self.sim.schedule(request.service_time, self._finish, request)

    def _finish(self, request: Request) -> None:
        self._account()
        self._busy -= 1
        self.completions += 1
        request.service_end = self.sim.now
        if self._admission_feedback is not None:
            self._admission_feedback(request.service_end - request.arrived, True, self.sim.now)
        self._refill()
        if self.on_departure is not None:
            self.on_departure(request)

    def fail(self) -> None:
        """Take the station down: no new service starts; in-flight work
        completes (graceful-degradation semantics) and arrivals queue
        (or drop, if a queue bound is configured)."""
        self._account()
        self._failed = True

    def repair(self) -> None:
        """Bring the station back and immediately drain the backlog."""
        self._account()
        self._failed = False
        self._refill()

    # -- statistics ------------------------------------------------------
    def _account(self) -> None:
        dt = self.sim.now - self._last_change
        if dt > 0:
            self._busy_integral += dt * self._busy
            self._queue_integral += dt * len(self._waiting)
            self._last_change = self.sim.now

    @property
    def loss_rate(self) -> float:
        """Fraction of arrivals dropped (0 for unbounded queues)."""
        if self.arrivals == 0:
            return 0.0
        return self.drops / self.arrivals

    @property
    def refusal_counts(self):
        """The refusal taxonomy as one value
        (:class:`~repro.stats.refusals.RefusalCounts`)."""
        from repro.stats.refusals import RefusalCounts

        return RefusalCounts.from_station(self)

    @property
    def refusal_rate(self) -> float:
        """Fraction of arrivals refused for any reason (rejected, dropped
        or shed) — the overload-control analogue of :attr:`loss_rate`."""
        if self.arrivals == 0:
            return 0.0
        return self.refusal_counts.rate(self.arrivals)

    @property
    def degraded_fraction(self) -> float:
        """Fraction of service starts that ran the degraded (brownout)
        variant."""
        started = self.completions + self._busy
        if started <= 0:
            return 0.0
        return self.degraded / started

    def busy_time(self) -> float:
        """Cumulative busy-server seconds since t=0.

        The windowed telemetry collector differences this between window
        boundaries to get exact per-window utilization.
        """
        self._account()
        return self._busy_integral

    def queue_time(self) -> float:
        """Cumulative waiting-request seconds since t=0 (see :meth:`busy_time`)."""
        self._account()
        return self._queue_integral

    def utilization(self) -> float:
        """Time-average fraction of busy servers since t=0."""
        self._account()
        if self.sim.now == 0.0:
            return 0.0
        return self._busy_integral / (self.sim.now * self._servers)

    def mean_queue_length(self) -> float:
        """Time-average number of waiting requests since t=0."""
        self._account()
        if self.sim.now == 0.0:
            return 0.0
        return self._queue_integral / self.sim.now

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Station(name={self.name!r}, servers={self._servers}, busy={self._busy}, "
            f"queued={len(self._waiting)})"
        )
