"""Open-loop workload sources (the Gatling stand-in).

The paper's workload generator fires requests at a configured rate (or
replays a trace) regardless of outstanding responses — an *open-loop*
driver, which is what exposes queueing delay honestly.  Two sources:

* :class:`OpenLoopSource` — renewal arrivals from an
  :class:`~repro.workload.arrivals.ArrivalProcess`.
* :class:`TraceSource` — replays explicit (timestamp, service-time)
  pairs, used for the Azure-trace experiments (Figs 8–10).
"""

from __future__ import annotations

from itertools import count
from typing import Protocol

import numpy as np

from repro.sim.engine import Simulation
from repro.sim.request import Request
from repro.workload.trace import RequestTrace

__all__ = ["OpenLoopSource", "ClosedLoopSource", "TraceSource", "Target"]

_GLOBAL_RID = count()

#: First pre-sampled RNG block size; doubles per refill up to the cap, so
#: short runs waste few draws and long runs amortize the per-call numpy
#: dispatch overhead across thousands of events.
_FIRST_BLOCK = 16
_MAX_BLOCK = 4096


class Target(Protocol):
    """Anything requests can be submitted to (a deployment)."""

    def submit(self, request: Request) -> None: ...


class OpenLoopSource:
    """Generate requests with i.i.d. inter-arrival gaps.

    Parameters
    ----------
    sim:
        Owning simulation.
    target:
        Deployment receiving the requests.
    interarrival:
        Distribution of gaps between consecutive requests (seconds);
        an :class:`~repro.queueing.distributions.Exponential` makes the
        source Poisson.
    site:
        Home-site label stamped on each request (edge routing key).
    stop_time:
        No requests are generated at or after this virtual time.
    priority:
        Request class stamped on each request (0 = most important,
        larger = more sheddable) — either a fixed int or a callable
        ``rng -> int`` drawing a class per request (a traffic mix for
        priority-aware load shedding).
    """

    def __init__(
        self,
        sim: Simulation,
        target: Target,
        interarrival,
        site: str | None = None,
        stop_time: float = np.inf,
        priority=0,
    ):
        self.sim = sim
        self.target = target
        self.interarrival = interarrival
        self.site = site
        self.stop_time = stop_time
        self.priority = priority
        self.generated = 0
        self._rng = sim.spawn_rng()
        # Inter-arrival gaps are pre-sampled in geometrically growing
        # blocks: one vectorized draw per block instead of one
        # `Distribution.sample` call per event (the dominant per-event
        # cost of a source in profile).  The block comes from the
        # source's private stream, so results are deterministic per seed.
        # Stored as a plain list (bulk tolist() per refill) so each event
        # pays a list index, not a NumPy scalar extraction.
        self._gaps: list[float] | None = None
        self._gap_i = 0
        self._block = _FIRST_BLOCK
        sim.schedule(self._next_gap(), self._fire)

    def _next_gap(self) -> float:
        gaps = self._gaps
        i = self._gap_i
        if gaps is None or i >= len(gaps):
            n = self._block
            self._block = min(2 * n, _MAX_BLOCK)
            self._gaps = gaps = (
                np.asarray(self.interarrival.sample(self._rng, n), dtype=float)
                .reshape(n)
                .tolist()
            )
            i = 0
        self._gap_i = i + 1
        return gaps[i]

    def _fire(self) -> None:
        if self.sim.now >= self.stop_time:
            return
        priority = self.priority(self._rng) if callable(self.priority) else self.priority
        request = Request(
            next(_GLOBAL_RID), site=self.site, created=self.sim.now, priority=priority
        )
        self.generated += 1
        self.target.submit(request)
        self.sim.schedule(self._next_gap(), self._fire)


class ClosedLoopSource:
    """A fixed population of users alternating think time and requests.

    The closed-loop model: each of ``users`` virtual users thinks for an
    i.i.d. think time, issues one request, waits for its response, and
    repeats.  Unlike the open-loop sources, offered load *self-throttles*
    under congestion (at most ``users`` requests are ever outstanding) —
    the regime interactive applications actually live in, and a useful
    contrast to the open-loop results (ablation A7).

    The target deployment must expose an ``on_complete`` hook (every
    :class:`~repro.sim.topology.Deployment` does); this source chains
    onto any existing hook.

    Parameters
    ----------
    users:
        Population size (maximum concurrency).
    think:
        Think-time distribution (seconds) between response and next
        request.
    """

    def __init__(
        self,
        sim: Simulation,
        target,
        users: int,
        think,
        site: str | None = None,
        stop_time: float = np.inf,
    ):
        if users < 1:
            raise ValueError(f"users must be >= 1, got {users}")
        if not hasattr(target, "on_complete"):
            raise TypeError(
                f"{type(target).__name__} does not expose an on_complete hook"
            )
        self.sim = sim
        self.target = target
        self.users = int(users)
        self.think = think
        self.site = site
        self.stop_time = stop_time
        self.generated = 0
        self.failed_responses = 0
        self._rng = sim.spawn_rng()
        self._mine: set[int] = set()
        self._prev_hook = target.on_complete
        target.on_complete = self._on_complete
        # One batch insert for the initial think times: draws happen in
        # user order exactly as sequential schedule() calls would, so the
        # calendar tie-break (and thus the run) is unchanged.
        delays = [float(self.think.sample(self._rng)) for _ in range(self.users)]
        sim.schedule_batch(delays, self._send)

    @property
    def outstanding(self) -> int:
        """Requests currently awaiting a response (≤ ``users``)."""
        return len(self._mine)

    def _send(self) -> None:
        if self.sim.now >= self.stop_time:
            return
        request = Request(next(_GLOBAL_RID), site=self.site, created=self.sim.now)
        self._mine.add(request.rid)
        self.generated += 1
        self.target.submit(request)

    def _on_complete(self, request: Request) -> None:
        # Failed responses (bounded-queue drops, resilience-layer
        # deadline misses) flow through here too: the virtual user gets
        # its error back and thinks again, so the closed-loop population
        # is conserved even when the target sheds load.
        if self._prev_hook is not None:
            self._prev_hook(request)
        if request.rid in self._mine:
            self._mine.discard(request.rid)
            if request.outcome not in (None, "ok"):
                self.failed_responses += 1
            self.sim.schedule(float(self.think.sample(self._rng)), self._send)


class TraceSource:
    """Replay an explicit request trace.

    Parameters
    ----------
    sim:
        Owning simulation.
    target:
        Deployment receiving the requests.
    arrival_times:
        Absolute request timestamps (seconds), finite and non-decreasing,
        none before ``sim.now``.
    service_times:
        Optional per-request service demands; when given, stations use
        these instead of sampling (trace-faithful replay).
    site:
        Home-site label stamped on each request.
    """

    def __init__(
        self,
        sim: Simulation,
        target: Target,
        arrival_times,
        service_times=None,
        site: str | None = None,
    ):
        trace = RequestTrace(arrival_times, service_times)
        if len(trace) and trace.arrival_times[0] < sim.now:
            raise ValueError("trace starts in the past")
        self.sim = sim
        self.target = target
        self.site = site
        self.generated = 0
        # Lazy scheduling: only the *next* trace event sits in the
        # calendar (O(1) per source instead of O(len(trace)) — a
        # multi-hour Azure trace no longer materializes millions of
        # heap entries up front).  The arrays are converted once to
        # plain float lists, so each event pays a list index, not a
        # NumPy scalar read.
        self._times: list[float] = trace.arrival_times.tolist()
        self._services: list[float] | None = (
            None if trace.service_times is None else trace.service_times.tolist()
        )
        self._next = 0
        if self._times:
            sim.schedule_at(self._times[0], self._fire)

    @property
    def remaining(self) -> int:
        """Trace entries not yet fired."""
        return len(self._times) - self._next

    def _fire(self) -> None:
        i = self._next
        service_time = self._services[i] if self._services is not None else None
        self._next = i + 1
        self.generated += 1
        if i + 1 < len(self._times):
            self.sim.schedule_at(self._times[i + 1], self._fire)
        request = Request(
            next(_GLOBAL_RID), site=self.site, created=self.sim.now, service_time=service_time
        )
        self.target.submit(request)
