"""Edge and cloud deployment topologies.

Two deployment shapes mirror Figure 1 of the paper:

* :class:`EdgeDeployment` — k geo-distributed sites, each a nearby
  station behind a low-latency link; a request is served by the site its
  client is attached to (optionally redirected by a
  :class:`SiteRouter`, the hook used by geographic load balancing).
* :class:`CloudDeployment` — a distant data center: either one pooled
  central-queue station (the paper's analytic M/M/k model) or multiple
  per-server stations behind a dispatch policy (the HAProxy reality).

Both share a submit → (wire out) → queue/serve → (wire back) → log
pipeline; the deployment, not the station, owns the network legs.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Protocol

from repro.queueing.distributions import Distribution
from repro.sim.engine import Simulation
from repro.sim.loadbalancer import DispatchPolicy
from repro.sim.network import LatencyModel
from repro.sim.request import Request
from repro.sim.station import Station
from repro.sim.tracing import RequestLog
from repro.stats.refusals import RefusalCounts

__all__ = ["EdgeSite", "EdgeDeployment", "CloudDeployment", "SiteRouter"]


class SiteRouter(Protocol):
    """Policy hook that may re-route a request away from its home site.

    Implementations return the serving site and the extra one-way delay
    (seconds) incurred by the redirection (e.g. the inter-site hop of
    geographic load balancing).  Returning the home site with 0.0 keeps
    the default behaviour.
    """

    def route(
        self, deployment: "EdgeDeployment", request: Request, home: "EdgeSite"
    ) -> tuple["EdgeSite", float]: ...


class EdgeSite:
    """One edge location: a station reached over a short link.

    ``discipline``, ``admission`` and ``brownout`` are the per-station
    overload controls (see :mod:`repro.sim.overload` and
    :mod:`repro.mitigation.admission`); each instance is stateful and
    belongs to this site alone.
    """

    def __init__(
        self,
        sim: Simulation,
        name: str,
        servers: int,
        latency: LatencyModel,
        service_dist: Distribution | None = None,
        queue_capacity: int | None = None,
        discipline=None,
        admission=None,
        brownout=None,
    ):
        self.sim = sim
        self.name = name
        self.latency = latency
        self.station = Station(
            sim,
            servers,
            service_dist,
            name=name,
            queue_capacity=queue_capacity,
            discipline=discipline,
            admission=admission,
            brownout=brownout,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EdgeSite(name={self.name!r}, servers={self.station.servers})"


class EdgeDeployment:
    """k edge sites, each serving its locally attached clients.

    Parameters
    ----------
    sim:
        Owning simulation.
    sites:
        The edge sites.  Requests carry the name of their home site.
    router:
        Optional redirection policy (geographic load balancing).
    """

    def __init__(
        self,
        sim: Simulation,
        sites: Sequence[EdgeSite],
        router: SiteRouter | None = None,
    ):
        if not sites:
            raise ValueError("need at least one edge site")
        names = [s.name for s in sites]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate site names: {names}")
        self.sim = sim
        self.sites = list(sites)
        self.by_name = {s.name: s for s in self.sites}
        self.router = router
        self.log = RequestLog()
        self.on_complete = None  # optional hook: called with each finished request
        self.dropped = 0
        self.shed = 0
        self.rejected = 0
        self.lost = 0
        self._rng = sim.spawn_rng()
        self._tel = sim.telemetry
        for site in self.sites:
            site.station.on_departure = self._on_departure
            site.station.on_drop = self._on_drop
            site.station.on_shed = self._on_shed
            site.station.on_reject = self._on_reject

    def submit(self, request: Request) -> None:
        """Send a request from its client toward its home edge site."""
        home = self.by_name.get(request.site)
        if home is None:
            raise KeyError(f"request {request.rid} names unknown site {request.site!r}")
        extra = 0.0
        site = home
        if self.router is not None:
            site, extra = self.router.route(self, request, home)
            if site is not home:
                request.redirects += 1
                request.site = site.name
        if site.latency.is_lost(self._rng, self.sim.now):
            self.lost += 1
            request.outcome = "lost"
            return  # silently never arrives; only a client deadline recovers it
        delay = site.latency.sample_oneway(self._rng) + extra
        self.sim.schedule(delay, site.station.arrive, request)

    def cancel(self, request: Request) -> bool:
        """Best-effort cancellation of a queued request (client timeout)."""
        site = self.by_name.get(request.site)
        return site is not None and site.station.cancel(request)

    def _on_departure(self, request: Request) -> None:
        site = self.by_name[request.site]
        if site.latency.is_lost(self._rng, self.sim.now):
            self.lost += 1
            request.outcome = "lost"
            return  # response lost on the return leg: served but never seen
        delay = site.latency.sample_oneway(self._rng)
        self.sim.schedule(delay, self._complete, request)

    def _on_drop(self, request: Request) -> None:
        # Bounded-queue rejection: the refusal still crosses the return
        # wire leg, then surfaces through ``on_complete`` with a failed
        # outcome so closed-loop users and resilient clients observe it
        # (conserving the closed-loop population).
        self._refuse(request, "dropped")

    def _on_shed(self, request: Request) -> None:
        self._refuse(request, "shed")

    def _on_reject(self, request: Request) -> None:
        self._refuse(request, "rejected")

    def _refuse(self, request: Request, outcome: str) -> None:
        site = self.by_name[request.site]
        delay = site.latency.sample_oneway(self._rng)
        self.sim.schedule(delay, self._complete_failed, request, outcome)

    def _complete_failed(self, request: Request, outcome: str) -> None:
        request.completed = self.sim.now
        request.outcome = outcome
        if outcome == "shed":
            self.shed += 1
        elif outcome == "rejected":
            self.rejected += 1
        else:
            self.dropped += 1
        if self._tel is not None:
            self._tel.record_refusal(request, outcome)
        if self.on_complete is not None:
            self.on_complete(request)

    def _complete(self, request: Request) -> None:
        request.completed = self.sim.now
        self.log.add(request)
        if self._tel is not None:
            self._tel.record_success(request)
        if self.on_complete is not None:
            self.on_complete(request)

    @property
    def refusal_counts(self) -> RefusalCounts:
        """Refusals that surfaced to clients, as one value."""
        return RefusalCounts.from_deployment(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EdgeDeployment(sites={[s.name for s in self.sites]})"


class CloudDeployment:
    """A distant cloud data center serving the aggregate workload.

    Parameters
    ----------
    sim:
        Owning simulation.
    servers:
        Total cloud servers (the paper's k, times cores per server if the
        service model is per-core).
    latency:
        Client ↔ cloud network model (same for all clients, as in the
        paper where one region hosts the workload generator).
    service_dist:
        Service-time distribution for requests without pre-assigned times.
    policy:
        ``None`` models the ideal central queue (one station with all
        servers — the paper's M/M/k).  A :class:`DispatchPolicy` models a
        load balancer in front of ``backends`` per-backend stations.
    backends:
        Number of backend stations when ``policy`` is given; ``servers``
        must divide evenly among them.
    lb_overhead:
        Extra one-way delay (seconds) of the load-balancer hop the
        cloud path crosses and the edge path does not (HAProxy in the
        paper's setup); applied on the inbound leg.
    queue_capacity:
        Per-station bound on *waiting* requests (``None`` = unbounded).
        Rejections route through the drop path like edge drops.
    discipline / admission / brownout:
        Per-station overload controls (see :class:`EdgeSite`).  These
        are stateful one-per-station objects, so with multiple backends
        pass a zero-argument *factory* returning a fresh instance; a
        plain instance is accepted when there is a single station.
    """

    def __init__(
        self,
        sim: Simulation,
        servers: int,
        latency: LatencyModel,
        service_dist: Distribution | None = None,
        policy: DispatchPolicy | None = None,
        backends: int | None = None,
        lb_overhead: float = 0.0,
        queue_capacity: int | None = None,
        discipline=None,
        admission=None,
        brownout=None,
    ):
        if lb_overhead < 0:
            raise ValueError(f"lb_overhead must be >= 0, got {lb_overhead}")
        self.sim = sim
        self.latency = latency
        self.policy = policy
        self.lb_overhead = float(lb_overhead)
        self.log = RequestLog()
        self.on_complete = None  # optional hook: called with each finished request
        self.dropped = 0
        self.shed = 0
        self.rejected = 0
        self.lost = 0
        self._rng = sim.spawn_rng()
        self._tel = sim.telemetry

        def make(control):
            return control() if callable(control) else control

        def station(n_servers, name):
            return Station(
                sim, n_servers, service_dist, name=name,
                on_departure=self._on_departure, queue_capacity=queue_capacity,
                on_drop=self._on_drop, on_shed=self._on_shed, on_reject=self._on_reject,
                discipline=make(discipline), admission=make(admission),
                brownout=make(brownout),
            )

        if policy is None:
            self.stations = [station(servers, "cloud")]
        else:
            if backends is None:
                raise ValueError("backends is required when a dispatch policy is given")
            if servers % backends != 0:
                raise ValueError(f"servers ({servers}) must divide evenly among {backends} backends")
            per = servers // backends
            self.stations = [station(per, f"cloud-{i}") for i in range(backends)]
        if self._tel is not None and policy is not None:
            self._tel.register_observables("lb.cloud", policy)

    def submit(self, request: Request) -> None:
        """Send a request from its client toward the cloud."""
        if self.latency.is_lost(self._rng, self.sim.now):
            self.lost += 1
            request.outcome = "lost"
            return
        delay = self.latency.sample_oneway(self._rng) + self.lb_overhead
        self.sim.schedule(delay, self._dispatch, request)

    def cancel(self, request: Request) -> bool:
        """Best-effort cancellation of a queued request (client timeout)."""
        return any(st.cancel(request) for st in self.stations)

    def _dispatch(self, request: Request) -> None:
        if request.canceled:
            return  # abandoned while crossing the wire; never reaches a queue
        if self.policy is None:
            station = self.stations[0]
        else:
            station = self.policy.choose(self.stations, self._rng)
        station.arrive(request)

    def _on_departure(self, request: Request) -> None:
        if self.latency.is_lost(self._rng, self.sim.now):
            self.lost += 1
            request.outcome = "lost"
            return
        delay = self.latency.sample_oneway(self._rng)
        self.sim.schedule(delay, self._complete, request)

    def _on_drop(self, request: Request) -> None:
        self._refuse(request, "dropped")

    def _on_shed(self, request: Request) -> None:
        self._refuse(request, "shed")

    def _on_reject(self, request: Request) -> None:
        self._refuse(request, "rejected")

    def _refuse(self, request: Request, outcome: str) -> None:
        delay = self.latency.sample_oneway(self._rng)
        self.sim.schedule(delay, self._complete_failed, request, outcome)

    def _complete_failed(self, request: Request, outcome: str) -> None:
        request.completed = self.sim.now
        request.outcome = outcome
        if outcome == "shed":
            self.shed += 1
        elif outcome == "rejected":
            self.rejected += 1
        else:
            self.dropped += 1
        if self._tel is not None:
            self._tel.record_refusal(request, outcome)
        if self.on_complete is not None:
            self.on_complete(request)

    def _complete(self, request: Request) -> None:
        request.completed = self.sim.now
        self.log.add(request)
        if self._tel is not None:
            self._tel.record_success(request)
        if self.on_complete is not None:
            self.on_complete(request)

    @property
    def refusal_counts(self) -> RefusalCounts:
        """Refusals that surfaced to clients, as one value."""
        return RefusalCounts.from_deployment(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "central-queue" if self.policy is None else type(self.policy).__name__
        total = sum(s.servers for s in self.stations)
        return f"CloudDeployment(servers={total}, dispatch={kind})"
