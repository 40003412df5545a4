"""Edge and cloud deployment topologies.

Two deployment shapes mirror Figure 1 of the paper:

* :class:`EdgeDeployment` — k geo-distributed sites, each a nearby
  station behind a low-latency link; a request is served by the site its
  client is attached to (optionally redirected by a
  :class:`SiteRouter`, the hook used by geographic load balancing).
* :class:`CloudDeployment` — a distant data center: either one pooled
  central-queue station (the paper's analytic M/M/k model) or multiple
  per-server stations behind a dispatch policy (the HAProxy reality).

Both subclass :class:`Deployment`, which owns the shared half of the
submit → (wire out) → queue/serve → (wire back) → log pipeline: the
return leg, the refusal leg, the outcome counters and the request log.
The deployment, not the station, owns the network legs; a subclass only
routes requests out and names the network model each one returns over.
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

__all__ = ["Deployment", "EdgeSite", "EdgeDeployment", "CloudDeployment", "SiteRouter"]


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


class Deployment:
    """The client-facing half every deployment shares.

    A subclass routes requests out (:meth:`submit`), names the network
    model a request returns over (:meth:`_latency_of`) and hands its
    stations to :meth:`_attach`.  The base owns the rest: the return leg
    of a served request (:meth:`_on_departure` → :meth:`_complete`, into
    ``log``), the return leg of a refusal (:meth:`_on_refuse` →
    :meth:`_complete_failed`, counted in ``dropped``/``shed``/
    ``rejected``), responses lost on the wire (``lost``), client
    cancellation and telemetry reporting.  Every outcome, served or
    refused, reaches the optional ``on_complete`` hook, so closed-loop
    users and resilient clients observe it.

    The constructor spawns the deployment's random stream (network legs
    and dispatch ties), so where a subclass calls it fixes the seeded
    stream layout.
    """

    def __init__(self, sim: Simulation):
        self.sim = sim
        self.log = RequestLog()
        self.on_complete = None  # optional hook: called with each finished request
        self.stations: list[Station] = []
        self.dropped = 0
        self.shed = 0
        self.rejected = 0
        self.lost = 0
        self._rng = sim.spawn_rng()
        self._tel = sim.telemetry

    def _latency_of(self, request: Request) -> LatencyModel:
        """The network model ``request`` returns to its client over."""
        raise NotImplementedError

    def _attach(self, stations: Sequence[Station]) -> None:
        """Own ``stations``: their departures and refusals come back here."""
        self.stations = list(stations)
        for station in self.stations:
            station.on_departure = self._on_departure
            station.on_refuse = self._on_refuse

    def cancel(self, request: Request) -> bool:
        """Best-effort cancellation of a queued request (client timeout)."""
        return any(station.cancel(request) for station in self.stations)

    def _on_departure(self, request: Request) -> None:
        latency = self._latency_of(request)
        if latency.is_lost(self._rng, self.sim.now):
            self.lost += 1
            request.outcome = "lost"
            return  # response lost on the return leg: served but never seen
        delay = latency.sample_oneway(self._rng)
        self.sim.schedule(delay, self._complete, request)

    def _on_refuse(self, request: Request, outcome: str) -> None:
        # The refusal still crosses the return wire leg, then surfaces
        # through ``on_complete`` with a failed outcome (conserving the
        # closed-loop population).
        delay = self._latency_of(request).sample_oneway(self._rng)
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


class EdgeDeployment(Deployment):
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
        super().__init__(sim)  # after the caller built the sites' streams
        self.sites = list(sites)
        self.by_name = {s.name: s for s in self.sites}
        self.router = router
        self._attach([site.station for site in self.sites])

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

    def _latency_of(self, request: Request) -> LatencyModel:
        return self.by_name[request.site].latency

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EdgeDeployment(sites={[s.name for s in self.sites]})"


class CloudDeployment(Deployment):
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
        queue_capacity: int | None = None,
        discipline=None,
        admission=None,
        brownout=None,
    ):
        super().__init__(sim)  # before the stations spawn their streams
        self.latency = latency
        self.policy = policy

        def make(control):
            return control() if callable(control) else control

        def station(n_servers, name):
            return Station(
                sim, n_servers, service_dist, name=name, queue_capacity=queue_capacity,
                discipline=make(discipline), admission=make(admission),
                brownout=make(brownout),
            )

        if policy is None:
            self._attach([station(servers, "cloud")])
        else:
            if backends is None:
                raise ValueError("backends is required when a dispatch policy is given")
            if servers % backends != 0:
                raise ValueError(f"servers ({servers}) must divide evenly among {backends} backends")
            per = servers // backends
            self._attach([station(per, f"cloud-{i}") for i in range(backends)])
        if self._tel is not None and policy is not None:
            self._tel.register_observables("lb.cloud", policy)

    def submit(self, request: Request) -> None:
        """Send a request from its client toward the cloud."""
        if self.latency.is_lost(self._rng, self.sim.now):
            self.lost += 1
            request.outcome = "lost"
            return
        delay = self.latency.sample_oneway(self._rng)
        self.sim.schedule(delay, self._dispatch, request)

    def _dispatch(self, request: Request) -> None:
        if request.canceled:
            return  # abandoned while crossing the wire; never reaches a queue
        if self.policy is None:
            station = self.stations[0]
        else:
            station = self.policy.choose(self.stations, self._rng)
        station.arrive(request)

    def _latency_of(self, request: Request) -> LatencyModel:
        return self.latency

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "central-queue" if self.policy is None else type(self.policy).__name__
        total = sum(s.servers for s in self.stations)
        return f"CloudDeployment(servers={total}, dispatch={kind})"
