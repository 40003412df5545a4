"""Hierarchical edge→cloud offloading (extension of §5 / related work [29]).

A hybrid deployment keeps an edge site in front of every client but
offloads to the distant cloud whenever the local site is congested —
combining the edge's low RTT at low load with the cloud's pooled queue
at high load.  This is the natural "third option" the paper's framing
implies: instead of choosing edge *or* cloud, route per request.

The offload signal is local queue pressure (requests in system per
server), the same signal :class:`~repro.mitigation.geo_lb.GeoLoadBalancer`
uses between sites.  The return legs, refusals, cancellation and
``on_complete`` hook are the shared ones of
:class:`~repro.sim.topology.Deployment`.
"""

from __future__ import annotations

from repro.queueing.distributions import Distribution
from repro.sim.engine import Simulation
from repro.sim.network import LatencyModel
from repro.sim.request import Request
from repro.sim.station import Station
from repro.sim.topology import Deployment

__all__ = ["HybridDeployment"]


class HybridDeployment(Deployment):
    """Edge sites with a shared cloud overflow pool.

    Parameters
    ----------
    sim:
        Owning simulation.
    sites / servers_per_site:
        Number of edge sites and servers at each.
    cloud_servers:
        Pooled servers at the overflow cloud.
    edge_latency / cloud_latency:
        Client ↔ edge and client ↔ cloud network models.
    service_dist:
        Service-time distribution (same hardware everywhere, as in the
        paper's same-configuration assumption).
    offload_threshold:
        Offload to the cloud when the home site's in-system count per
        server is at or above this value (1.0 = all servers busy).
    """

    def __init__(
        self,
        sim: Simulation,
        sites: int,
        servers_per_site: int,
        cloud_servers: int,
        edge_latency: LatencyModel,
        cloud_latency: LatencyModel,
        service_dist: Distribution,
        offload_threshold: float = 1.0,
    ):
        if sites < 1 or servers_per_site < 1 or cloud_servers < 1:
            raise ValueError("sites, servers_per_site and cloud_servers must be >= 1")
        if offload_threshold <= 0:
            raise ValueError(f"offload_threshold must be > 0, got {offload_threshold}")
        super().__init__(sim)  # before the stations spawn their streams
        self.edge_latency = edge_latency
        self.cloud_latency = cloud_latency
        self.offload_threshold = float(offload_threshold)
        self.edge_stations = [
            Station(sim, servers_per_site, service_dist, name=f"site-{i}")
            for i in range(sites)
        ]
        self.cloud_station = Station(sim, cloud_servers, service_dist, name="cloud")
        self._attach([*self.edge_stations, self.cloud_station])
        self.offloaded = 0
        self.submitted = 0

    def submit(self, request: Request) -> None:
        """Route a request to its home edge site or offload to the cloud."""
        self.submitted += 1
        home = self._home_station(request)
        pressure = home.in_system / home.servers
        if pressure >= self.offload_threshold:
            self.offloaded += 1
            request.site = "cloud"
            latency, station = self.cloud_latency, self.cloud_station
        else:
            latency, station = self.edge_latency, home
        if latency.is_lost(self._rng, self.sim.now):
            self.lost += 1
            request.outcome = "lost"
            return  # silently never arrives; only a client deadline recovers it
        self.sim.schedule(latency.sample_oneway(self._rng), station.arrive, request)

    def _home_station(self, request: Request) -> Station:
        if request.site is None:
            raise ValueError(f"request {request.rid} carries no home site")
        for st in self.edge_stations:
            if st.name == request.site:
                return st
        raise KeyError(f"unknown home site {request.site!r}")

    def _latency_of(self, request: Request) -> LatencyModel:
        # Offloaded requests were re-labelled "cloud" on submit.
        return self.cloud_latency if request.site == "cloud" else self.edge_latency

    @property
    def offload_fraction(self) -> float:
        """Fraction of requests sent to the cloud."""
        if self.submitted == 0:
            return 0.0
        return self.offloaded / self.submitted

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HybridDeployment(sites={len(self.edge_stations)}, "
            f"cloud_servers={self.cloud_station.servers}, "
            f"threshold={self.offload_threshold})"
        )
