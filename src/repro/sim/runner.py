"""High-level helpers that wire up and run edge/cloud simulations.

These are the entry points the experiments layer uses: given the
paper's knobs (number of sites k, servers per site, per-site request
rate, service model, RTTs) they build the topology, attach Poisson (or
custom) sources, run for a virtual duration and return the trimmed
latency breakdown.
"""

from __future__ import annotations

from repro.parallel import run_tasks
from repro.parallel.seeding import derive_seed
from repro.queueing.distributions import Distribution, Exponential
from repro.sim.client import OpenLoopSource, TraceSource
from repro.sim.engine import Simulation
from repro.sim.loadbalancer import DispatchPolicy
from repro.sim.network import LatencyModel
from repro.sim.topology import CloudDeployment, EdgeDeployment, EdgeSite, SiteRouter
from repro.sim.tracing import LatencyBreakdown
from repro.workload.trace import RequestTrace

__all__ = ["run_deployment", "run_comparison"]


def run_deployment(
    kind: str,
    *,
    sites: int,
    servers_per_site: int,
    rate_per_site: float,
    service_dist: Distribution,
    latency: LatencyModel,
    duration: float,
    seed: int = 0,
    interarrival: Distribution | None = None,
    site_rates: list[float] | None = None,
    policy: DispatchPolicy | None = None,
    backends: int | None = None,
    router: SiteRouter | None = None,
    warmup_fraction: float = 0.2,
    traces: list[RequestTrace] | None = None,
) -> LatencyBreakdown:
    """Simulate one deployment and return its latency breakdown.

    Parameters
    ----------
    kind:
        ``"edge"`` — ``sites`` sites with ``servers_per_site`` servers
        each, every site fed by its own source at ``rate_per_site``;
        ``"cloud"`` — one data center with ``sites × servers_per_site``
        servers fed by ``sites`` sources (the aggregate workload), as in
        the paper's experiments.
    rate_per_site:
        Mean request rate of each source, req/s.
    service_dist:
        Per-request service-time distribution (seconds).
    latency:
        Network model between clients and the deployment.
    duration:
        Virtual seconds to simulate.
    interarrival:
        Override source inter-arrival distribution at rate 1 (it is
        scaled by ``1/rate``); default Poisson.
    site_rates:
        Per-site rates for skewed workloads (overrides ``rate_per_site``;
        must have length ``sites``).
    policy / backends:
        Cloud-only: dispatch policy and backend count (``None`` = ideal
        central queue).
    router:
        Edge-only: geographic load-balancing hook.
    warmup_fraction:
        Fraction of the virtual duration discarded as warm-up.
    traces:
        Per-site request traces (length ``sites``), each replayed by a
        :class:`~repro.sim.client.TraceSource` in place of the open-loop
        source, with its service times when present.  Every request of
        every trace is submitted; ``duration`` then only sets the
        warm-up cut.  Excludes ``interarrival`` and ``site_rates``.

    Returns
    -------
    LatencyBreakdown
        Post-warm-up per-request latency components.
    """
    if kind not in ("edge", "cloud"):
        raise ValueError(f"kind must be 'edge' or 'cloud', got {kind!r}")
    if sites < 1 or servers_per_site < 1:
        raise ValueError("sites and servers_per_site must be >= 1")
    if duration <= 0:
        raise ValueError(f"duration must be > 0, got {duration}")
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError(f"warmup_fraction must be in [0, 1), got {warmup_fraction}")
    rates = list(site_rates) if site_rates is not None else [rate_per_site] * sites
    if len(rates) != sites:
        raise ValueError(f"site_rates has length {len(rates)}, expected {sites}")
    if any(r < 0 for r in rates) or sum(rates) <= 0:
        raise ValueError(f"site rates must be non-negative with positive sum, got {rates}")
    if traces is not None:
        if interarrival is not None or site_rates is not None:
            raise ValueError("traces cannot be combined with interarrival or site_rates")
        if len(traces) != sites:
            raise ValueError(f"traces has length {len(traces)}, expected {sites}")

    sim = Simulation(seed)
    if kind == "edge":
        deployment = EdgeDeployment(
            sim,
            [
                EdgeSite(sim, f"site-{i}", servers_per_site, latency, service_dist)
                for i in range(sites)
            ],
            router=router,
        )
    else:
        deployment = CloudDeployment(
            sim,
            servers=sites * servers_per_site,
            latency=latency,
            service_dist=service_dist,
            policy=policy,
            backends=backends,
        )

    for i, rate in enumerate(rates):
        site = f"site-{i}" if kind == "edge" else f"client-{i}"
        if traces is not None:
            trace = traces[i]
            TraceSource(sim, deployment, trace.arrival_times, trace.service_times, site=site)
        elif rate > 0:
            gap = (
                Exponential(1.0 / rate)
                if interarrival is None
                else interarrival.scaled(1.0 / (rate * interarrival.mean))
            )
            OpenLoopSource(sim, deployment, gap, site=site, stop_time=duration)

    sim.run()  # drain: sources stop at `duration` or their trace's end
    breakdown = deployment.log.breakdown().after(duration * warmup_fraction)
    # The station callbacks are bound methods of the deployment, a
    # reference cycle that would keep the finished topology and its
    # RequestLog buffer alive until a full cyclic collection.  Nothing
    # outlives this call but the breakdown, so unhook them and let
    # reference counting free the deployment on return.
    for station in deployment.stations:
        station.on_departure = station.on_refuse = None
    return breakdown


def _run_deployment_task(kind: str, kwargs: dict) -> LatencyBreakdown:
    """Module-level trampoline so :func:`run_comparison` tasks pickle."""
    return run_deployment(kind, **kwargs)


def run_comparison(
    *,
    sites: int,
    servers_per_site: int,
    rate_per_site: float,
    service_dist: Distribution,
    edge_latency: LatencyModel,
    cloud_latency: LatencyModel,
    duration: float,
    seed: int = 0,
    workers: int | None = None,
    **kwargs,
) -> tuple[LatencyBreakdown, LatencyBreakdown]:
    """Run the paper's paired experiment: same workload, edge vs cloud.

    Returns ``(edge, cloud)`` latency breakdowns.  Extra keyword
    arguments are forwarded to :func:`run_deployment` (e.g. ``policy``
    for the cloud or ``site_rates`` for skew — deployment-specific knobs
    are routed to the deployment they apply to).

    The two runs are seeded independently, so with ``workers >= 2`` they
    execute concurrently in separate processes with bit-identical
    results (:mod:`repro.parallel`).
    """
    edge_kwargs = dict(kwargs)
    cloud_kwargs = dict(kwargs)
    edge_kwargs.pop("policy", None)
    edge_kwargs.pop("backends", None)
    cloud_kwargs.pop("router", None)
    shared = {
        "sites": sites,
        "servers_per_site": servers_per_site,
        "rate_per_site": rate_per_site,
        "service_dist": service_dist,
        "duration": duration,
    }
    edge, cloud = run_tasks(
        _run_deployment_task,
        [
            ("edge", {**shared, "latency": edge_latency, "seed": seed, **edge_kwargs}),
            ("cloud", {**shared, "latency": cloud_latency, "seed": derive_seed(seed, 1), **cloud_kwargs}),
        ],
        workers=workers,
        label="deployment run",
    )
    return edge, cloud
