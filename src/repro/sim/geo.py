"""Multi-region geographies: per-region RTT heterogeneity.

The paper's experiments fix one client region per run; real
geo-distributed applications serve *many* regions at once, each with
its own edge RTT and its own distance to the nearest cloud data
center.  Corollary 3.1.3 predicts the consequence: regions close to a
cloud data center see inversion at low utilization, remote regions
keep their edge advantage much longer.  This module makes that
heterogeneous comparison runnable:

* :class:`Region` — one client population: demand share, edge RTT,
  cloud RTT.
* :class:`GeoWorkload` — per-region workloads derived from a total rate.
* :func:`simulate_geo_comparison` — edge (one site per region) vs a
  single shared cloud, with per-request RTTs taken from the request's
  region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence
from functools import partial

import numpy as np

from repro.queueing.distributions import Distribution
from repro.sim.fastsim import _through_network, simulate_fcfs_queue
from repro.sim.tracing import LatencyBreakdown

__all__ = ["Region", "GeoComparison", "simulate_geo_comparison"]


@dataclass(frozen=True)
class Region:
    """One client region of a geo-distributed application.

    Attributes
    ----------
    name:
        Label used in results.
    weight:
        Share of the aggregate demand (normalized across regions).
    edge_rtt:
        RTT to the region's own edge site, seconds.
    cloud_rtt:
        RTT to the (single) cloud deployment, seconds.
    """

    name: str
    weight: float
    edge_rtt: float
    cloud_rtt: float

    def __post_init__(self):
        if not (math.isfinite(self.weight) and self.weight >= 0):
            raise ValueError(f"weight must be finite and >= 0, got {self.weight}")
        if not all(math.isfinite(r) and r >= 0 for r in (self.edge_rtt, self.cloud_rtt)):
            raise ValueError("RTTs must be finite and >= 0")
        if self.cloud_rtt <= self.edge_rtt:
            raise ValueError(
                f"region {self.name!r}: cloud RTT ({self.cloud_rtt}) must exceed "
                f"edge RTT ({self.edge_rtt})"
            )


@dataclass(frozen=True)
class GeoComparison:
    """Per-region edge and cloud latency results."""

    regions: tuple[Region, ...]
    edge: LatencyBreakdown  # site == region index
    cloud: LatencyBreakdown  # site == region index of the requester

    def region_means(self) -> list[tuple[str, float, float]]:
        """Per-region ``(name, edge_mean, cloud_mean)`` in seconds."""
        out = []
        for i, region in enumerate(self.regions):
            out.append(
                (
                    region.name,
                    float(self.edge.for_site(i).end_to_end.mean()),
                    float(self.cloud.for_site(i).end_to_end.mean()),
                )
            )
        return out

    def inverted_regions(self) -> list[str]:
        """Regions whose mean edge latency exceeds their cloud latency."""
        return [
            name for name, e, c in self.region_means() if e > c
        ]


def simulate_geo_comparison(
    regions: Sequence[Region],
    total_rate: float,
    service: Distribution,
    servers_per_site: int,
    *,
    n_per_region_unit: int = 50_000,
    seed: int = 0,
    warmup_fraction: float = 0.1,
) -> GeoComparison:
    """Run the heterogeneous edge-vs-cloud comparison.

    The edge gives every region its own ``servers_per_site``-server
    site; the cloud pools ``len(regions) × servers_per_site`` servers
    and serves all regions over their individual cloud RTTs.

    Parameters
    ----------
    total_rate:
        Aggregate demand (req/s) split across regions by weight.
    n_per_region_unit:
        Requests generated for a region with weight ``1/len(regions)``;
        other regions scale proportionally (so all regions cover the
        same virtual time span).
    """
    regions = tuple(regions)
    if not regions:
        raise ValueError("need at least one region")
    if total_rate <= 0:
        raise ValueError(f"total_rate must be > 0, got {total_rate}")
    if servers_per_site < 1:
        raise ValueError(f"servers_per_site must be >= 1, got {servers_per_site}")
    if n_per_region_unit < 1:
        raise ValueError(f"n_per_region_unit must be >= 1, got {n_per_region_unit}")
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError(f"warmup_fraction must be in [0, 1), got {warmup_fraction}")
    for region in regions:
        if not region.weight > 0:
            raise ValueError(f"region {region.name!r} needs weight > 0, got {region.weight}")
    weights = np.array([r.weight for r in regions], dtype=float)
    weights = weights / weights.sum()
    rng = np.random.default_rng(seed)

    k = len(regions)
    per_region_n = np.maximum(
        1, np.round(n_per_region_unit * k * weights).astype(int)
    )

    # Per-region workloads (Poisson arrivals, shared service law).
    arrivals, services = [], []
    for i, _region in enumerate(regions):
        rate = total_rate * weights[i]
        n = int(per_region_n[i])
        arrivals.append(np.cumsum(rng.exponential(1.0 / rate, n)))
        services.append(np.asarray(service.sample(rng, n), dtype=float))
    all_region = np.concatenate(
        [np.full(a.size, i, dtype=np.int64) for i, a in enumerate(arrivals)]
    )

    # Edge: one independent queue per region, its own RTT.  The whole
    # RTT rides on the return leg: a constant outbound shift would leave
    # the waits unchanged in exact arithmetic but move their last bits,
    # so the edge queues on the send times.
    per_site = partial(simulate_fcfs_queue, servers=servers_per_site)
    edge = LatencyBreakdown.concat([
        _through_network(a, s, 0.0, region.edge_rtt, per_site)
        for a, s, region in zip(arrivals, services, regions, strict=True)
    ])
    edge.site[:] = all_region

    # Cloud: merged stream through one pooled queue; RTT depends on the
    # request's origin region (shifts queue-arrival order accordingly).
    oneway = np.array([r.cloud_rtt for r in regions])[all_region] / 2.0
    cloud = _through_network(
        np.concatenate(arrivals),
        np.concatenate(services),
        oneway,
        oneway,
        partial(simulate_fcfs_queue, servers=k * servers_per_site),
    )
    cloud.site[:] = all_region

    horizon = min(float(a[-1]) for a in arrivals)
    cut = warmup_fraction * horizon
    return GeoComparison(
        regions=regions, edge=edge.after(cut), cloud=cloud.after(cut)
    )
