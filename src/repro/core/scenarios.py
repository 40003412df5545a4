"""The paper's experimental scenarios (Section 4.1).

Every experiment pairs a 1 ms edge with one of four cloud locations;
:class:`Scenario` bundles the RTTs, fleet shape (k sites ×
machines/site) and the application model, and knows how to build the
simulator inputs.  The four named scenario constants correspond to the
paper's deployments:

========================  ==========================  =========
constant                  paper placement             cloud RTT
========================  ==========================  =========
``NEARBY_CLOUD``          us-east-2 → us-east-1       15 ms
``TYPICAL_CLOUD``         Ireland → Frankfurt         24 ms
``DISTANT_CLOUD``         us-east-2 → us-west-1       54 ms
``TRANSCONTINENTAL_CLOUD``us-east-1 → Ireland         80 ms
========================  ==========================  =========
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.queueing.distributions import Distribution
from repro.sim.network import ConstantLatency, LatencyModel
from repro.workload.service import DNNInferenceModel

__all__ = [
    "Scenario",
    "NEARBY_CLOUD",
    "TYPICAL_CLOUD",
    "DISTANT_CLOUD",
    "TRANSCONTINENTAL_CLOUD",
    "PAPER_SCENARIOS",
]


@dataclass(frozen=True)
class Scenario:
    """One edge-vs-cloud comparison setup.

    Attributes
    ----------
    name:
        Human-readable label.
    edge_rtt_ms / cloud_rtt_ms:
        Mean round-trip times to the edge site and the cloud.
    sites:
        Number of edge sites k (the cloud pools ``sites ×
        machines_per_site`` machines).
    machines_per_site:
        Machines at each edge site (1 or 2 in the paper).
    service:
        The application model (saturation rate, cores, service CoV).
    """

    name: str
    cloud_rtt_ms: float
    edge_rtt_ms: float = 1.0
    sites: int = 5
    machines_per_site: int = 1
    service: DNNInferenceModel = field(default_factory=DNNInferenceModel)

    def __post_init__(self):
        if not (math.isfinite(self.cloud_rtt_ms) and math.isfinite(self.edge_rtt_ms)):
            raise ValueError(
                f"RTTs must be finite, got cloud_rtt_ms={self.cloud_rtt_ms} and "
                f"edge_rtt_ms={self.edge_rtt_ms}"
            )
        if self.cloud_rtt_ms <= self.edge_rtt_ms:
            raise ValueError(
                f"cloud RTT ({self.cloud_rtt_ms} ms) must exceed edge RTT "
                f"({self.edge_rtt_ms} ms)"
            )
        if self.edge_rtt_ms < 0:
            raise ValueError(f"edge_rtt_ms must be >= 0, got {self.edge_rtt_ms}")
        if self.sites < 1 or self.machines_per_site < 1:
            raise ValueError("sites and machines_per_site must be >= 1")

    # -- derived quantities ------------------------------------------------
    @property
    def delta_n(self) -> float:
        """RTT advantage of the edge, :math:`\\Delta n`, in seconds."""
        return (self.cloud_rtt_ms - self.edge_rtt_ms) * 1e-3

    @property
    def edge_servers_per_site(self) -> int:
        """Queueing servers per edge site (machines × cores)."""
        return self.service.servers_for_machines(self.machines_per_site)

    @property
    def cloud_servers(self) -> int:
        """Queueing servers pooled at the cloud."""
        return self.sites * self.edge_servers_per_site

    @property
    def cloud_machines(self) -> int:
        """Cloud machine count (the paper's k = 5 or 10)."""
        return self.sites * self.machines_per_site

    @property
    def saturation_rate_per_site(self) -> float:
        """Request rate at which one edge site saturates (req/s)."""
        return self.machines_per_site * self.service.saturation_rate

    def utilization(self, rate_per_site: float) -> float:
        """Utilization implied by a per-site request rate."""
        return self.service.utilization(rate_per_site, self.machines_per_site)

    def rate_for_utilization(self, rho: float) -> float:
        """Per-site request rate achieving utilization ``rho``."""
        if not 0.0 <= rho < 1.0:
            raise ValueError(f"rho must be in [0, 1), got {rho}")
        return rho * self.saturation_rate_per_site

    # -- simulator inputs ----------------------------------------------------
    def edge_latency(self) -> LatencyModel:
        """Client ↔ edge network model."""
        return ConstantLatency.from_ms(self.edge_rtt_ms)

    def cloud_latency(self) -> LatencyModel:
        """Client ↔ cloud network model."""
        return ConstantLatency.from_ms(self.cloud_rtt_ms)

    def service_dist(self) -> Distribution:
        """Per-request service-time distribution."""
        return self.service.service_dist()

    def with_machines(self, machines_per_site: int) -> "Scenario":
        """Variant with a different per-site machine count (k=10 runs)."""
        return replace(
            self,
            machines_per_site=machines_per_site,
            name=f"{self.name} ({machines_per_site} srv/site)",
        )

    def with_sites(self, sites: int) -> "Scenario":
        """Variant with a different site count."""
        return replace(self, sites=sites)


NEARBY_CLOUD = Scenario(name="nearby cloud (us-east-1, 15 ms)", cloud_rtt_ms=15.0)
TYPICAL_CLOUD = Scenario(name="typical cloud (Frankfurt, 24 ms)", cloud_rtt_ms=24.0)
DISTANT_CLOUD = Scenario(name="distant cloud (N. California, 54 ms)", cloud_rtt_ms=54.0)
TRANSCONTINENTAL_CLOUD = Scenario(
    name="transcontinental cloud (Ireland, 80 ms)", cloud_rtt_ms=80.0
)

#: The paper's four cloud placements, nearest first (Figure 7's x-axis).
PAPER_SCENARIOS = (
    NEARBY_CLOUD,
    TYPICAL_CLOUD,
    DISTANT_CLOUD,
    TRANSCONTINENTAL_CLOUD,
)
