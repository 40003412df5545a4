"""Discrete-event simulation substrate.

This subpackage replaces the paper's EC2 testbed (Section 4.1): edge
sites and the cloud data center become FCFS multi-server queue stations
connected to clients through network-latency models, driven by open-loop
workload sources — the same topology the paper measures, minus the WAN.

Two execution paths are provided:

* :mod:`repro.sim.engine` + friends — a full event-calendar simulator
  with per-request tracing, load-balancer policies, redirection hooks
  (for geographic load balancing) and dynamic capacity changes.
* :mod:`repro.sim.fastsim` — the Kiefer–Wolfowitz recursion for FCFS
  G/G/c queues, which skips the requests that find a free server in
  NumPy, about 27× faster per simulated request (perfbench
  ``sim_req_per_s``: ≈3.70M req/s on the ``fig7`` workload against
  ≈139k on ``fig7-des``, three points of one placement of that sweep
  through the event engine; medians of ten and three 20 s runs on a
  2-vCPU Xeon); the test suite cross-validates the two paths against
  each other and against exact M/M/k theory.
"""

from repro.sim.batching import BatchingStation, affine_batch_time
from repro.sim.client import ClosedLoopSource, OpenLoopSource, TraceSource
from repro.sim.engine import Simulation
from repro.sim.failures import FailureInjector
from repro.sim.fastsim import (
    simulate_edge_system,
    simulate_fcfs_queue,
    simulate_single_queue_system,
)
from repro.sim.geo import GeoComparison, Region, simulate_geo_comparison
from repro.sim.loadbalancer import (
    BackpressureDispatch,
    JoinShortestQueue,
    LeastWorkLeft,
    RandomDispatch,
    RoundRobin,
)
from repro.sim.overload import (
    AdaptiveLIFODiscipline,
    BrownoutController,
    CoDelDiscipline,
    FIFODiscipline,
    QueueDiscipline,
)
from repro.sim.network import (
    ConstantLatency,
    LatencyModel,
    LognormalLatency,
    LossyLatency,
    NormalJitterLatency,
)
from repro.sim.request import Request
from repro.sim.resilience import (
    BreakerConfig,
    CircuitBreaker,
    HedgePolicy,
    ResilientClient,
    RetryPolicy,
)
from repro.sim.runner import run_comparison, run_deployment
from repro.sim.station import Station
from repro.sim.topology import CloudDeployment, EdgeDeployment, EdgeSite
from repro.sim.tracing import LatencyBreakdown, RequestLog

__all__ = [
    "Simulation",
    "FailureInjector",
    "Request",
    "Station",
    "BatchingStation",
    "affine_batch_time",
    "LatencyModel",
    "ConstantLatency",
    "NormalJitterLatency",
    "LognormalLatency",
    "LossyLatency",
    "ResilientClient",
    "RetryPolicy",
    "HedgePolicy",
    "BreakerConfig",
    "CircuitBreaker",
    "RoundRobin",
    "RandomDispatch",
    "JoinShortestQueue",
    "LeastWorkLeft",
    "BackpressureDispatch",
    "QueueDiscipline",
    "FIFODiscipline",
    "AdaptiveLIFODiscipline",
    "CoDelDiscipline",
    "BrownoutController",
    "EdgeSite",
    "EdgeDeployment",
    "CloudDeployment",
    "OpenLoopSource",
    "ClosedLoopSource",
    "TraceSource",
    "RequestLog",
    "LatencyBreakdown",
    "run_deployment",
    "run_comparison",
    "simulate_fcfs_queue",
    "simulate_edge_system",
    "simulate_single_queue_system",
    "Region",
    "GeoComparison",
    "simulate_geo_comparison",
]
