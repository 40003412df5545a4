#!/usr/bin/env python3
"""Serve through edge outages: naive client vs the resilience stack.

The paper's comparison assumes every request is delivered exactly once
to a healthy site.  This example injects edge-site outages (stochastic
failures plus a link black-hole where the site *looks* healthy) and
compares three clients at an edge-friendly utilization:

* naive       — requests strand in dead sites' queues;
* retries     — deadlines bound the damage but goodput is lost;
* full stack  — retries + per-site circuit breakers + edge->cloud
                failover restore the no-failure tail.

A second section shows hedging: on a lossy network, a speculative
duplicate fired at the p95 latency mark rescues lost requests without
waiting out the full timeout.

Run:  python examples/resilient_serving.py
"""

from repro.queueing.distributions import Exponential
from repro.sim.client import OpenLoopSource
from repro.sim.engine import Simulation
from repro.sim.failures import FailureInjector
from repro.sim.network import ConstantLatency, LossyLatency
from repro.sim.resilience import BreakerConfig, HedgePolicy, ResilientClient, RetryPolicy
from repro.sim.topology import CloudDeployment, EdgeDeployment, EdgeSite
from repro.workload.service import DNNInferenceModel

SITES = 5
RATE = 6.0  # rho = 0.46 per site: comfortably edge-friendly
DURATION = 1200.0
SLO = 3.0  # seconds

MODEL = DNNInferenceModel()
SERVICE = MODEL.service_dist()


def build(sim, loss_prob=0.0, link_outage=None):
    sites = []
    for i in range(SITES):
        latency = ConstantLatency.from_ms(1.0)
        if loss_prob or (link_outage and i == 2):
            latency = LossyLatency(
                latency, loss_prob=loss_prob,
                outages=[link_outage] if link_outage else None,
            )
        sites.append(EdgeSite(sim, f"s{i}", MODEL.cores, latency, SERVICE))
    edge = EdgeDeployment(sim, sites)
    cloud = CloudDeployment(
        sim, servers=SITES * MODEL.cores,
        latency=ConstantLatency.from_ms(24.0), service_dist=SERVICE,
    )
    return sites, edge, cloud


def outage_run(client_kw, failover, seed):
    sim = Simulation(seed)
    sites, edge, cloud = build(sim, link_outage=(300.0, 360.0))
    if client_kw is None:
        target = client = ResilientClient(  # pass-through accounting only
            sim, edge, timeout=10 * SLO, slo_deadline=SLO,
            retry=RetryPolicy(max_attempts=1),
        )
    else:
        target = client = ResilientClient(
            sim, edge, cloud if failover else None,
            slo_deadline=SLO, **client_kw,
        )
    for i in range(SITES):
        OpenLoopSource(sim, target, Exponential(1.0 / RATE),
                       site=f"s{i}", stop_time=DURATION)
    injector = FailureInjector(sim, [s.station for s in sites], 400.0, 40.0, DURATION)
    injector.schedule_outage(600.0, 90.0, [sites[0].station, sites[1].station])
    sim.run()
    return client.summary(DURATION)


def main() -> None:
    print("Resilient serving under edge outages")
    print(f"({SITES} sites, {RATE:.0f} req/s/site, SLO {SLO:.0f}s, "
          "stochastic failures + correlated window + link black-hole)\n")

    retry_kw = dict(
        timeout=1.5,
        retry=RetryPolicy(max_attempts=3, backoff_base=0.05, backoff_cap=0.5),
    )
    full_kw = dict(
        retry_kw,
        breaker=BreakerConfig(window=20, failure_threshold=0.5,
                              min_calls=5, reset_timeout=10.0),
        saturation_threshold=4 * MODEL.cores,
    )
    runs = {
        "naive (no resilience)": outage_run(None, False, seed=21),
        "retries only": outage_run(retry_kw, False, seed=22),
        "breaker + failover": outage_run(full_kw, True, seed=23),
    }
    print(f"{'client':>22} {'p95(ms)':>9} {'SLO':>7} {'goodput':>8} "
          f"{'failover':>8} {'opens':>6}")
    for name, s in runs.items():
        p95 = s.latency.p95 * 1e3 if s.latency is not None else float("nan")
        print(f"{name:>22} {p95:>9.0f} {s.slo_attainment:>7.1%} "
              f"{s.goodput:>7.1f}/s {s.failovers:>8} {s.breaker_opens:>6}")
    full = runs["breaker + failover"]
    naive = runs["naive (no resilience)"]
    print(f"\n-> the full stack lifts SLO attainment from "
          f"{naive.slo_attainment:.1%} to {full.slo_attainment:.1%} "
          f"under the same outages.")

    # --- Hedging on a lossy network -----------------------------------
    print("\nHedged requests on a lossy edge network (1% packet loss)")
    rows = {}
    for label, hedge in (("no hedge", None),
                         ("hedge @ p95", HedgePolicy(quantile=0.95))):
        sim = Simulation(31)
        _, edge, cloud = build(sim, loss_prob=0.01)
        client = ResilientClient(
            sim, edge, cloud, timeout=2.0, slo_deadline=6.0,
            retry=RetryPolicy(max_attempts=3, backoff_base=0.05, backoff_cap=0.5),
            hedge=hedge,
        )
        for i in range(SITES):
            OpenLoopSource(sim, client, Exponential(1.0 / RATE),
                           site=f"s{i}", stop_time=DURATION)
        sim.run()
        rows[label] = client.summary(DURATION)
    print(f"{'client':>14} {'p99(ms)':>9} {'hedges':>7} {'amp':>6}")
    for label, s in rows.items():
        print(f"{label:>14} {s.latency.p99 * 1e3:>9.0f} {s.hedges:>7} "
              f"{s.retry_amplification:>6.2f}")
    gain = rows["no hedge"].latency.p99 / rows["hedge @ p95"].latency.p99
    print(f"\n-> hedging cuts p99 by {gain:.1f}x: a lost packet costs one "
          "hedge delay instead of a full timeout + retry.")


if __name__ == "__main__":
    main()
