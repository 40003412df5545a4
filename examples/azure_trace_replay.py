#!/usr/bin/env python3
"""Replay a serverless trace through edge and cloud deployments.

The paper's Section 4.5 experiment: construct per-site workloads by
grouping serverless functions into k mutually exclusive sets, replay
them against k edge sites, and replay the aggregate against one cloud —
then watch the skewed, bursty edge sites repeatedly invert while the
cloud's pooled queue rides out the fluctuations.

Run:  python examples/azure_trace_replay.py
"""

import numpy as np

from repro.core.scenarios import Scenario
from repro.sim.fastsim import simulate_edge_system, simulate_single_queue_system
from repro.stats.summary import summarize
from repro.stats.timeseries import windowed_mean
from repro.workload.azure import (
    AzureTraceConfig,
    generate_azure_workload,
    group_functions_into_sites,
)
from repro.workload.trace import RequestTrace

DURATION = 3600.0  # one hour of trace
SITES = 5


def main() -> None:
    scenario = Scenario(name="azure replay", cloud_rtt_ms=26.0, sites=SITES)
    rng = np.random.default_rng(7)

    # 1. Generate the synthetic Azure-like workload and group functions
    #    into one set per edge site (the paper's construction).
    functions = generate_azure_workload(
        AzureTraceConfig(n_functions=40, duration=DURATION, total_rate=40.0,
                         noise_cv2=0.3, spike_factor=3.0),
        rng,
    )
    sites = group_functions_into_sites(functions, SITES, rng)

    # 2. Rescale execution times so the hottest site averages 70%
    #    utilization (the paper's moderate operating regime).
    lanes = scenario.edge_servers_per_site
    hottest = max(t.mean_rate * t.service_times.mean() / lanes for t in sites)
    sites = [RequestTrace(t.arrival_times, t.service_times * 0.70 / hottest) for t in sites]

    print("Per-site workload (Figure 8's view):")
    for i, t in enumerate(sites):
        rho = t.mean_rate * t.service_times.mean() / lanes
        print(
            f"  site {i}: {len(t):6d} requests, {t.mean_rate:5.2f} req/s, "
            f"rho={rho:.2f}, interarrival CoV^2={t.interarrival_cv2():.1f}"
        )

    # 3. Replay: per-site queues at the edge, one pooled queue at the cloud.
    edge = simulate_edge_system(
        [t.arrival_times for t in sites],
        [t.service_times for t in sites],
        lanes,
        scenario.edge_latency(),
        rng,
    )
    merged = RequestTrace.merge(sites)
    cloud = simulate_single_queue_system(
        merged.arrival_times, merged.service_times,
        scenario.cloud_servers, scenario.cloud_latency(), rng,
    )

    print("\nEnd-to-end latency (Figure 10's view):")
    for i in range(SITES):
        print(f"  site {i}: {summarize(edge.for_site(i).end_to_end)}")
    print(f"  cloud : {summarize(cloud.end_to_end)}")

    # 4. Time series: how often does the edge invert? (Figure 9's view)
    _, edge_series = windowed_mean(edge.created, edge.end_to_end, 60.0, horizon=DURATION)
    _, cloud_series = windowed_mean(cloud.created, cloud.end_to_end, 60.0, horizon=DURATION)
    valid = ~(np.isnan(edge_series) | np.isnan(cloud_series))
    inverted = (edge_series[valid] > cloud_series[valid]).mean()
    print(
        f"\nPer-minute comparison: edge worse than cloud in {inverted:.0%} of "
        f"windows; edge series {np.nanstd(edge_series) / np.nanstd(cloud_series):.1f}x "
        "more variable than the cloud's (aggregate smoothing)."
    )


if __name__ == "__main__":
    main()
