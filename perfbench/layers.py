"""Per-layer metrics of a traced run, computed from its spans.

Layers a workload does not reach read 0 (for example ``fastsim.*`` on
``fig7-des`` and ``campaign.*`` on ``fig7``).  Service metrics are per
job.
"""

from __future__ import annotations

import statistics
from time import perf_counter

from spans import Span, covered_time, durations, median_or_zero, outer_spans, self_times

__all__ = ["EXACT_COUNTS", "dispatch_ns_per_event", "layer_metrics"]

#: Counts a traced run must reproduce exactly when it repeats its work.
EXACT_COUNTS = (
    "engine.events",
    "engine.events_per_req",
    "distributions.samples",
    "obs.sse_events",
    "store.puts",
)


def dispatch_ns_per_event(events: int = 200_000, repeats: int = 3) -> float:
    """Median ns per no-op event through ``schedule_batch`` + ``run``."""
    import numpy as np

    from repro.sim.engine import Simulation

    delays = np.random.default_rng(20210).uniform(0.0, 1000.0, events).tolist()
    samples = []
    for _ in range(repeats):
        sim = Simulation(0)
        sim.schedule_batch(delays, _noop)
        t0 = perf_counter()
        sim.run()
        samples.append((perf_counter() - t0) / events * 1e9)
    return statistics.median(samples)


def _noop() -> None:
    pass


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def layer_metrics(
    spans: list[Span],
    *,
    start: float,
    end: float,
    dispatch_ns: float,
    jobs: list | None = None,
    direct_spans: list[Span] = (),
) -> dict[str, float]:
    """Every per-layer metric of one traced pass over ``[start, end]``.

    ``jobs`` are the pass's service iterations (``None`` for the figure
    workloads); ``direct_spans`` come from ``run_campaign`` on the same
    documents in-process, with no telemetry and no journal.
    """
    selfs = self_times(spans)

    def total(name: str) -> float:
        return sum((s.duration for s in outer_spans(spans, name)), 0.0)

    def work(name: str) -> int:
        return sum(s.n for s in outer_spans(spans, name))

    fast = [s for s in spans if s.name == "fastsim"]
    fast_n = sum(s.n for s in fast)
    events, requests = work("engine"), work("tracing")
    run_s = selfs.get("engine", 0.0)
    events_per_req = events / requests if requests else 0.0
    us_per_req = run_s / requests * 1e6 if requests else 0.0
    out = {
        "fastsim.self_s": selfs.get("fastsim", 0.0),
        "fastsim.ns_per_req": sum(s.duration for s in fast) / fast_n * 1e9 if fast_n else 0.0,
        "fastsim.calls": len(fast),
        "comparator.point_p50_ms": median_or_zero(durations(spans, "comparator")) * 1e3,
        "comparator.self_s": selfs.get("comparator", 0.0),
        "distributions.sample_s": total("distributions"),
        "distributions.samples": work("distributions"),
        "trace.merge_s": total("trace"),
        "summary.summarize_s": total("summary"),
        "runner.build_s": selfs.get("runner", 0.0),
        "engine.run_s": run_s,
        "engine.events": events,
        "engine.events_per_req": events_per_req,
        "engine.us_per_req": us_per_req,
        "engine.dispatch_ns_per_event": dispatch_ns,
        "handlers.us_per_req": (
            us_per_req - events_per_req * dispatch_ns / 1e3 if requests else 0.0
        ),
        "tracing.breakdown_s": total("tracing"),
    }

    n_jobs = len(jobs) if jobs else 0
    scenarios = durations(spans, "campaign.scenario")
    in_service = durations(spans, "parallel")
    puts = durations(spans, "store")
    direct_s = median_or_zero(durations(direct_spans, "parallel"))
    per_job = (lambda x: x / n_jobs) if n_jobs else (lambda x: 0.0)
    run_campaign_s = _mean(in_service)
    out.update({
        "campaign.compile_ms": median_or_zero(durations(spans, "campaign.compile")) * 1e3,
        "campaign.scenario_p50_ms": _quantile(scenarios, 0.5) * 1e3,
        "campaign.scenario_p90_ms": _quantile(scenarios, 0.9) * 1e3,
        "campaign.direct_s": direct_s,
        "parallel.overhead_s": per_job(selfs.get("parallel", 0.0)),
        "store.put_p50_ms": median_or_zero(puts) * 1e3,
        "store.puts": len(puts),
        "schema.dump_ms": per_job(total("schema")) * 1e3,
        "obs.sse_events": _mean(j.extra["sse_events"] for j in jobs or ()),
        "obs.telemetry_s": (
            run_campaign_s - direct_s - per_job(sum(puts)) if n_jobs else 0.0
        ),
        "service.overhead_s": (
            _mean(j.wall_s for j in jobs) - run_campaign_s if n_jobs else 0.0
        ),
        "service.sse_bytes": _mean(j.extra["sse_bytes"] for j in jobs or ()),
        "bench.uncovered_frac": 1.0 - covered_time(spans, start, end) / (end - start),
    })
    return out
