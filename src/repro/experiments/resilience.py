"""Resilience experiments: retry storms and breaker-driven recovery.

The paper's inversion analysis (Figures 3-5) assumes every request is
delivered exactly once.  Real edge clients retry on timeout, hedge slow
requests, and fail over to the cloud — and each of those mechanisms
feeds back into the very queues whose utilization decides whether edge
beats cloud.  Two experiments quantify that feedback on the calibrated
DNN-inference workload (DESIGN.md §6):

* :func:`retry_storm` — sweep per-site arrival rate with a naive client
  and with a retrying client (timeouts but no cancellation, so expired
  attempts still occupy servers).  Retry amplification pushes the k
  per-site edge queues into a metastable regime the pooled cloud queue
  shrugs off, moving the edge/cloud inversion crossover to *lower*
  utilization — the paper's headline effect, made worse by the client's
  own defenses.
* :func:`outage_recovery` — hold utilization in the edge-friendly
  regime and inject site outages (stochastic failures plus one
  correlated two-site window).  Compare a naive client, a retry-only
  client, and the full resilience stack (retries + circuit breaker +
  edge->cloud failover); the stack restores the no-failure edge tail.

Both experiments are deterministic given the config seed and report
operation-level metrics (goodput, SLO attainment, amplification) via
:mod:`repro.stats.resilience`.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.experiments.config import ExperimentConfig
from repro.parallel import run_tasks
from repro.parallel.seeding import derive_seed
from repro.queueing.distributions import Exponential
from repro.sim.client import OpenLoopSource
from repro.sim.engine import Simulation
from repro.sim.failures import FailureInjector
from repro.sim.network import ConstantLatency, LossyLatency
from repro.sim.resilience import BreakerConfig, ResilientClient, RetryPolicy
from repro.sim.topology import CloudDeployment, EdgeDeployment, EdgeSite
from repro.stats.resilience import ResilienceSummary, summarize_resilience
from repro.workload.service import DNNInferenceModel

__all__ = [
    "StormPoint",
    "StormResult",
    "RecoveryRow",
    "RecoveryResult",
    "retry_storm",
    "outage_recovery",
]

SITES = 5
EDGE_RTT_MS = 1.0
CLOUD_RTT_MS = 24.0


def _model():
    return DNNInferenceModel()


@dataclass(frozen=True)
class StormPoint:
    """One arrival rate of the retry-storm sweep (latencies in seconds).

    ``naive_*`` are mean end-to-end latencies without any client-side
    resilience.  ``retry_*`` are mean *effective* latencies through the
    retrying client: successes at their observed latency, failed
    operations censored at the SLO deadline (a failure costs the caller
    at least the deadline).
    """

    rate: float
    naive_edge: float
    naive_cloud: float
    retry_edge: float
    retry_cloud: float
    edge_amplification: float
    cloud_amplification: float
    edge_failure_rate: float


@dataclass(frozen=True)
class StormResult:
    """Retry-storm sweep plus the two inversion crossovers.

    A crossover is the lowest swept rate at which the edge latency
    metric exceeds the cloud's (``None`` if the edge wins everywhere).
    """

    points: list[StormPoint]
    slo_deadline: float
    naive_crossover: float | None
    retry_crossover: float | None


def _first_crossing(
    points: Sequence[StormPoint], edge_key: str, cloud_key: str
) -> float | None:
    for p in points:
        if getattr(p, edge_key) > getattr(p, cloud_key):
            return p.rate
    return None


def _build_topology(
    sim: Simulation,
    queue_capacity: int | None = None,
    link_outage: tuple[float, float] | None = None,
):
    """Edge (k sites) + pooled cloud on the calibrated DNN workload.

    ``link_outage`` black-holes site s2's network for a (start, end)
    window: the station stays up (health checks pass) but every request
    on the wire is lost — the failure mode only timeouts can detect.
    """
    model = _model()
    service = model.service_dist()
    sites = []
    for i in range(SITES):
        latency = ConstantLatency.from_ms(EDGE_RTT_MS)
        if link_outage is not None and i == 2:
            latency = LossyLatency(latency, outages=[link_outage])
        sites.append(
            EdgeSite(
                sim,
                f"s{i}",
                model.cores,
                latency,
                service,
                queue_capacity=queue_capacity,
            )
        )
    edge = EdgeDeployment(sim, sites)
    cloud = CloudDeployment(
        sim,
        servers=SITES * model.cores,
        latency=ConstantLatency.from_ms(CLOUD_RTT_MS),
        service_dist=service,
    )
    return sites, edge, cloud


def _drive(sim, target, rate: float, duration: float) -> None:
    for i in range(SITES):
        OpenLoopSource(
            sim, target, Exponential(1.0 / rate), site=f"s{i}", stop_time=duration
        )


def _storm_cell(
    seed: int, rate: float, duration: float, deadline: float, retrying: bool, edge: bool
) -> tuple[float, float, float]:
    """Run one (deployment, client) cell; return (effective mean latency,
    amplification, operation failure rate) past a 20% warm-up."""
    sim = Simulation(seed)
    _sites, edge_dep, cloud_dep = _build_topology(sim)
    deployment = edge_dep if edge else cloud_dep
    cutoff = duration * 0.2
    if not retrying:
        _drive(sim, deployment, rate, duration)
        sim.run()
        lat = deployment.log.breakdown().after(cutoff).end_to_end
        return float(lat.mean()), 1.0, 0.0
    client = ResilientClient(
        sim,
        deployment,
        timeout=1.5,
        slo_deadline=deadline,
        retry=RetryPolicy(max_attempts=3, backoff_base=0.1, backoff_cap=1.0),
        # The storm ingredient: expired attempts are NOT cancelled, so
        # they keep occupying servers while their retries pile on.
        cancel_on_timeout=False,
    )
    _drive(sim, client, rate, duration)
    sim.run()
    ok = client.log.breakdown().after(cutoff).end_to_end
    n_failed = sum(1 for r in client.failed if r.created >= cutoff)
    effective = np.concatenate([ok, np.full(n_failed, deadline)])
    amp = client.attempts / client.operations if client.operations else 1.0
    fail_rate = n_failed / (len(ok) + n_failed) if (len(ok) + n_failed) else 0.0
    return float(effective.mean()), float(amp), float(fail_rate)


def retry_storm(
    cfg: ExperimentConfig,
    rates: Sequence[float] = (5.0, 6.0, 7.0, 8.0, 9.0, 10.0),
    duration: float = 1000.0,
    slo_deadline: float = 6.0,
) -> StormResult:
    """Sweep arrival rate; compare naive vs retrying clients on both tiers.

    Saturation is 13 req/s per site (DESIGN.md §6), so the swept rates
    cover per-site utilizations 0.38-0.77 — straddling the paper's
    inversion crossover.
    """
    # Every (rate, client, tier) cell is an independently seeded run, so
    # the whole grid fans across processes (cfg.workers) with results
    # bit-identical to the sequential loop.
    tasks = []
    for i, rate in enumerate(rates):
        tasks += [
            (derive_seed(cfg.seed, i, 1), rate, duration, slo_deadline, False, True),
            (derive_seed(cfg.seed, i, 2), rate, duration, slo_deadline, False, False),
            (derive_seed(cfg.seed, i, 3), rate, duration, slo_deadline, True, True),
            (derive_seed(cfg.seed, i, 4), rate, duration, slo_deadline, True, False),
        ]
    from repro.experiments.store import open_journal

    journal, owned = open_journal(
        cfg.checkpoint,
        scope=f"retry_storm|seed={cfg.seed}|duration={duration}|slo={slo_deadline}",
        resume=cfg.resume,
    )
    try:
        cells = run_tasks(
            _storm_cell,
            tasks,
            workers=cfg.workers,
            label="storm cell",
            base_seed=cfg.seed,
            journal=journal,
        )
    finally:
        if owned:
            journal.close()
    points = []
    for i, rate in enumerate(rates):
        (ne, _, _), (nc, _, _), (re_, ea, ef), (rc, ca, _) = cells[4 * i : 4 * i + 4]
        points.append(StormPoint(rate, ne, nc, re_, rc, ea, ca, ef))
    return StormResult(
        points=points,
        slo_deadline=slo_deadline,
        naive_crossover=_first_crossing(points, "naive_edge", "naive_cloud"),
        retry_crossover=_first_crossing(points, "retry_edge", "retry_cloud"),
    )


@dataclass(frozen=True)
class RecoveryRow:
    """One client/failure configuration of the outage-recovery comparison."""

    label: str
    summary: ResilienceSummary

    @property
    def p95(self) -> float:
        return self.summary.latency.p95 if self.summary.latency is not None else np.nan


@dataclass(frozen=True)
class RecoveryResult:
    """Outage-recovery comparison at one edge-friendly arrival rate.

    ``recovery_fraction`` is how much of the outage-induced p95 inflation
    the full stack claws back: 1.0 means the resilient p95 equals the
    no-failure baseline, 0.0 means it is as bad as the naive outage run.
    """

    rate: float
    slo_deadline: float
    rows: list[RecoveryRow]

    @property
    def recovery_fraction(self) -> float:
        by = {r.label: r.p95 for r in self.rows}
        healthy, broken = by["edge healthy, naive"], by["edge outages, naive"]
        resilient = by["edge outages, breaker+failover"]
        if broken <= healthy:
            return 1.0
        return float((broken - resilient) / (broken - healthy))


def _naive_summary(deployment, duration: float, deadline: float) -> ResilienceSummary:
    lat = deployment.log.breakdown().end_to_end
    slo_hits = int((lat <= deadline).sum())
    return summarize_resilience(
        duration=duration,
        successes=len(lat),
        failures=0,
        slo_hits=slo_hits,
        attempts=len(lat),
        latencies=lat,
    )


def outage_recovery(
    cfg: ExperimentConfig,
    rate: float = 6.0,
    duration: float = 2400.0,
    slo_deadline: float = 3.0,
    mtbf: float = 400.0,
    mttr: float = 40.0,
) -> RecoveryResult:
    """Compare failure-handling strategies under injected edge outages.

    Four runs at the same edge-friendly rate (utilization ~0.46):
    no-failure baseline, naive under outages (stranded queues), retries
    only (bounded latency, lost goodput), and the full stack (retries +
    per-site circuit breakers + edge->cloud failover), which restores
    the baseline tail.  Three failure modes are injected together:
    stochastic per-site station failures (detected by the health
    oracle), one correlated two-site window at mid-run, and one
    link-level black-hole window on site s2 where the station looks
    healthy and only timeouts — hence the circuit breaker — can detect
    the loss.
    """
    model = _model()
    retry_kw = {
        "timeout": 1.5,
        "slo_deadline": slo_deadline,
        "retry": RetryPolicy(max_attempts=3, backoff_base=0.05, backoff_cap=0.5),
        "cancel_on_timeout": True,
    }
    full_kw = dict(
        retry_kw,
        breaker=BreakerConfig(
            window=20, failure_threshold=0.5, min_calls=5, reset_timeout=10.0
        ),
        saturation_threshold=4 * model.cores,
    )
    plans = [
        ("edge healthy, naive", False, None, False),
        ("edge outages, naive", True, None, False),
        ("edge outages, retries", True, retry_kw, False),
        ("edge outages, breaker+failover", True, full_kw, True),
    ]
    rows = []
    for i, (label, inject, client_kw, failover) in enumerate(plans):
        sim = Simulation(derive_seed(cfg.seed, i))
        link_outage = (duration * 0.25, duration * 0.25 + 60.0) if inject else None
        sites, edge, cloud = _build_topology(sim, link_outage=link_outage)
        if client_kw is None:
            target, client = edge, None
        else:
            client = ResilientClient(
                sim, edge, cloud if failover else None, **client_kw
            )
            target = client
        _drive(sim, target, rate, duration)
        if inject:
            injector = FailureInjector(
                sim, [s.station for s in sites], mtbf, mttr, duration
            )
            injector.schedule_outage(
                duration * 0.5, 90.0, [sites[0].station, sites[1].station]
            )
        sim.run()
        summary = (
            _naive_summary(edge, duration, slo_deadline)
            if client is None
            else client.summary(duration)
        )
        rows.append(RecoveryRow(label, summary))
    return RecoveryResult(rate=rate, slo_deadline=slo_deadline, rows=rows)
