"""Overload-control experiments (E11): server-side defense of latency.

E10 showed what happens when only the *client* defends itself: retries
amplify load and tip the small edge queues into a metastable storm.
These experiments add the server half — queue disciplines, adaptive
admission, priority shedding, brownout serving — and measure what each
buys on the calibrated DNN-inference workload (saturation 13 req/s per
8-core site, DESIGN.md §6).  Five sections:

* :func:`discipline_sweep` — one site at 1.23× saturation under FIFO,
  drop-tail FIFO, adaptive LIFO and CoDel.  Unbounded FIFO serves every
  request late (p95 grows with the backlog); the overload-aware
  disciplines keep the *served* p95 bounded by shedding stale work.
* :func:`admission_pulse` — a 2× overload pulse against no admission, a
  static concurrency limit, and the AIMD and gradient adaptive limits.
  The adaptive limits collapse during the pulse and reopen after it, so
  goodput recovers as soon as the pulse ends instead of after a long
  backlog drain.
* :func:`priority_shedding` — three request classes at 1.5× saturation;
  per-class admission shares preserve the high-priority class while the
  sheddable classes absorb the refusals.
* :func:`brownout_tradeoff` — equal offered load served by drop-tail
  versus a brownout dimmer that degrades service (a smaller model)
  under pressure: more goodput, fewer refusals, price reported as the
  degraded fraction.
* :func:`storm_defense` — the E10 metastable cell (retrying client that
  cannot cancel) replayed against protected stations (CoDel + AIMD
  admission): the server keeps sojourns below the client timeout, the
  retry feedback loop never closes, and the storm does not ignite.

All experiments are deterministic given the config seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.config import ExperimentConfig
from repro.parallel.seeding import derive_seed
from repro.mitigation.admission import (
    AdaptiveAdmission,
    AIMDConcurrencyLimit,
    GradientConcurrencyLimit,
    StaticConcurrencyLimit,
)
from repro.queueing.distributions import Exponential
from repro.sim.client import OpenLoopSource
from repro.sim.engine import Simulation
from repro.sim.network import ConstantLatency
from repro.sim.overload import AdaptiveLIFODiscipline, BrownoutController, CoDelDiscipline
from repro.sim.resilience import ResilientClient, RetryPolicy
from repro.sim.topology import EdgeDeployment, EdgeSite
from repro.stats.overload import OverloadSummary, summarize_overload
from repro.workload.service import DNNInferenceModel

__all__ = [
    "DisciplineRow",
    "DisciplineResult",
    "PulseRow",
    "PulseResult",
    "PriorityClassRow",
    "PriorityResult",
    "BrownoutRow",
    "BrownoutResult",
    "DefenseRow",
    "DefenseResult",
    "discipline_sweep",
    "admission_pulse",
    "priority_shedding",
    "brownout_tradeoff",
    "storm_defense",
]

EDGE_RTT_MS = 1.0
STORM_SITES = 5


def _model():
    return DNNInferenceModel()


def _one_site(
    sim: Simulation,
    queue_capacity: int | None = None,
    discipline=None,
    admission=None,
    brownout=None,
):
    """A single saturable edge site on the calibrated DNN workload."""
    model = _model()
    site = EdgeSite(
        sim,
        "s0",
        model.cores,
        ConstantLatency.from_ms(EDGE_RTT_MS),
        model.service_dist(),
        queue_capacity=queue_capacity,
        discipline=discipline,
        admission=admission,
        brownout=brownout,
    )
    return site, EdgeDeployment(sim, [site])


def _slo_goodput(log, start: float, end: float, slo: float) -> float:
    """Served-within-SLO requests per second, among those created in
    [start, end)."""
    b = log.breakdown()
    mask = (b.created >= start) & (b.created < end)
    hits = int((b.end_to_end[mask] <= slo).sum())
    return hits / (end - start)


# -- discipline sweep -----------------------------------------------------


@dataclass(frozen=True)
class DisciplineRow:
    """One queue discipline under sustained overload."""

    label: str
    summary: OverloadSummary
    slo_goodput: float

    @property
    def p95(self) -> float:
        return self.summary.latency.p95 if self.summary.latency is not None else np.nan


@dataclass(frozen=True)
class DisciplineResult:
    """Discipline comparison at one overloaded arrival rate."""

    rate: float
    slo: float
    rows: list[DisciplineRow]

    def row(self, label: str) -> DisciplineRow:
        return next(r for r in self.rows if r.label == label)


def discipline_sweep(
    cfg: ExperimentConfig,
    rate: float = 16.0,
    duration: float = 400.0,
    slo: float = 2.0,
) -> DisciplineResult:
    """Compare waiting-line disciplines on one site at 1.23× saturation.

    The offered 16 req/s exceeds the site's 13 req/s capacity, so some
    work *must* be refused; the question is what latency the admitted
    work sees.  Unbounded FIFO refuses nothing and serves everything
    stale; drop-tail bounds the queue but still serves in arrival
    order; adaptive LIFO and CoDel keep the served p95 near the
    no-queue baseline.
    """
    plans = [
        ("fifo", {}),
        ("fifo-cap", {"queue_capacity": 64}),
        ("adaptive-lifo", {"discipline": AdaptiveLIFODiscipline(pressure_threshold=8)}),
        ("codel", {"discipline": CoDelDiscipline(target=0.3)}),
    ]
    cutoff = duration * 0.25
    rows = []
    for i, (label, kw) in enumerate(plans):
        sim = Simulation(derive_seed(cfg.seed, i))
        site, edge = _one_site(sim, **kw)
        OpenLoopSource(sim, edge, Exponential(1.0 / rate), site="s0", stop_time=duration)
        sim.run(until=duration)
        lat = edge.log.breakdown().after(cutoff).end_to_end
        summary = summarize_overload(
            duration=duration, stations=[site.station], latencies=lat
        )
        rows.append(
            DisciplineRow(label, summary, _slo_goodput(edge.log, cutoff, duration, slo))
        )
    return DisciplineResult(rate=rate, slo=slo, rows=rows)


# -- adaptive admission under a pulse -------------------------------------


@dataclass(frozen=True)
class PulseRow:
    """One admission policy through an overload pulse."""

    label: str
    summary: OverloadSummary
    post_slo_goodput: float  # served-within-SLO rate in the recovery window
    post_p95: float  # p95 of requests created in the recovery window
    final_limit: float | None  # adaptive limit at end of run (None = n/a)


@dataclass(frozen=True)
class PulseResult:
    """Admission comparison across an overload pulse.

    ``recovered(label)`` is post-pulse SLO goodput over the offered base
    rate — 1.0 means the policy serves the full base load within SLO as
    soon as the pulse ends.
    """

    base_rate: float
    pulse_rate: float
    pulse_window: tuple[float, float]
    recovery_window: tuple[float, float]
    slo: float
    rows: list[PulseRow]

    def row(self, label: str) -> PulseRow:
        return next(r for r in self.rows if r.label == label)

    def recovered(self, label: str) -> float:
        return self.row(label).post_slo_goodput / self.base_rate


def admission_pulse(
    cfg: ExperimentConfig,
    base_rate: float = 8.0,
    pulse_rate: float = 18.0,
    duration: float = 720.0,
    pulse_start: float = 240.0,
    pulse_len: float = 60.0,
    recovery_len: float = 120.0,
    slo: float = 3.0,
) -> PulseResult:
    """Overload pulse vs admission policies: who recovers goodput fastest.

    Base load is edge-friendly (8 of 13 req/s); the pulse adds 18 req/s
    for a minute (2× saturation total).  Without admission the backlog
    built during the pulse takes minutes to drain, so requests arriving
    *after* the pulse still miss the SLO.  The adaptive limits shed the
    pulse at the door, keep the queue short, and serve the post-pulse
    base load within SLO immediately.  The static limit shows why
    hand-tuning is fragile: sized for headroom, it admits far too much
    backlog during the pulse.
    """
    pulse_end = pulse_start + pulse_len
    recovery = (pulse_end, pulse_end + recovery_len)

    def make_plans():
        return [
            ("none", None),
            ("static-64", AdaptiveAdmission(StaticConcurrencyLimit(64.0))),
            (
                "aimd",
                AdaptiveAdmission(
                    AIMDConcurrencyLimit(latency_target=1.0, max_limit=64.0)
                ),
            ),
            (
                "gradient",
                AdaptiveAdmission(GradientConcurrencyLimit(initial=16.0, max_limit=64.0)),
            ),
        ]

    rows = []
    for i, (label, admission) in enumerate(make_plans()):
        sim = Simulation(derive_seed(cfg.seed, i))
        site, edge = _one_site(sim, admission=admission)
        OpenLoopSource(
            sim, edge, Exponential(1.0 / base_rate), site="s0", stop_time=duration
        )
        sim.schedule(
            pulse_start,
            lambda: OpenLoopSource(
                sim, edge, Exponential(1.0 / pulse_rate), site="s0", stop_time=pulse_end
            ),
        )
        sim.run(until=duration)
        b = edge.log.breakdown()
        mask = (b.created >= recovery[0]) & (b.created < recovery[1])
        post = b.end_to_end[mask]
        summary = summarize_overload(
            duration=duration, stations=[site.station], latencies=b.end_to_end
        )
        limit = None
        if admission is not None and hasattr(admission.limit, "limit"):
            limit = float(admission.limit.limit)
        rows.append(
            PulseRow(
                label,
                summary,
                _slo_goodput(edge.log, recovery[0], recovery[1], slo),
                float(np.quantile(post, 0.95)) if post.size else np.nan,
                limit,
            )
        )
    return PulseResult(
        base_rate=base_rate,
        pulse_rate=pulse_rate,
        pulse_window=(pulse_start, pulse_end),
        recovery_window=recovery,
        slo=slo,
        rows=rows,
    )


# -- priority-aware shedding ----------------------------------------------


@dataclass(frozen=True)
class PriorityClassRow:
    """Per-class outcome under overload (one admission policy)."""

    priority: int
    offered: int
    served: int
    refused: int

    @property
    def served_fraction(self) -> float:
        return self.served / self.offered if self.offered else 0.0


@dataclass(frozen=True)
class PriorityResult:
    """Uniform vs priority-aware shedding at 1.5× saturation."""

    rate: float
    shares: dict[int, float]
    uniform: list[PriorityClassRow]
    priority: list[PriorityClassRow]

    def served_fraction(self, policy: str, priority: int) -> float:
        rows = self.uniform if policy == "uniform" else self.priority
        return next(r for r in rows if r.priority == priority).served_fraction


def _class_rows(log, admission: AdaptiveAdmission, n_classes: int) -> list[PriorityClassRow]:
    served = {c: 0 for c in range(n_classes)}
    for r in log.requests:
        served[r.priority] += 1
    rows = []
    for c in range(n_classes):
        refused = admission.rejected_by_class.get(c, 0)
        rows.append(PriorityClassRow(c, served[c] + refused, served[c], refused))
    return rows


def priority_shedding(
    cfg: ExperimentConfig,
    rate: float = 20.0,
    duration: float = 400.0,
    mix: tuple[float, ...] = (0.2, 0.3, 0.5),
    shares: dict[int, float] | None = None,
) -> PriorityResult:
    """Three request classes at 1.5× saturation, with and without shares.

    Class 0 (most important) is 20% of traffic — 4 req/s, well under the
    13 req/s capacity — so a priority-aware door *can* serve essentially
    all of it.  Uniform admission instead spreads the refusals evenly
    and loses a third of the important class.  The AIMD limit is floored
    at one slot per server: the door may shed the queue, but it never
    clamps below the station's parallelism, which is what would starve
    the protected class during deep collapses.
    """
    if shares is None:
        shares = {0: 1.0, 1: 0.5, 2: 0.25}
    p = np.asarray(mix, dtype=float)
    p = p / p.sum()
    n_classes = len(mix)

    def draw(rng) -> int:
        return int(rng.choice(n_classes, p=p))

    results = {}
    for i, (label, share_map) in enumerate([("uniform", None), ("priority", shares)]):
        sim = Simulation(derive_seed(cfg.seed, i))
        admission = AdaptiveAdmission(
            AIMDConcurrencyLimit(latency_target=1.0, min_limit=8.0, max_limit=64.0),
            priority_shares=share_map,
        )
        _site, edge = _one_site(sim, admission=admission)
        OpenLoopSource(
            sim, edge, Exponential(1.0 / rate), site="s0", stop_time=duration,
            priority=draw,
        )
        sim.run(until=duration)
        results[label] = _class_rows(edge.log, admission, n_classes)
    return PriorityResult(
        rate=rate, shares=dict(shares),
        uniform=results["uniform"], priority=results["priority"],
    )


# -- brownout vs pure dropping --------------------------------------------


@dataclass(frozen=True)
class BrownoutRow:
    """One serving strategy at the shared offered load."""

    label: str
    summary: OverloadSummary

    @property
    def p95(self) -> float:
        return self.summary.latency.p95 if self.summary.latency is not None else np.nan


@dataclass(frozen=True)
class BrownoutResult:
    """Drop-tail vs brownout at equal offered load."""

    rate: float
    rows: list[BrownoutRow]

    def row(self, label: str) -> BrownoutRow:
        return next(r for r in self.rows if r.label == label)

    @property
    def goodput_gain(self) -> float:
        """Brownout goodput over drop-tail goodput (> 1 = brownout wins)."""
        drop = self.row("drop-tail").summary.goodput
        return self.row("brownout").summary.goodput / drop if drop else np.inf


def brownout_tradeoff(
    cfg: ExperimentConfig,
    rate: float = 16.0,
    duration: float = 400.0,
    queue_capacity: int = 16,
    degraded_scale: float = 0.4,
) -> BrownoutResult:
    """Degrade-don't-drop: brownout against drop-tail at 1.23× saturation.

    Both stations bound their queue at 16 waiting requests.  Drop-tail
    refuses the excess (~19% of arrivals).  The brownout dimmer instead
    serves requests with a model whose forward pass costs 0.4× when the
    estimated wait climbs, raising effective capacity past the offered
    load — nearly everyone is served, a reported fraction of them
    degraded.
    """
    plans = [
        ("drop-tail", None),
        (
            "brownout",
            BrownoutController(
                degraded_scale=degraded_scale, target_wait=0.25, full_wait=1.0
            ),
        ),
    ]
    cutoff = duration * 0.25
    rows = []
    for i, (label, brownout) in enumerate(plans):
        sim = Simulation(derive_seed(cfg.seed, i))
        site, edge = _one_site(sim, queue_capacity=queue_capacity, brownout=brownout)
        OpenLoopSource(sim, edge, Exponential(1.0 / rate), site="s0", stop_time=duration)
        sim.run(until=duration)
        lat = edge.log.breakdown().after(cutoff).end_to_end
        rows.append(
            BrownoutRow(
                label,
                summarize_overload(
                    duration=duration, stations=[site.station], latencies=lat
                ),
            )
        )
    return BrownoutResult(rate=rate, rows=rows)


# -- storm defense ---------------------------------------------------------


@dataclass(frozen=True)
class DefenseRow:
    """One (rate, protection) cell of the storm-defense replay.

    ``effective_latency`` censors failed operations at the SLO deadline,
    matching E10's reporting.
    """

    rate: float
    protected: bool
    effective_latency: float
    amplification: float
    failure_rate: float
    sheds: int
    rejects: int


@dataclass(frozen=True)
class DefenseResult:
    """E10's metastable retry storm, with and without server-side control."""

    slo_deadline: float
    rows: list[DefenseRow]

    def row(self, rate: float, protected: bool) -> DefenseRow:
        return next(
            r for r in self.rows if r.rate == rate and r.protected is protected
        )


def _defended_edge(sim: Simulation, protected: bool):
    """The E10 five-site edge, optionally with per-station defenses."""
    model = _model()
    service = model.service_dist()
    sites = []
    for i in range(STORM_SITES):
        kw = {}
        if protected:
            kw = {
                "discipline": CoDelDiscipline(target=0.5),
                "admission": AdaptiveAdmission(
                    AIMDConcurrencyLimit(latency_target=1.0, max_limit=64.0)
                ),
            }
        sites.append(
            EdgeSite(
                sim, f"s{i}", model.cores,
                ConstantLatency.from_ms(EDGE_RTT_MS), service, **kw,
            )
        )
    return sites, EdgeDeployment(sim, sites)


def storm_defense(
    cfg: ExperimentConfig,
    rates: tuple[float, ...] = (8.0, 10.0),
    duration: float = 600.0,
    slo_deadline: float = 6.0,
    timeout: float = 1.5,
) -> DefenseResult:
    """Replay the E10 storm client against protected stations.

    The client is E10's worst case: timeouts without cancellation, three
    attempts, so expired work still burns servers while retries pile on.
    Unprotected at 10 req/s/site this is metastable (amplification near
    the retry cap, ~100% failures).  Protected stations keep sojourns
    under the client timeout — CoDel sheds stale waiters, AIMD admission
    caps the in-system count — so attempts either fail fast (and retry
    against a short queue) or succeed before the timer fires; the
    feedback loop that sustains the storm never closes.
    """
    rows = []
    cutoff = duration * 0.2
    for i, rate in enumerate(rates):
        for protected in (False, True):
            sim = Simulation(derive_seed(cfg.seed, i, int(protected)))
            sites, edge = _defended_edge(sim, protected)
            client = ResilientClient(
                sim,
                edge,
                timeout=timeout,
                slo_deadline=slo_deadline,
                retry=RetryPolicy(max_attempts=3, backoff_base=0.1, backoff_cap=1.0),
                cancel_on_timeout=False,
            )
            for s in range(STORM_SITES):
                OpenLoopSource(
                    sim, client, Exponential(1.0 / rate), site=f"s{s}",
                    stop_time=duration,
                )
            sim.run()
            ok = client.log.breakdown().after(cutoff).end_to_end
            n_failed = sum(1 for r in client.failed if r.created >= cutoff)
            effective = np.concatenate([ok, np.full(n_failed, slo_deadline)])
            amp = client.attempts / client.operations if client.operations else 1.0
            total = len(ok) + n_failed
            rows.append(
                DefenseRow(
                    rate=rate,
                    protected=protected,
                    effective_latency=float(effective.mean()) if total else np.nan,
                    amplification=float(amp),
                    failure_rate=(n_failed / total) if total else 0.0,
                    sheds=sum(s.station.shed for s in sites),
                    rejects=sum(s.station.rejected for s in sites),
                )
            )
    return DefenseResult(slo_deadline=slo_deadline, rows=rows)
