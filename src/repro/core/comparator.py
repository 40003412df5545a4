"""High-level edge-vs-cloud comparison API.

:class:`EdgeCloudComparator` is the one-stop interface the paper's
research questions map onto: given a :class:`~repro.core.scenarios.Scenario`
it *predicts* the inversion cutoff analytically (Section 3) and
*measures* it by simulation (Section 4), for both mean and tail (p95)
latency.

Each sweep point samples every site's arrivals and service times once
and feeds the same arrays to the edge sites and, merged, to the cloud
(the paper's "cumulative request trace").  The measurement runs on the
vectorized :mod:`repro.sim.fastsim` recursion, so a full Figure 7-style
sweep takes seconds; ``engine="des"`` replays the same arrays through
the event engine instead and reproduces fastsim's numbers to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.inversion import cutoff_utilization_exact
from repro.core.scenarios import Scenario
from repro.parallel import derive_rng, run_tasks
from repro.parallel.seeding import derive_seed
from repro.queueing.distributions import fit_two_moments
from repro.sim.fastsim import (
    simulate_edge_system,
    simulate_lb_system,
    simulate_single_queue_system,
)
from repro.sim.loadbalancer import JoinShortestQueue, RoundRobin
from repro.stats.summary import LatencySummary, summarize
from repro.workload.trace import RequestTrace

#: Cloud dispatch models: the paper's central queue or an HAProxy-style
#: balancer in front of one backend per cloud machine.
_CLOUD_POLICIES = (None, "central", "round-robin", "jsq")

__all__ = ["SweepPoint", "ComparisonResult", "EdgeCloudComparator"]


@dataclass(frozen=True)
class SweepPoint:
    """Edge and cloud latency summaries at one per-site request rate."""

    rate_per_site: float
    utilization: float
    edge: LatencySummary
    cloud: LatencySummary

    def gap(self, metric: str = "mean") -> float:
        """Edge minus cloud for ``metric`` (positive = edge is worse)."""
        return getattr(self.edge, metric) - getattr(self.cloud, metric)


@dataclass(frozen=True)
class ComparisonResult:
    """A rate sweep of one scenario (a Figure 3/4/5-style series)."""

    scenario: Scenario
    points: tuple[SweepPoint, ...]

    def series(self, metric: str = "mean"):
        """Return ``(rates, edge_values, cloud_values)`` arrays for plotting."""
        rates = np.array([p.rate_per_site for p in self.points])
        edge = np.array([getattr(p.edge, metric) for p in self.points])
        cloud = np.array([getattr(p.cloud, metric) for p in self.points])
        return rates, edge, cloud

    def crossover_rate(self, metric: str = "mean") -> float | None:
        """Per-site rate where the edge first becomes worse than the cloud.

        Linearly interpolates between the bracketing sweep points;
        ``None`` if no inversion occurs in the swept range.  A sweep that
        *starts* inverted returns its first rate.
        """
        gaps = [p.gap(metric) for p in self.points]
        if gaps[0] > 0:
            return self.points[0].rate_per_site
        for i in range(1, len(gaps)):
            if gaps[i] > 0:
                r0, r1 = self.points[i - 1].rate_per_site, self.points[i].rate_per_site
                g0, g1 = gaps[i - 1], gaps[i]
                return r0 + (r1 - r0) * (-g0) / (g1 - g0)
        return None

    def crossover_utilization(self, metric: str = "mean") -> float | None:
        """Utilization at the crossover rate (the paper's cutoff ρ)."""
        rate = self.crossover_rate(metric)
        if rate is None:
            return None
        return self.scenario.utilization(rate)


class EdgeCloudComparator:
    """Analytic + simulated comparison of one scenario.

    Parameters
    ----------
    scenario:
        The deployment pair to compare.
    requests_per_site:
        Simulated requests per edge site per sweep point (the cloud sees
        ``sites ×`` this).  10⁵ gives stable p95s.
    arrival_cv2:
        Squared CoV of inter-arrival gaps (1 = Poisson).
    seed:
        Base RNG seed; each sweep point derives independent streams.
    warmup_fraction:
        Leading fraction of the sampled horizon dropped before
        summarizing.
    cloud_policy:
        Cloud dispatch model: ``None``/``"central"`` (the paper's ideal
        central queue, the default), ``"round-robin"`` or ``"jsq"``
        (HAProxy-style load balancing over one backend per cloud
        machine).
    engine:
        ``"fastsim"`` (default) runs the vectorized recursion;
        ``"des"`` replays the same sampled workload through the event
        engine (:func:`repro.sim.runner.run_deployment`).  Both give the
        same numbers to rounding, except that JSQ breaks ties from a
        different random stream on each engine.
    """

    def __init__(
        self,
        scenario: Scenario,
        *,
        requests_per_site: int = 100_000,
        arrival_cv2: float = 1.0,
        seed: int = 0,
        warmup_fraction: float = 0.1,
        cloud_policy: str | None = None,
        engine: str = "fastsim",
    ):
        if requests_per_site < 100:
            raise ValueError(f"requests_per_site too small: {requests_per_site}")
        if arrival_cv2 < 0:
            raise ValueError(f"arrival_cv2 must be >= 0, got {arrival_cv2}")
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError(f"warmup_fraction must be in [0, 1), got {warmup_fraction}")
        if engine not in ("fastsim", "des"):
            raise ValueError(f"engine must be 'fastsim' or 'des', got {engine!r}")
        if cloud_policy not in _CLOUD_POLICIES:
            raise ValueError(
                f"cloud_policy must be one of {_CLOUD_POLICIES}, got {cloud_policy!r}"
            )
        self.scenario = scenario
        self.requests_per_site = int(requests_per_site)
        self.arrival_cv2 = float(arrival_cv2)
        self.seed = int(seed)
        self.warmup_fraction = float(warmup_fraction)
        self.cloud_policy = cloud_policy
        self.engine = engine

    # -- analytic side ---------------------------------------------------
    def predict_cutoff_utilization(self) -> float:
        """Cutoff utilization from the unit-consistent analytic model.

        Uses exact Erlang-C (or Allen–Cunneen for non-exponential
        components) mean waits per :func:`cutoff_utilization_exact`,
        with the scenario's per-core service rate and pool sizes.
        """
        s = self.scenario
        return cutoff_utilization_exact(
            s.delta_n,
            s.service.core_service_rate,
            s.edge_servers_per_site,
            s.cloud_servers,
            ca2=self.arrival_cv2,
            cs2=s.service.cv2,
        )

    # -- measurement side --------------------------------------------------
    def _site_workloads(self, rate: float, rng: np.random.Generator):
        """Per-site arrival/service arrays for one sweep point."""
        s = self.scenario
        gap = fit_two_moments(1.0 / rate, self.arrival_cv2)
        service = s.service_dist()
        n = self.requests_per_site
        arrivals, services = [], []
        for _ in range(s.sites):
            a = np.cumsum(np.asarray(gap.sample(rng, n), dtype=float))
            arrivals.append(a)
            services.append(np.asarray(service.sample(rng, n), dtype=float))
        return arrivals, services

    def measure_point(self, rate_per_site: float, seed_offset: int = 0) -> SweepPoint:
        """Simulate edge and cloud at one per-site rate.

        Samples every site's workload once and runs it on the configured
        ``engine`` (see the class docstring): the edge sites each serve
        their own arrays, the cloud serves all of them merged.
        """
        s = self.scenario
        if rate_per_site <= 0:
            raise ValueError(f"rate_per_site must be > 0, got {rate_per_site}")
        if s.utilization(rate_per_site) >= 1.0:
            raise ValueError(
                f"rate {rate_per_site} req/s saturates a site "
                f"(max {s.saturation_rate_per_site} req/s)"
            )
        # SeedSequence-derived child stream: collision-free across sweep
        # points *and* across comparators with nearby base seeds (the old
        # ``seed + 7919 * offset`` arithmetic could alias other
        # experiments' raw seeds).
        rng = derive_rng(self.seed, seed_offset)
        arrivals, services = self._site_workloads(rate_per_site, rng)
        traces = [RequestTrace(a, sv) for a, sv in zip(arrivals, services, strict=True)]
        if self.engine == "des":
            return self._measure_point_des(rate_per_site, seed_offset, traces)

        edge = simulate_edge_system(
            arrivals, services, s.edge_servers_per_site, s.edge_latency(), rng
        )
        merged = RequestTrace.merge(traces)
        if self.cloud_policy in (None, "central"):
            cloud = simulate_single_queue_system(
                merged.arrival_times, merged.service_times, s.cloud_servers,
                s.cloud_latency(), rng,
            )
        else:
            cloud = simulate_lb_system(
                merged.arrival_times, merged.service_times, s.cloud_servers,
                s.cloud_latency(), rng,
                policy=self.cloud_policy,
                backends=s.cloud_machines,
            )
        horizon = float(merged.arrival_times[-1])
        cut = self.warmup_fraction * horizon
        return SweepPoint(
            rate_per_site=float(rate_per_site),
            utilization=s.utilization(rate_per_site),
            edge=summarize(edge.end_to_end[edge.created >= cut]),
            cloud=summarize(cloud.end_to_end[cloud.created >= cut]),
        )

    def _measure_point_des(
        self, rate_per_site: float, seed_offset: int, traces: list[RequestTrace]
    ) -> SweepPoint:
        """One sweep point replaying the sampled ``traces`` on the event engine.

        Runs the same topology as the fastsim path — k edge sites, cloud
        pooling ``sites × edge_servers_per_site`` servers — with one
        trace source per site.  ``duration`` is the last sampled arrival,
        so the warm-up cut equals fastsim's bit for bit.  The simulation
        seed only drives JSQ tie-breaks: the scenarios' networks are
        constant-latency.
        """
        from repro.sim.runner import run_deployment

        s = self.scenario
        dispatch = {"round-robin": RoundRobin, "jsq": JoinShortestQueue}.get(self.cloud_policy)
        shared = dict(
            sites=s.sites,
            servers_per_site=s.edge_servers_per_site,
            rate_per_site=float(rate_per_site),
            service_dist=s.service_dist(),
            duration=max(float(t.arrival_times[-1]) for t in traces),
            seed=derive_seed(self.seed, seed_offset),
            warmup_fraction=self.warmup_fraction,
            traces=traces,
        )
        edge = run_deployment("edge", latency=s.edge_latency(), **shared)
        cloud = run_deployment(
            "cloud",
            latency=s.cloud_latency(),
            policy=dispatch() if dispatch else None,
            backends=s.cloud_machines,
            **shared,
        )
        return SweepPoint(
            rate_per_site=float(rate_per_site),
            utilization=s.utilization(rate_per_site),
            edge=summarize(edge.end_to_end),
            cloud=summarize(cloud.end_to_end),
        )

    def _journal_scope(self) -> str:
        """Identity string keying this comparator's journal entries.

        Everything that shapes a sweep point's value is included, so two
        differently-configured comparators can share one checkpoint file
        without ever replaying each other's results.  Non-default engine
        and policy knobs are appended conditionally, so checkpoints
        written by earlier versions of the default configuration replay
        unchanged.  ``des-replay`` marks DES points that replay the
        sampled workload; the older ``des`` tag (independent DES
        sampling) never matches.
        """
        scope = (
            f"sweep|{self.scenario!r}|seed={self.seed}"
            f"|rps={self.requests_per_site}|ca2={self.arrival_cv2}"
            f"|wf={self.warmup_fraction}"
        )
        if self.engine == "des":
            scope += "|engine=des-replay"
        if self.cloud_policy not in (None, "central"):
            scope += f"|policy={self.cloud_policy}|backends={self.scenario.cloud_machines}"
        return scope

    def sweep(
        self,
        rates,
        *,
        workers: int | None = None,
        checkpoint=None,
        resume: bool = False,
    ) -> ComparisonResult:
        """Measure a series of per-site rates (a full figure's series).

        Parameters
        ----------
        rates:
            Per-site request rates to measure, in order.
        workers:
            Process count for the fan-out (``None`` = ``$REPRO_WORKERS``
            or 1).  Each point's RNG stream is derived from its index, so
            the result is bit-identical for every worker count.
        checkpoint:
            Journal path (or an open
            :class:`~repro.experiments.store.RunJournal`): completed
            points replay from disk, fresh points are durably appended —
            a killed sweep resumes bit-identically.  ``None`` (default)
            adds zero overhead.
        resume:
            Require the checkpoint to already exist (fail fast on a
            mistyped path instead of silently recomputing everything);
            a ``ValueError`` without ``checkpoint``.
        """
        rates = list(rates)
        if not rates:
            raise ValueError("rates must be non-empty")
        from repro.experiments.store import open_journal

        journal, owned = open_journal(
            checkpoint, scope=self._journal_scope(), resume=resume
        )
        try:
            points = run_tasks(
                self.measure_point,
                [(float(r), i) for i, r in enumerate(rates)],
                workers=workers,
                label="sweep point",
                base_seed=self.seed,
                journal=journal,
            )
        finally:
            if owned:
                journal.close()
        return ComparisonResult(scenario=self.scenario, points=tuple(points))

    def find_crossover(
        self,
        metric: str = "mean",
        utilizations=None,
        *,
        workers: int | None = None,
        checkpoint=None,
        resume: bool = False,
    ) -> tuple[float | None, float | None]:
        """Locate the inversion point over a default utilization grid.

        Returns ``(rate, utilization)`` of the crossover, or
        ``(None, None)`` if the edge stays ahead below saturation.
        ``workers`` fans the underlying sweep across processes;
        ``checkpoint``/``resume`` journal it (see :meth:`sweep`).
        """
        if utilizations is None:
            utilizations = np.arange(0.1, 0.96, 0.05)
        rates = [self.scenario.rate_for_utilization(float(u)) for u in utilizations]
        result = self.sweep(
            rates, workers=workers, checkpoint=checkpoint, resume=resume
        )
        rate = result.crossover_rate(metric)
        if rate is None:
            return None, None
        return rate, self.scenario.utilization(rate)
