"""Scenario execution: one :class:`ScenarioSpec` → one :class:`ScenarioRun`.

The executor is the bridge from the declarative campaign format to the
simulator: it materializes the scenario's axes (arrival process,
service CoV, RTT placement, queue discipline, admission control,
resilience policy, outage schedule) into a paired edge/cloud run — the
paper's comparison — and reduces both runs to a flat ``{metric: float}``
mapping that the golden differ can compare value-by-value.

Everything here is deterministic per ``(spec, seed)``: the edge and
cloud simulations get independent derived seeds, and the optional
``max_events`` budget (``Simulation.run(max_events=)``) trips at a
seed-deterministic event count, so a budget-exceeding scenario fails
identically in sequential and parallel campaign runs.

:func:`scenario_task` is module-level and takes only picklable
arguments, so the campaign runner can hand it to
:func:`repro.parallel.run_tasks` and its worker processes (RPR005).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.campaign.spec import ScenarioSpec
from repro.mitigation.admission import (
    AdaptiveAdmission,
    AIMDConcurrencyLimit,
    OccupancyAdmission,
)
from repro.parallel.seeding import derive_seed
from repro.queueing.distributions import (
    Deterministic,
    Distribution,
    Exponential,
    HyperExponential,
    Uniform,
    fit_two_moments,
)
from repro.sim.client import OpenLoopSource
from repro.sim.engine import Simulation
from repro.sim.failures import FailureInjector
from repro.sim.network import ConstantLatency
from repro.sim.overload import AdaptiveLIFODiscipline, CoDelDiscipline
from repro.sim.resilience import BreakerConfig, ResilientClient, RetryPolicy
from repro.sim.topology import CloudDeployment, EdgeDeployment, EdgeSite
from repro.stats.summary import summarize
from repro.workload.service import DNNInferenceModel

__all__ = ["ScenarioRun", "run_scenario", "scenario_task"]

#: Deployment-kind seed streams: edge ``derive_seed(seed, 0)``, cloud
#: ``derive_seed(seed, 1)``.  The golden matrix pins this pairing.
_EDGE_STREAM = 0
_CLOUD_STREAM = 1


@dataclass(frozen=True)
class ScenarioRun:
    """Result of one executed scenario: identity + flat metrics.

    ``metrics`` maps metric names to floats (milliseconds for latency
    entries, raw counts otherwise) — a shape the golden differ can walk
    without knowing scenario internals.  Two runs of the same spec are
    bit-identical, so equality of the whole object is meaningful.
    """

    name: str
    seed: int
    metrics: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        # Frozen dataclass with a mutable mapping: normalize to plain
        # floats so equality/pickling round-trips are exact.
        object.__setattr__(
            self, "metrics", {k: float(v) for k, v in self.metrics.items()}
        )


def _interarrival(spec: ScenarioSpec, rate: float) -> Distribution:
    """Inter-arrival gap distribution of one site's source."""
    gap = 1.0 / rate
    if spec.arrival == "poisson":
        return Exponential(gap)
    if spec.arrival == "deterministic":
        return Deterministic(gap)
    if spec.arrival == "uniform":
        return Uniform(0.5 * gap, 1.5 * gap)
    if spec.arrival == "bursty":
        return HyperExponential.balanced(gap, spec.arrival_cv2)
    raise ValueError(f"unknown arrival process {spec.arrival!r}")  # pragma: no cover


def _discipline_factory(spec: ScenarioSpec):
    """Zero-arg factory for a fresh per-station discipline (or None)."""
    if spec.discipline == "fifo":
        return None  # station default
    if spec.discipline == "adaptive-lifo":
        return AdaptiveLIFODiscipline
    target = spec.codel_target
    return lambda: CoDelDiscipline(target)


def _admission_factory(spec: ScenarioSpec):
    """Zero-arg factory for a fresh per-station admission (or None)."""
    if spec.admission == "none":
        return None
    if spec.admission == "occupancy":
        limit = spec.admission_limit
        return lambda: OccupancyAdmission(limit)
    latency_target = spec.latency_target
    return lambda: AdaptiveAdmission(AIMDConcurrencyLimit(latency_target))


def _wrap_client(spec: ScenarioSpec, sim: Simulation, deployment):
    """Wrap a deployment in the scenario's resilience policy, if any."""
    if spec.resilience == "none":
        return deployment
    return ResilientClient(
        sim,
        deployment,
        timeout=spec.client_timeout,
        slo_deadline=spec.deadline,
        retry=RetryPolicy(max_attempts=spec.max_attempts),
        breaker=BreakerConfig() if spec.resilience == "retry+breaker" else None,
    )


def _run_one(spec: ScenarioSpec, kind: str, seed: int,
             max_events: int | None) -> dict[str, float]:
    """Run one deployment of the pair; return its metric entries."""
    model = DNNInferenceModel(cv2=spec.service_cv2)
    servers_per_site = model.servers_for_machines(spec.machines_per_site)
    service_dist = fit_two_moments(model.mean_service_time, spec.service_cv2)
    rate = (
        spec.rate_per_site
        if spec.rate_per_site is not None
        else spec.implied_utilization * spec.machines_per_site * model.saturation_rate
    )
    make_disc = _discipline_factory(spec)
    make_adm = _admission_factory(spec)

    sim = Simulation(seed)
    if kind == "edge":
        latency = ConstantLatency.from_ms(spec.edge_rtt_ms)
        sites = [
            EdgeSite(
                sim, f"site-{i}", servers_per_site, latency, service_dist,
                queue_capacity=spec.queue_capacity,
                discipline=None if make_disc is None else make_disc(),
                admission=None if make_adm is None else make_adm(),
            )
            for i in range(spec.sites)
        ]
        deployment = EdgeDeployment(sim, sites)
        if spec.failures:
            stations = [s.station for s in sites]
            injector = FailureInjector(
                sim, stations, mtbf=None, mttr=None, stop_time=spec.duration
            )
            for win in spec.failures:
                targets = (
                    None if win.sites is None
                    else [stations[i] for i in win.sites]
                )
                injector.schedule_outage(win.start, win.duration, targets)
    else:
        latency = ConstantLatency.from_ms(spec.cloud_rtt_ms)
        deployment = CloudDeployment(
            sim,
            servers=spec.sites * servers_per_site,
            latency=latency,
            service_dist=service_dist,
            queue_capacity=spec.queue_capacity,
            discipline=make_disc,
            admission=make_adm,
        )

    target = _wrap_client(spec, sim, deployment)
    gap = _interarrival(spec, rate)
    for i in range(spec.sites):
        OpenLoopSource(
            sim, target, gap,
            site=f"site-{i}" if kind == "edge" else f"client-{i}",
            stop_time=spec.duration,
        )

    # EventBudgetExceeded propagates: the campaign runner's supervised
    # task sees a failure and (deterministically) quarantines the
    # scenario after its bounded retries.
    sim.run(max_events=max_events)
    deployment.detach()  # nothing outlives this call but the metrics

    log = target.log if target is not deployment else deployment.log
    bd = log.breakdown().after(spec.duration * spec.warmup_fraction)
    out: dict[str, float] = {f"{kind}_count": float(bd.end_to_end.size)}
    if bd.end_to_end.size:
        ms = summarize(bd.end_to_end).as_ms()
        out[f"{kind}_mean_ms"] = ms["mean"]
        out[f"{kind}_p50_ms"] = ms["p50"]
        out[f"{kind}_p95_ms"] = ms["p95"]
    else:
        out[f"{kind}_mean_ms"] = 0.0
        out[f"{kind}_p50_ms"] = 0.0
        out[f"{kind}_p95_ms"] = 0.0
    refusals = deployment.refusal_counts
    out[f"{kind}_refused"] = float(refusals.total + deployment.lost)
    if target is not deployment:
        out[f"{kind}_failed_ops"] = float(len(target.failed))
    return out


def run_scenario(spec: ScenarioSpec, *, max_events: int | None = None) -> ScenarioRun:
    """Execute one scenario (paired edge + cloud runs).

    Both runs take derived seeds: edge ``derive_seed(seed, 0)`` and
    cloud ``derive_seed(seed, 1)``, independent but reproducible from
    the scenario's resolved seed alone.  This differs from
    :func:`repro.sim.runner.run_comparison`, which seeds the edge with
    ``seed`` itself (``derive_seed(seed, 0)`` is a different number); the
    golden matrix pins the campaign's pairing, so it stays as it is.
    """
    if spec.seed is None:
        raise ValueError(
            f"scenario {spec.name!r} has no resolved seed; load it through "
            "compile_campaign (or set seed explicitly)"
        )
    metrics: dict[str, float] = {}
    metrics.update(_run_one(spec, "edge", derive_seed(spec.seed, _EDGE_STREAM), max_events))
    metrics.update(_run_one(spec, "cloud", derive_seed(spec.seed, _CLOUD_STREAM), max_events))
    metrics["delta_mean_ms"] = metrics["cloud_mean_ms"] - metrics["edge_mean_ms"]
    metrics["delta_p95_ms"] = metrics["cloud_p95_ms"] - metrics["edge_p95_ms"]
    return ScenarioRun(name=spec.name, seed=spec.seed, metrics=metrics)


def scenario_task(spec: ScenarioSpec, max_events: int | None) -> ScenarioRun:
    """Picklable task trampoline for the supervised campaign runner."""
    return run_scenario(spec, max_events=max_events)
