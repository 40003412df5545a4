"""E12: windowed live telemetry through the E11 admission pulse.

E11's ``admission_pulse`` reports *aggregate* recovery numbers — goodput
before/during/after a 2× overload pulse.  This experiment runs the
AIMD-protected variant of the same scenario, on its own seed, with the
observability layer enabled (:mod:`repro.obs`) and reports the run as a
*timeline*: one row per telemetry window carrying throughput, p50/p95
of completions, the refusal taxonomy, station occupancy and the
adaptive admission limit — the collapse-and-recover trajectory that
the aggregate table can only imply.

The run doubles as the acceptance check for span tracing: for every
served request the recorder's four serving spans (``net.out`` +
``queue`` + ``service`` + ``net.back``) must sum to the request-log
end-to-end latency exactly (float tolerance); the maximum observed
discrepancy is carried in the result and asserted by
``tests/test_observability.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.experiments.config import ExperimentConfig
from repro.experiments.overload import _one_site
from repro.mitigation.admission import AdaptiveAdmission, AIMDConcurrencyLimit
from repro.obs.spans import SERVING_SPANS
from repro.queueing.distributions import Exponential
from repro.sim.client import OpenLoopSource
from repro.sim.engine import Simulation

__all__ = ["WindowRow", "PulseTimelineResult", "pulse_timeline", "render_pulse_timeline"]


@dataclass(frozen=True)
class WindowRow:
    """One telemetry window of the pulse run."""

    t_start: float
    t_end: float
    completed: int
    throughput: float
    p50_ms: float | None
    p95_ms: float | None
    rejected: int
    dropped: int
    shed: int
    queue: int
    busy: int
    utilization: float | None
    admission_limit: float | None


@dataclass(frozen=True)
class PulseTimelineResult:
    """The E12 timeline plus its span-reconciliation evidence."""

    policy: str
    base_rate: float
    pulse_rate: float
    pulse_start: float
    pulse_end: float
    duration: float
    window: float
    rows: list[WindowRow]
    completed: int
    refused_total: int
    span_count: int
    max_reconciliation_error: float


def pulse_timeline(
    cfg: ExperimentConfig,
    base_rate: float = 8.0,
    pulse_rate: float = 18.0,
    duration: float = 720.0,
    pulse_start: float = 240.0,
    pulse_len: float = 60.0,
    window: float = 20.0,
) -> PulseTimelineResult:
    """E11's AIMD admission pulse, observed live through ``repro.obs``.

    Identical topology and load shape to
    :func:`repro.experiments.overload.admission_pulse`'s ``aimd`` plan,
    with its own random stream: this run seeds ``Simulation(cfg.seed)``,
    where that plan seeds ``derive_seed(cfg.seed, 2)``, so the two runs
    draw different requests.  The only addition is an installed
    telemetry factory, which is the point — observability composes with
    an existing experiment without touching its construction code.
    """
    pulse_end = pulse_start + pulse_len
    exporter = obs.InMemoryExporter()
    limits: list[float] = []
    # The experiment needs its own in-memory telemetry, but a caller may
    # have installed a provider already (the CLI's --telemetry flag);
    # inherit that provider's exporters so the run streams there too.
    outer = obs.current_telemetry()
    extra = list(outer.exporters) if outer is not None else []
    factory = lambda: obs.Telemetry(  # noqa: E731 - scoped enablement
        window=window,
        spans=True,
        exporters=[exporter, *extra],
        label="pulse/aimd",
    )
    with obs.installed(factory):
        sim = Simulation(cfg.seed)
        admission = AdaptiveAdmission(AIMDConcurrencyLimit(latency_target=1.0, max_limit=64.0))
        site, edge = _one_site(sim, admission=admission)
        OpenLoopSource(sim, edge, Exponential(1.0 / base_rate), site="s0", stop_time=duration)
        sim.schedule(
            pulse_start,
            lambda: OpenLoopSource(
                sim, edge, Exponential(1.0 / pulse_rate), site="s0", stop_time=pulse_end
            ),
        )
        # Sample the adaptive limit at every window boundary so the rows
        # can show the collapse/recovery trajectory next to its effects.
        for t in np.arange(window, duration + window / 2.0, window):
            sim.schedule_at(float(t), lambda: limits.append(admission.limit.limit))
        sim.run(until=duration)
        sim.run()  # drain in-flight work so telemetry flushes its last window
        tel = sim.telemetry

    # Acceptance invariant: serving spans tile each request exactly.
    serving_sums: dict[int, float] = {}
    for span in tel.spans.spans:
        if span.name in SERVING_SPANS:
            serving_sums[span.trace_id] = serving_sums.get(span.trace_id, 0.0) + span.duration
    max_err = 0.0
    for request in edge.log.requests:
        total = serving_sums.get(request.rid)
        err = abs(total - request.end_to_end) if total is not None else float("inf")
        if err > max_err:
            max_err = err

    rows = []
    for rec in exporter.windows:
        # Windows with no activity emit no record, so align the sampled
        # limit by the window's end time, not by row index.
        i = round(rec["t_end"] / window) - 1
        lat = rec["latency"]
        s0 = rec["stations"].get("s0", {})
        refused = rec["refused"]
        rows.append(
            WindowRow(
                t_start=rec["t_start"],
                t_end=rec["t_end"],
                completed=rec["completed"],
                throughput=rec["throughput"],
                p50_ms=None if lat["p50"] is None else lat["p50"] * 1e3,
                p95_ms=None if lat["p95"] is None else lat["p95"] * 1e3,
                rejected=refused["rejected"],
                dropped=refused["dropped"],
                shed=refused["shed"],
                queue=s0.get("queue", 0),
                busy=s0.get("busy", 0),
                utilization=s0.get("utilization"),
                admission_limit=limits[i] if 0 <= i < len(limits) else None,
            )
        )
    return PulseTimelineResult(
        policy="aimd",
        base_rate=base_rate,
        pulse_rate=pulse_rate,
        pulse_start=pulse_start,
        pulse_end=pulse_end,
        duration=duration,
        window=window,
        rows=rows,
        completed=tel.completed,
        refused_total=sum(tel.refused.values()),
        span_count=len(tel.spans),
        max_reconciliation_error=max_err,
    )


def render_pulse_timeline(result: PulseTimelineResult) -> str:
    """Text table of the windowed timeline (``*`` marks pulse windows)."""
    lines = [
        "E12 — windowed telemetry through the admission pulse "
        f"(policy={result.policy}, window={result.window:g}s)",
        f"base {result.base_rate:g} req/s, pulse +{result.pulse_rate:g} req/s over "
        f"[{result.pulse_start:g}, {result.pulse_end:g}) s; * = pulse window",
        f"{'window':>14} {'done':>5} {'thru/s':>7} {'p50ms':>7} {'p95ms':>8} "
        f"{'rej':>5} {'queue':>5} {'util':>5} {'limit':>6}",
    ]

    def fmt(v, spec, missing="-"):
        return missing if v is None else format(v, spec)

    for row in result.rows:
        pulsing = row.t_start < result.pulse_end and row.t_end > result.pulse_start
        mark = "*" if pulsing else " "
        lines.append(
            f"{mark}{row.t_start:>6.0f}-{row.t_end:<6.0f} {row.completed:>5} "
            f"{row.throughput:>7.2f} {fmt(row.p50_ms, '7.1f'):>7} {fmt(row.p95_ms, '8.1f'):>8} "
            f"{row.rejected:>5} {row.queue:>5} {fmt(row.utilization, '5.2f'):>5} "
            f"{fmt(row.admission_limit, '6.1f'):>6}"
        )
    lines.append(
        f"completed {result.completed}, refused {result.refused_total}, "
        f"{result.span_count} spans recorded; "
        f"max span-vs-log reconciliation error {result.max_reconciliation_error:.3g} s"
    )
    return "\n".join(lines)
