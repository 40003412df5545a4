"""Plain-text rendering of experiment results.

Every figure runner's result can be rendered as the table/series the
paper plots; the benchmarks print these so a run of
``pytest benchmarks/ --benchmark-only -s`` regenerates the full
evaluation in text form.
"""

from __future__ import annotations

import numpy as np

from repro.core.comparator import ComparisonResult
from repro.experiments.figures import (
    Fig2Result,
    Fig6Result,
    Fig7Result,
    Fig8Result,
    Fig9Result,
    Fig10Result,
    SweepFigure,
)
from repro.experiments.overload import (
    BrownoutResult,
    DefenseResult,
    DisciplineResult,
    PriorityResult,
    PulseResult,
)
from repro.experiments.resilience import RecoveryResult, StormResult
from repro.experiments.validation import ValidationRow

__all__ = [
    "render_sweep",
    "render_sweep_figure",
    "render_fig2",
    "render_fig6",
    "render_fig7",
    "render_fig8",
    "render_fig9",
    "render_fig10",
    "render_validation",
    "render_retry_storm",
    "render_outage_recovery",
    "render_discipline_sweep",
    "render_admission_pulse",
    "render_priority_shedding",
    "render_brownout_tradeoff",
    "render_storm_defense",
]


def _fmt_ms(seconds: float | None) -> str:
    return "-" if seconds is None else f"{seconds * 1e3:8.2f}"


def _fmt_rho(rho: float | None) -> str:
    return "none" if rho is None else f"{rho:.2f}"


def render_sweep(result: ComparisonResult, metric: str = "mean") -> str:
    """One figure series: rate, edge and cloud latency, who wins."""
    lines = [
        f"{result.scenario.name} — {metric} end-to-end latency",
        f"{'req/s/site':>10} {'util':>6} {'edge(ms)':>9} {'cloud(ms)':>9}  winner",
    ]
    for p in result.points:
        edge_v = getattr(p.edge, metric)
        cloud_v = getattr(p.cloud, metric)
        winner = "edge" if edge_v < cloud_v else "CLOUD"
        lines.append(
            f"{p.rate_per_site:>10.1f} {p.utilization:>6.2f} "
            f"{_fmt_ms(edge_v)} {_fmt_ms(cloud_v)}  {winner}"
        )
    x = result.crossover_rate(metric)
    lines.append(f"crossover: {'none in range' if x is None else f'{x:.1f} req/s/site'}")
    return "\n".join(lines)


def render_sweep_figure(fig: SweepFigure) -> str:
    """Both fleet sizes of a Figure 3/4/5-style experiment."""
    parts = [
        render_sweep(fig.k5, fig.metric),
        "",
        render_sweep(fig.k10, fig.metric),
        "",
        f"per-server crossovers: {fig.crossovers()}",
    ]
    return "\n".join(parts)


def render_fig2(result: Fig2Result) -> str:
    """The per-cell load box-plot summary."""
    q1, q2, q3 = result.quartiles
    return (
        "Figure 2 — per-cell edge load (requests per minute)\n"
        f"cells: {result.per_cell_mean_load.size}\n"
        f"quartiles: q1={q1:.1f} median={q2:.1f} q3={q3:.1f}\n"
        f"max/mean={result.skew['max_over_mean']:.2f} "
        f"p95/median={result.skew['p95_over_median']:.2f} "
        f"cell CoV={result.skew['cell_cv']:.2f}"
    )


def render_fig6(result: Fig6Result) -> str:
    """Violin-plot substitute: quartiles and tails of both distributions."""
    lines = [f"Figure 6 — latency distribution at {result.rate:.0f} req/s/server"]
    for label, s in (("edge", result.edge), ("cloud", result.cloud)):
        m = s.as_ms()
        lines.append(
            f"{label:>6}: p25={m['p25']:.1f} p50={m['p50']:.1f} p75={m['p75']:.1f} "
            f"p95={m['p95']:.1f} p99={m['p99']:.1f} (ms)"
        )
    return "\n".join(lines)


def render_fig7(result: Fig7Result) -> str:
    """Cutoff utilization per cloud placement."""
    lines = [
        "Figure 7 — cutoff utilization for inversion vs cloud RTT (k=5)",
        f"{'RTT(ms)':>8} {'mean cutoff':>12} {'tail cutoff':>12} {'predicted':>10}",
    ]
    for rtt, m, t, p in zip(
        result.rtts_ms, result.mean_cutoff, result.tail_cutoff, result.predicted_cutoff,
        strict=True,
    ):
        lines.append(f"{rtt:>8.0f} {_fmt_rho(m):>12} {_fmt_rho(t):>12} {p:>10.2f}")
    return "\n".join(lines)


def render_fig8(result: Fig8Result) -> str:
    """Per-site workload summary."""
    lines = ["Figure 8 — per-site request rate under the Azure-like trace"]
    for i, rates in enumerate(result.site_rates):
        r = rates[~np.isnan(rates)]
        lines.append(
            f"site {i}: mean={np.mean(r):6.2f} req/s  min={np.min(r):6.2f}  "
            f"max={np.max(r):6.2f}"
        )
    lines.append(f"spatial CoV of site means: {result.spatial_cv:.2f}")
    return "\n".join(lines)


def render_fig9(result: Fig9Result) -> str:
    """Edge vs cloud mean-latency time series summary."""
    e = result.edge_mean[~np.isnan(result.edge_mean)]
    c = result.cloud_mean[~np.isnan(result.cloud_mean)]
    return (
        "Figure 9 — windowed mean latency under the Azure-like trace\n"
        f"edge : mean={np.mean(e) * 1e3:7.2f} ms  std={np.std(e) * 1e3:6.2f} ms\n"
        f"cloud: mean={np.mean(c) * 1e3:7.2f} ms  std={np.std(c) * 1e3:6.2f} ms\n"
        f"windows with edge worse than cloud: {result.inversion_fraction:.0%}\n"
        f"edge/cloud series variability ratio: {result.edge_variability:.1f}"
    )


def render_fig10(result: Fig10Result) -> str:
    """Per-site latency box-plot summary."""
    lines = [
        "Figure 10 — per-site latency under the Azure-like trace",
        f"{'site':>6} {'rate':>7} {'rho':>5} {'p25':>8} {'p50':>8} {'p75':>8} {'p95':>8} (ms)",
    ]
    for i, (s, r, u) in enumerate(
        zip(result.site_summaries, result.site_rates, result.site_utilizations, strict=True)
    ):
        m = s.as_ms()
        lines.append(
            f"{i:>6} {r:>7.2f} {u:>5.2f} {m['p25']:>8.1f} {m['p50']:>8.1f} "
            f"{m['p75']:>8.1f} {m['p95']:>8.1f}"
        )
    m = result.cloud_summary.as_ms()
    lines.append(
        f"{'cloud':>6} {'':>7} {'':>5} {m['p25']:>8.1f} {m['p50']:>8.1f} "
        f"{m['p75']:>8.1f} {m['p95']:>8.1f}"
    )
    return "\n".join(lines)


def render_retry_storm(result: StormResult) -> str:
    """Retry-storm sweep: naive vs retrying effective latency, both tiers."""
    lines = [
        "Resilience (a) — retry storms move the inversion crossover",
        f"(failed operations censored at the {result.slo_deadline:.0f}s SLO deadline)",
        f"{'req/s/site':>10} {'naiveE(ms)':>10} {'naiveC(ms)':>10} "
        f"{'retryE(ms)':>10} {'retryC(ms)':>10} {'ampE':>5} {'ampC':>5} {'failE':>6}",
    ]
    for p in result.points:
        lines.append(
            f"{p.rate:>10.1f} {p.naive_edge * 1e3:>10.0f} {p.naive_cloud * 1e3:>10.0f} "
            f"{p.retry_edge * 1e3:>10.0f} {p.retry_cloud * 1e3:>10.0f} "
            f"{p.edge_amplification:>5.2f} {p.cloud_amplification:>5.2f} "
            f"{p.edge_failure_rate:>6.1%}"
        )
    fmt = lambda x: "none in range" if x is None else f"{x:.0f} req/s/site"  # noqa: E731
    lines.append(f"naive crossover: {fmt(result.naive_crossover)}")
    lines.append(f"retry crossover: {fmt(result.retry_crossover)}")
    return "\n".join(lines)


def render_outage_recovery(result: RecoveryResult) -> str:
    """Outage-recovery comparison: one row per client/failure strategy."""
    lines = [
        f"Resilience (b) — breaker + failover under edge outages "
        f"({result.rate:.0f} req/s/site, SLO {result.slo_deadline:.0f}s)",
        f"{'strategy':>30} {'p95(ms)':>9} {'SLO':>7} {'goodput':>8} "
        f"{'amp':>5} {'failover':>8} {'opens':>5} {'fail':>6}",
    ]
    for row in result.rows:
        s = row.summary
        lines.append(
            f"{row.label:>30} {row.p95 * 1e3:>9.0f} {s.slo_attainment:>7.1%} "
            f"{s.goodput:>7.1f}/s {s.retry_amplification:>5.2f} "
            f"{s.failovers:>8} {s.breaker_opens:>5} {s.failures:>6}"
        )
    lines.append(f"p95 recovery fraction: {result.recovery_fraction:.3f}")
    return "\n".join(lines)


def render_validation(rows: list[ValidationRow]) -> str:
    """The §4.2 analytic-vs-measured table."""
    lines = [
        "Section 4.2 — analytic cutoff validation",
        f"{'k':>4} {'paper pred':>10} {'paper meas':>10} {'our pred':>9} {'our meas':>9}",
    ]
    for r in rows:
        lines.append(
            f"{r.k_machines:>4} {r.paper_predicted:>10.2f} {r.paper_measured:>10.2f} "
            f"{r.our_predicted:>9.2f} {_fmt_rho(r.our_measured):>9}"
        )
    return "\n".join(lines)


def render_discipline_sweep(result: DisciplineResult) -> str:
    """Queue-discipline comparison under sustained overload."""
    lines = [
        f"Overload (a) — queue disciplines at {result.rate:.0f} req/s "
        f"(capacity 13, SLO {result.slo:.0f}s)",
        f"{'discipline':>14} {'p95(ms)':>9} {'goodput':>8} {'sloGP':>7} "
        f"{'refused':>8} {'drop':>6} {'shed':>6}",
    ]
    for row in result.rows:
        s = row.summary
        lines.append(
            f"{row.label:>14} {row.p95 * 1e3:>9.0f} {s.goodput:>7.1f}/s "
            f"{row.slo_goodput:>6.1f}/s {s.refusal_rate:>8.1%} "
            f"{s.dropped:>6} {s.shed:>6}"
        )
    return "\n".join(lines)


def render_admission_pulse(result: PulseResult) -> str:
    """Adaptive-admission recovery after an overload pulse."""
    t0, t1 = result.pulse_window
    lines = [
        f"Overload (b) — admission control through a {result.pulse_rate:.0f} req/s "
        f"pulse on {result.base_rate:.0f} req/s base (t={t0:.0f}..{t1:.0f}s)",
        f"{'admission':>10} {'recovered':>9} {'postP95(ms)':>11} "
        f"{'rejected':>9} {'limit@end':>9}",
    ]
    for row in result.rows:
        limit = "-" if row.final_limit is None else f"{row.final_limit:.1f}"
        lines.append(
            f"{row.label:>10} {result.recovered(row.label):>9.2f} "
            f"{row.post_p95 * 1e3:>11.0f} {row.summary.rejected:>9} {limit:>9}"
        )
    lines.append(
        "recovered = post-pulse served-within-SLO rate / offered base rate"
    )
    return "\n".join(lines)


def render_priority_shedding(result: PriorityResult) -> str:
    """Per-class goodput with uniform vs priority-aware shedding."""
    lines = [
        f"Overload (c) — priority shedding at {result.rate:.0f} req/s "
        f"(capacity 13; shares {result.shares})",
        f"{'policy':>9} {'class':>5} {'offered':>8} {'served':>7} {'fraction':>9}",
    ]
    for label, rows in (("uniform", result.uniform), ("priority", result.priority)):
        for row in rows:
            lines.append(
                f"{label:>9} {row.priority:>5} {row.offered:>8} {row.served:>7} "
                f"{row.served_fraction:>9.1%}"
            )
    return "\n".join(lines)


def render_brownout_tradeoff(result: BrownoutResult) -> str:
    """Brownout vs drop-tail at equal offered load."""
    lines = [
        f"Overload (d) — brownout vs drop-tail at {result.rate:.0f} req/s",
        f"{'strategy':>10} {'p95(ms)':>9} {'goodput':>8} {'refused':>8} {'degraded':>9}",
    ]
    for row in result.rows:
        s = row.summary
        lines.append(
            f"{row.label:>10} {row.p95 * 1e3:>9.0f} {s.goodput:>7.1f}/s "
            f"{s.refusal_rate:>8.1%} {s.degraded_fraction:>9.1%}"
        )
    lines.append(f"brownout goodput gain over drop-tail: {result.goodput_gain:.2f}x")
    return "\n".join(lines)


def render_storm_defense(result: DefenseResult) -> str:
    """E10's retry storm with and without server-side overload control."""
    lines = [
        "Overload (e) — the E10 retry storm vs protected stations "
        f"(failures censored at the {result.slo_deadline:.0f}s SLO)",
        f"{'req/s/site':>10} {'stations':>10} {'effLat(ms)':>10} {'amp':>5} "
        f"{'fail':>6} {'sheds':>6} {'rejects':>8}",
    ]
    for row in result.rows:
        tag = "protected" if row.protected else "naive"
        lines.append(
            f"{row.rate:>10.1f} {tag:>10} {row.effective_latency * 1e3:>10.0f} "
            f"{row.amplification:>5.2f} {row.failure_rate:>6.1%} "
            f"{row.sheds:>6} {row.rejects:>8}"
        )
    return "\n".join(lines)

