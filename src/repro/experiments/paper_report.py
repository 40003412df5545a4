"""One-shot markdown report of the full evaluation.

:func:`generate_report` runs every figure experiment plus the
validation table through the experiment registry
(:func:`~repro.experiments.result.run_experiment`) and renders a single
markdown document — the machine-generated core of EXPERIMENTS.md,
regenerable at any sizing with ``python -m repro report``.
"""

from __future__ import annotations

import time

from repro.experiments.config import FAST, ExperimentConfig
from repro.experiments.result import run_experiment

__all__ = ["generate_report"]

#: (section heading, registered experiment name), in report order.
_SECTIONS = (
    ("Figure 2 — spatial load skew", "fig2"),
    ("Figure 3 — mean latency, typical cloud", "fig3"),
    ("Figure 4 — mean latency, distant cloud", "fig4"),
    ("Figure 5 — tail latency, distant cloud", "fig5"),
    ("Figure 6 — latency distributions", "fig6"),
    ("Figure 7 — cutoff utilization vs cloud RTT", "fig7"),
    ("Figure 8 — Azure-like per-site workload", "fig8"),
    ("Figure 9 — latency over time", "fig9"),
    ("Figure 10 — per-site latency", "fig10"),
    ("Section 4.2 — analytic validation", "validation"),
)


def generate_report(
    config: ExperimentConfig = FAST, *, only: list[str] | None = None
) -> str:
    """Run the evaluation and return a markdown report.

    Parameters
    ----------
    only:
        Restrict to sections whose title contains any of these
        substrings (case-insensitive); default runs everything.
    """
    parts = [
        "# Evaluation report — The Hidden Cost of the Edge (reproduction)",
        "",
        f"config: requests_per_site={config.requests_per_site}, "
        f"azure_duration={config.azure_duration:.0f}s, seed={config.seed}",
        "",
    ]
    wanted = None if only is None else [s.lower() for s in only]
    ran = 0
    for title, name in _SECTIONS:
        if wanted is not None and not any(w in title.lower() for w in wanted):
            continue
        start = time.perf_counter()
        body = run_experiment(name, config).text
        elapsed = time.perf_counter() - start
        parts += [f"## {title}", "", "```", body, "```", f"_({elapsed:.1f} s)_", ""]
        ran += 1
    if ran == 0:
        raise ValueError(f"no sections match {only!r}")
    return "\n".join(parts)
