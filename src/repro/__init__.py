"""repro — reproduction of *The Hidden Cost of the Edge* (SC 2021).

This library implements, end to end, the paper's study of the **edge
performance inversion** problem: the regime in which an edge deployment's
lower network latency is offset by higher queueing delay, making its
end-to-end latency *worse* than the cloud's.

Subpackages
-----------
``repro.queueing``
    Exact (M/M/1, M/M/k) and approximate (Kingman, Allen–Cunneen, Whitt)
    queueing models — the analytic substrate for Section 3.
``repro.sim``
    Discrete-event simulator of edge/cloud deployments (the stand-in for
    the paper's EC2 testbed) plus a fast vectorized G/G/c path.
``repro.workload``
    Bursty and time-varying arrival processes, the DNN-inference
    service model, synthetic Azure serverless traces and spatial skew
    generators.
``repro.core``
    The paper's contribution: inversion bounds (Lemmas 3.1–3.3,
    Corollaries 3.1.1–3.2.1), cutoff-utilization solvers, capacity
    planning (Section 5) and the high-level
    :class:`~repro.core.comparator.EdgeCloudComparator`.
``repro.mitigation``
    Executable versions of Section 5's design implications: geographic
    load balancing, skew-proportional provisioning, reactive autoscaling.
``repro.stats``
    Measurement utilities: latency summaries, time series and
    independent-replication confidence intervals.
``repro.experiments``
    Runners that regenerate every figure/table in the paper's evaluation.

The most-used names are re-exported lazily at the top level (PEP 562), so
``import repro`` stays cheap and subpackages can be imported independently.
"""

from __future__ import annotations

import importlib
from typing import Any

__version__ = "1.0.0"

# name -> module providing it
_EXPORTS = {
    "EdgeCloudComparator": "repro.core.comparator",
    "ComparisonResult": "repro.core.comparator",
    "Scenario": "repro.core.scenarios",
    "NEARBY_CLOUD": "repro.core.scenarios",
    "TYPICAL_CLOUD": "repro.core.scenarios",
    "DISTANT_CLOUD": "repro.core.scenarios",
    "TRANSCONTINENTAL_CLOUD": "repro.core.scenarios",
    "delta_n_threshold_mm": "repro.core.inversion",
    "delta_n_threshold_gg": "repro.core.inversion",
    "delta_n_threshold_skewed": "repro.core.inversion",
    "cutoff_utilization_paper": "repro.core.inversion",
    "cutoff_utilization_exact": "repro.core.inversion",
    "ExperimentResult": "repro.experiments.result",
    "run_experiment": "repro.experiments.result",
    "Telemetry": "repro.obs",
    "RefusalCounts": "repro.stats.refusals",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str) -> Any:
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(module), name)


def __dir__() -> list[str]:
    return sorted(__all__)
