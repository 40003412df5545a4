"""Experiment runners regenerating every figure/table of the paper.

Each ``figN()`` function reproduces the corresponding figure of the
evaluation (Section 4) and returns a structured result whose fields are
the series the paper plots; :mod:`repro.experiments.report` renders them
as text tables.  ``benchmarks/`` wires each runner to a pytest-benchmark
target (see DESIGN.md §4 for the experiment index).
"""

from repro.experiments.config import ExperimentConfig, FAST, FULL
from repro.experiments.figures import (
    fig2_spatial_skew,
    fig3_mean_typical,
    fig4_mean_distant,
    fig5_tail_distant,
    fig6_distribution,
    fig7_cutoff_utilizations,
    fig8_azure_workload,
    fig9_azure_latency,
    fig10_azure_per_site,
)
from repro.experiments.paper_report import generate_report
from repro.experiments.result import (
    ExperimentResult,
    ExperimentSpec,
    available,
    register,
    run_experiment,
)
from repro.experiments.sensitivity import (
    cutoff_vs_cores,
    cutoff_vs_delta_n,
    cutoff_vs_service_cv2,
    cutoff_vs_sites,
)
from repro.experiments.validation import validation_table

__all__ = [
    "generate_report",
    "ExperimentResult",
    "ExperimentSpec",
    "available",
    "register",
    "run_experiment",
    "cutoff_vs_cores",
    "cutoff_vs_delta_n",
    "cutoff_vs_service_cv2",
    "cutoff_vs_sites",
    "ExperimentConfig",
    "FAST",
    "FULL",
    "fig2_spatial_skew",
    "fig3_mean_typical",
    "fig4_mean_distant",
    "fig5_tail_distant",
    "fig6_distribution",
    "fig7_cutoff_utilizations",
    "fig8_azure_workload",
    "fig9_azure_latency",
    "fig10_azure_per_site",
    "validation_table",
]
