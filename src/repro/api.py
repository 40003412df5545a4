"""The supported import surface, in one flat module.

``repro.api`` is the facade over everything this project promises to
keep stable: experiment execution, campaign orchestration, the campaign
service, the versioned wire schema, telemetry and the parallel
substrate.  Import from here and upgrades stay mechanical::

    from repro.api import run_experiment, run_campaign, load_campaign

**Stability contract** (see ``docs/api.md``): every name in ``__all__``
below keeps its signature and semantics within a major version; removal
or change is preceded by at least one release emitting a
``DeprecationWarning``.  Deep imports (``repro.experiments.result``,
``repro.campaign.runner``, …) continue to work but are *not* covered by
the contract.

Wire documents (results persisted by ``ExperimentResult.save`` and
``repro dump``, golden summaries, salvage reports, telemetry files,
every service response) carry ``schema_version`` from
:mod:`repro.experiments.schema`; readers tolerate unknown keys, so
artifacts written by one release load in the next, and refuse newer
majors and pre-envelope documents (no ``schema_version``) with
``WireFormatError``.
"""

from __future__ import annotations

# -- analytic + scenario layer -----------------------------------------
from repro.core import cutoff_utilization_exact, cutoff_utilization_tail
from repro.core.comparator import EdgeCloudComparator
from repro.core.scenarios import TYPICAL_CLOUD, Scenario

# -- experiments --------------------------------------------------------
from repro.experiments.config import FAST, FULL, ExperimentConfig
from repro.experiments.result import (
    ExperimentResult,
    available,
    get_spec,
    run_experiment,
)

# -- versioned wire schema (the unified envelope) -----------------------
from repro.experiments.schema import (
    SCHEMA_VERSION,
    SchemaVersionError,
    WireFormatError,
    load_document,
    to_document,
)

# -- campaigns ----------------------------------------------------------
from repro.campaign import (
    CampaignResult,
    CampaignSpec,
    CampaignValidationError,
    compile_campaign,
    diff_golden,
    load_campaign,
    load_golden,
    run_campaign,
    write_golden,
)

# -- campaign service ---------------------------------------------------
from repro.service import CampaignJob, EventBus, JobManager, create_server, serve

# -- observability ------------------------------------------------------
from repro.obs import JsonLinesExporter, Telemetry, install, uninstall
from repro.obs.provider import TelemetryFanoutError

# -- parallel substrate -------------------------------------------------
from repro.parallel import TaskOutcome, resolve_workers, run_tasks

__all__ = [
    # analytic + scenario layer
    "EdgeCloudComparator",
    "Scenario",
    "TYPICAL_CLOUD",
    "cutoff_utilization_exact",
    "cutoff_utilization_tail",
    # experiments
    "ExperimentConfig",
    "ExperimentResult",
    "FAST",
    "FULL",
    "available",
    "get_spec",
    "run_experiment",
    # wire schema
    "SCHEMA_VERSION",
    "SchemaVersionError",
    "WireFormatError",
    "load_document",
    "to_document",
    # campaigns
    "CampaignResult",
    "CampaignSpec",
    "CampaignValidationError",
    "compile_campaign",
    "diff_golden",
    "load_campaign",
    "load_golden",
    "run_campaign",
    "write_golden",
    # campaign service
    "CampaignJob",
    "EventBus",
    "JobManager",
    "create_server",
    "serve",
    # observability
    "JsonLinesExporter",
    "Telemetry",
    "TelemetryFanoutError",
    "install",
    "uninstall",
    # parallel substrate
    "TaskOutcome",
    "resolve_workers",
    "run_tasks",
]
