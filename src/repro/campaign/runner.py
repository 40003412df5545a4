"""Resource-governed campaign execution with quarantine and resume.

:func:`run_campaign` drives a compiled :class:`CampaignSpec` through
the supervised parallel substrate: every scenario is one supervised
task under the campaign's budgets (wall-clock ``timeout``, simulator
``max_events``, bounded ``retries``), journaled for kill-anywhere
resume, and — crucially — *quarantined* rather than fatal when it
persistently fails.  A 300-scenario sweep with three bad
configurations finishes with 297 results and a salvage report naming
the three, instead of dying at the first.

Quarantine has three entry points, in order:

1. **invalid-config** — the scenario carried semantic validation issues
   (:attr:`CampaignSpec.scenario_issues`); it is never executed.
2. **failed** — every attempt raised (including the deterministic
   :class:`repro.sim.engine.EventBudgetExceeded` when the event budget
   trips, and worker crashes detected via pipe EOF).
3. **timed-out** — every attempt exceeded the wall-clock budget.

Scenario results are deterministic functions of ``(spec, seed)``, so a
:class:`CampaignResult` is bit-identical across worker counts, across
resume boundaries and across quarantine-inducing chaos — the property
:meth:`CampaignResult.fingerprint` condenses for tests and the golden
differ builds on.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from collections.abc import Callable

from repro.campaign.executor import ScenarioRun, scenario_task
from repro.campaign.spec import CampaignSpec
from repro.experiments.result import ExperimentResult
from repro.experiments.store import open_journal
from repro.parallel import TaskOutcome, resolve_workers, run_tasks

__all__ = [
    "QuarantineRecord",
    "CampaignStats",
    "campaign_stats",
    "CampaignResult",
    "run_campaign",
]


@dataclass(frozen=True)
class QuarantineRecord:
    """One scenario the campaign set aside instead of aborting on."""

    name: str
    reason: str          # "invalid-config" | "failed" | "timed-out"
    detail: str
    attempts: int = 0

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "reason": self.reason,
            "detail": self.detail,
            "attempts": self.attempts,
        }


@dataclass
class CampaignStats:
    """Process-wide campaign progress counters.

    Conforms to the ``observables()`` protocol (rule RPR004):
    ``telemetry.register_observables("campaign", campaign_stats())``
    exports the counters as pull-model gauges.
    """

    scenarios: int = 0
    executed: int = 0
    succeeded: int = 0
    quarantined: int = 0
    journal_replayed: int = 0

    def observables(self) -> dict[str, Callable[[], int]]:
        return {
            "scenarios": lambda: self.scenarios,
            "executed": lambda: self.executed,
            "succeeded": lambda: self.succeeded,
            "quarantined": lambda: self.quarantined,
            "journal_replayed": lambda: self.journal_replayed,
        }

    def snapshot(self) -> dict[str, int]:
        return {name: reader() for name, reader in self.observables().items()}

    def reset(self) -> None:
        self.scenarios = self.executed = self.succeeded = 0
        self.quarantined = self.journal_replayed = 0


_STATS = CampaignStats()


def campaign_stats() -> CampaignStats:
    """The process-wide :class:`CampaignStats` singleton."""
    return _STATS


@dataclass
class CampaignResult:
    """Everything one campaign run produced.

    ``runs`` holds successful scenarios in campaign (expansion) order;
    ``outcomes`` the raw supervised :class:`TaskOutcome` envelopes for
    executed scenarios (same order, quarantined-before-execution
    scenarios excluded); ``quarantined`` the salvage records.
    """

    campaign: str
    seed: int
    digest: str
    runs: dict[str, ScenarioRun] = field(default_factory=dict)
    outcomes: list[TaskOutcome] = field(default_factory=list)
    quarantined: list[QuarantineRecord] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.quarantined

    def fingerprint(self) -> str:
        """Stable hash of the campaign's observable outcome.

        Covers every successful scenario's full metric mapping and every
        quarantine's (name, reason) — but not wall-clock facts like
        attempt counts or journal hits, which legitimately differ across
        resumes.  Two runs of the same campaign (any worker count, with
        or without a resume boundary) must fingerprint identically.
        """
        doc = {
            "campaign": self.campaign,
            "seed": self.seed,
            "digest": self.digest,
            "runs": {
                name: {"seed": run.seed, "metrics": run.metrics}
                for name, run in self.runs.items()
            },
            "quarantined": sorted((q.name, q.reason) for q in self.quarantined),
        }
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def salvage_report(self) -> dict:
        """JSON-safe report of what was set aside (CI artifact shape).

        An enveloped ``salvage-report`` document (see
        :mod:`repro.experiments.schema`) — the same shape the service's
        status endpoint serves.
        """
        from repro.experiments import schema as wire

        return wire.dump_salvage_report(self)

    def to_experiment_result(self) -> ExperimentResult:
        """Project into the standard experiment envelope (PR 3)."""
        rows = [
            {"scenario": name, "seed": run.seed} | run.metrics
            for name, run in self.runs.items()
        ]
        qrows = [q.as_dict() for q in self.quarantined]
        lines = [
            f"campaign {self.campaign!r}: {len(self.runs)} scenario(s) ok, "
            f"{len(qrows)} quarantined",
        ]
        for q in self.quarantined:
            lines.append(f"  quarantined {q.name!r} ({q.reason}): {q.detail}")
        return ExperimentResult(
            name=f"campaign:{self.campaign}",
            text="\n".join(lines),
            tables={"scenarios": rows, "quarantined": qrows},
            metadata={
                "campaign": self.campaign,
                "seed": self.seed,
                "digest": self.digest,
                "fingerprint": self.fingerprint(),
            },
            raw=self,
        )


def run_campaign(
    spec: CampaignSpec,
    *,
    workers: int | None = None,
    checkpoint=None,
    resume: bool = False,
    progress: Callable[[str, TaskOutcome], None] | None = None,
) -> CampaignResult:
    """Execute a compiled campaign under its budgets.

    Parameters
    ----------
    spec:
        Compiled campaign (:func:`repro.campaign.loader.load_campaign`).
        Scenarios named in :attr:`CampaignSpec.scenario_issues` are
        quarantined as ``invalid-config`` without executing.
    workers:
        Worker processes for the supervised fan-out (``None`` reads
        ``$REPRO_WORKERS``; results are identical for any value).
    checkpoint:
        Journal path (or open :class:`~repro.experiments.store.RunJournal`)
        for crash-safe resume.  The journal scope binds the campaign
        name, seed *and* content digest, so a checkpoint file can never
        replay results for an edited campaign.
    resume:
        Require the checkpoint to exist (fail loudly on a typo'd path
        instead of silently starting over).
    progress:
        Optional per-scenario lifecycle callback, invoked in this
        process as ``progress(scenario_name, outcome)`` the moment each
        scenario settles (journal replay, success or exhausted failure)
        — completion order, not campaign order.  ``repro.service``
        bridges this to its SSE event stream.

    Raises
    ------
    repro.obs.provider.TelemetryFanoutError
        If ``workers > 1`` while a telemetry factory is installed —
        the same API-layer guardrail ``run_tasks`` and the CLI apply
        (a ``ValueError`` naming ``--telemetry`` and ``--workers``).
    """
    from repro.obs import provider

    provider.ensure_fanout_compatible(resolve_workers(workers),
                                      context="run_campaign")
    stats = campaign_stats()
    stats.scenarios += len(spec.scenarios)

    quarantined: list[QuarantineRecord] = []
    bad = {}
    for name, issues in spec.scenario_issues:
        detail = "; ".join(i.render() for i in issues)
        bad[name] = detail
    runnable = [s for s in spec.scenarios if s.name not in bad]
    # Quarantine invalid scenarios in campaign order, like everything else.
    for s in spec.scenarios:
        if s.name in bad:
            quarantined.append(QuarantineRecord(s.name, "invalid-config", bad[s.name]))

    digest = spec.digest()
    journal, owned = open_journal(
        checkpoint,
        scope=f"campaign|{spec.name}|{spec.seed}|{digest}",
        resume=resume,
    )
    # A wall-clock timeout needs a worker process to terminate; with a
    # single in-process worker run_tasks would only warn, so drop it.
    timeout = spec.budgets.timeout if resolve_workers(workers) > 1 else None
    on_result = None
    if progress is not None:
        names = [s.name for s in runnable]
        on_result = lambda outcome: progress(names[outcome.index], outcome)
    try:
        outcomes: list[TaskOutcome] = run_tasks(
            scenario_task,
            [(s, spec.budgets.max_events) for s in runnable],
            workers=workers,
            timeout=timeout,
            retries=spec.budgets.retries,
            salvage=True,
            base_seed=spec.seed,
            journal=journal,
            label="scenario",
            on_result=on_result,
        )
    finally:
        if owned and journal is not None:
            journal.close()

    runs: dict[str, ScenarioRun] = {}
    for s, outcome in zip(runnable, outcomes, strict=True):
        stats.executed += 1
        if outcome.from_journal:
            stats.journal_replayed += 1
        if outcome.ok:
            runs[s.name] = outcome.result
            stats.succeeded += 1
        else:
            quarantined.append(
                QuarantineRecord(
                    s.name,
                    outcome.status,
                    outcome.error or "unknown failure",
                    attempts=outcome.attempts,
                )
            )
    stats.quarantined += len(quarantined)

    return CampaignResult(
        campaign=spec.name,
        seed=spec.seed,
        digest=digest,
        runs=runs,
        outcomes=outcomes,
        quarantined=quarantined,
    )
