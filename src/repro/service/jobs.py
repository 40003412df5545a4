"""Campaign jobs: validation, a bounded worker pool, restart/resume.

The service side of ROADMAP item 5.  A submitted campaign document
becomes a :class:`CampaignJob` whose identity is the campaign's
*content digest* (:meth:`CampaignSpec.digest`), which buys three
properties at once:

* **Idempotent submission** — POSTing the same document twice returns
  the same job instead of running the campaign twice;
* **Stable spool layout** — with a state directory configured, job
  ``<id>`` lives at ``state_dir/jobs/<id>/`` (``campaign.json``, the
  scenario ``journal.jsonl``, the final ``result.json``);
* **kill -9 recovery** — a restarted :class:`JobManager` re-enqueues
  every spooled job lacking a ``result.json`` and re-runs it *with the
  same journal*, so completed scenarios replay from disk and the
  resumed campaign fingerprints bit-identically (the PR 6/7 invariant).

Execution reuses :func:`repro.campaign.run_campaign` unchanged — the
supervised ``run_tasks`` substrate with budgets, quarantine and
journaling — on a bounded pool of plain worker threads.  Per-scenario
lifecycle events flow through ``run_campaign(progress=...)`` into the
job's :class:`~repro.service.events.EventBus`; with ``workers == 1``
(the in-process serial path) windowed :mod:`repro.obs` telemetry can be
bridged onto the same bus via a thread-local exporter.
"""

from __future__ import annotations

import json
import math
import queue
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.campaign import CampaignResult, CampaignSpec, compile_campaign, run_campaign
from repro.campaign.spec import dump_campaign
from repro.experiments import schema as wire
from repro.service.events import EventBus

__all__ = ["CampaignJob", "JobManager"]

#: Job states, in lifecycle order.
STATES = ("queued", "running", "done", "failed")


@dataclass
class CampaignJob:
    """One submitted campaign and everything the service knows about it."""

    id: str
    spec: CampaignSpec
    status: str = "queued"
    submitted_at: float = field(default_factory=time.time)
    finished_at: float | None = None
    result: CampaignResult | None = None
    error: str | None = None
    events: EventBus = field(default_factory=EventBus)

    def describe(self) -> dict[str, Any]:
        """The job's wire document (enveloped ``campaign-job``)."""
        body: dict[str, Any] = {
            "id": self.id,
            "campaign": self.spec.name,
            "seed": self.spec.seed,
            "digest": self.spec.digest(),
            "scenarios": len(self.spec.scenarios),
            "status": self.status,
            "submitted_at": self.submitted_at,
            "finished_at": self.finished_at,
        }
        if self.error is not None:
            body["error"] = self.error
        if self.result is not None:
            body["result"] = wire.dump_campaign_result(self.result)
            body["salvage"] = wire.dump_salvage_report(self.result)
        return wire.envelope("campaign-job", body)


class _BusExporter:
    """Telemetry exporter publishing each record as an SSE-able event."""

    def __init__(self, bus: EventBus):
        self._bus = bus

    def export(self, record: dict) -> None:
        rtype = record.get("type", "window")
        # The record is already an enveloped telemetry document
        # (schema_version stamped at build time); wrap, don't re-shape.
        self._bus.publish({"event": f"telemetry-{rtype}", "record": record})

    def close(self) -> None:
        pass


class JobManager:
    """Bounded campaign execution behind the HTTP front-end.

    Parameters
    ----------
    state_dir:
        Spool directory for durable jobs (``None`` = in-memory only, no
        restart/resume).  Existing unfinished jobs found here are
        re-enqueued by :meth:`start`.
    pool:
        Worker *threads* running campaigns concurrently (each campaign
        still fans its scenarios out per ``workers``).
    workers:
        Worker processes per campaign, forwarded to
        :func:`repro.campaign.run_campaign`.
    telemetry_window:
        When set (and ``workers == 1``), every simulation a job builds
        streams windowed telemetry onto the job's event bus with this
        window (virtual seconds, finite and positive).  Incompatible with
        ``workers > 1`` — :class:`repro.obs.provider.TelemetryFanoutError`
        at start.
    telemetry_path:
        Optional JSON-lines file receiving a copy of every telemetry
        record across all jobs (the ``repro serve --telemetry PATH``
        flag); requires ``telemetry_window``.
    """

    def __init__(
        self,
        state_dir: str | Path | None = None,
        *,
        pool: int = 1,
        workers: int | None = None,
        telemetry_window: float | None = None,
        telemetry_path: str | None = None,
    ):
        if pool < 1:
            raise ValueError(f"pool must be >= 1, got {pool}")
        if telemetry_window is not None and not 0 < telemetry_window < math.inf:
            raise ValueError(
                f"telemetry_window must be finite and > 0, got {telemetry_window}"
            )
        if telemetry_path is not None and telemetry_window is None:
            raise ValueError("telemetry_path requires telemetry_window")
        self.state_dir = None if state_dir is None else Path(state_dir)
        self.pool = pool
        self.workers = workers
        self.telemetry_window = telemetry_window
        self.telemetry_path = telemetry_path
        self._file_exporter = None
        self._jobs: dict[str, CampaignJob] = {}
        self._lock = threading.Lock()
        self._queue: queue.Queue = queue.Queue()
        self._threads: list[threading.Thread] = []
        self._stopping = False
        self._started = False
        self._tl = threading.local()
        self._telemetry_installed = False

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Spin up the worker pool and re-enqueue spooled unfinished jobs."""
        if self._started:
            return
        self._started = True
        if self.telemetry_window is not None:
            from repro.obs import provider
            from repro.parallel import resolve_workers

            provider.ensure_fanout_compatible(
                resolve_workers(self.workers),
                context="JobManager",
                installing=True,
            )
            if self.telemetry_path is not None:
                from repro.obs import JsonLinesExporter

                self._file_exporter = JsonLinesExporter(self.telemetry_path)
            provider.install(self._make_telemetry)
            self._telemetry_installed = True
        for i in range(self.pool):
            t = threading.Thread(
                target=self._worker, name=f"campaign-worker-{i}", daemon=True
            )
            t.start()
            self._threads.append(t)
        self._recover()

    def stop(self, wait: bool = True) -> None:
        """Graceful shutdown: finish nothing new, join the pool.

        In-flight campaigns are *not* interrupted mid-run (their
        journals make even a hard kill recoverable); queued jobs stay
        spooled for the next start.
        """
        self._stopping = True
        for _ in self._threads:
            self._queue.put(None)
        if wait:
            for t in self._threads:
                t.join()
        if self._telemetry_installed:
            from repro.obs import provider

            provider.uninstall()
            self._telemetry_installed = False
        if self._file_exporter is not None:
            self._file_exporter.close()
            self._file_exporter = None

    def _make_telemetry(self):
        """Telemetry factory: bind new simulations to the running job's bus."""
        bus = getattr(self._tl, "bus", None)
        if bus is None:
            return None
        from repro.obs import Telemetry

        label = getattr(self._tl, "label", "")
        exporters: list = [_BusExporter(bus)]
        if self._file_exporter is not None:
            exporters.append(self._file_exporter)
        return Telemetry(
            window=self.telemetry_window,
            exporters=exporters,
            label=label,
        )

    # -- submission ------------------------------------------------------

    def submit(self, doc: dict) -> tuple[CampaignJob, bool]:
        """Validate and enqueue a campaign document.

        Returns ``(job, created)``; ``created`` is ``False`` when a job
        with the same content digest already exists (idempotent
        resubmission — the existing job, whatever its state, is the
        answer).  Raises
        :class:`repro.campaign.CampaignValidationError` on a document
        that fails structural validation (scenarios with *semantic*
        issues are accepted and quarantined at run time, matching
        ``repro campaign``'s default).
        """
        spec = compile_campaign(doc)
        job_id = spec.digest()
        with self._lock:
            existing = self._jobs.get(job_id)
            if existing is not None:
                return existing, False
            job = CampaignJob(id=job_id, spec=spec)
            self._jobs[job_id] = job
        self._spool(job)
        self._queue.put(job_id)
        return job, True

    def get(self, job_id: str) -> CampaignJob | None:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[CampaignJob]:
        with self._lock:
            return sorted(self._jobs.values(), key=lambda j: j.submitted_at)

    def counts(self) -> dict[str, int]:
        with self._lock:
            snapshot = list(self._jobs.values())
        return {state: sum(1 for j in snapshot if j.status == state)
                for state in STATES}

    # -- spool / recovery ------------------------------------------------

    def _job_dir(self, job_id: str) -> Path | None:
        if self.state_dir is None:
            return None
        return self.state_dir / "jobs" / job_id

    def _spool(self, job: CampaignJob) -> None:
        jdir = self._job_dir(job.id)
        if jdir is None:
            return
        jdir.mkdir(parents=True, exist_ok=True)
        # The canonical (expanded) document, not the raw submission:
        # recovery recompiles it to the identical spec/digest.
        (jdir / "campaign.json").write_text(
            json.dumps(dump_campaign(job.spec), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    def _recover(self) -> None:
        """Re-enqueue spooled jobs that never produced a result."""
        if self.state_dir is None:
            return
        jobs_root = self.state_dir / "jobs"
        if not jobs_root.is_dir():
            return
        for jdir in sorted(jobs_root.iterdir()):
            doc_path = jdir / "campaign.json"
            if not doc_path.is_file():
                continue
            try:
                spec = compile_campaign(
                    json.loads(doc_path.read_text(encoding="utf-8"))
                )
            except Exception:  # repro: noqa[RPR013] -- spool rescan is best-effort: a foreign/corrupt entry must not block recovery of the valid ones
                continue
            job_id = spec.digest()
            with self._lock:
                if job_id in self._jobs:
                    continue
                job = CampaignJob(id=job_id, spec=spec)
                self._jobs[job_id] = job
            result_path = jdir / "result.json"
            if result_path.is_file():
                try:
                    result = wire.load_campaign_result(
                        json.loads(result_path.read_text(encoding="utf-8"))
                    )
                except (ValueError, OSError):
                    self._queue.put(job_id)  # unreadable result: re-run
                    continue
                job.result = result
                job.status = "done"
                job.events.close()
            else:
                # Interrupted mid-campaign (or never started): re-run
                # against its journal — completed scenarios replay.
                self._queue.put(job_id)

    # -- execution -------------------------------------------------------

    def _worker(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None:
                return
            job = self.get(job_id)
            if job is None or job.status not in ("queued",):
                continue
            self._run_job(job)

    def _run_job(self, job: CampaignJob) -> None:
        job.status = "running"
        bus = job.events
        bus.publish({
            "event": "campaign-started",
            "job": job.id,
            "campaign": job.spec.name,
            "seed": job.spec.seed,
            "scenarios": len(job.spec.scenarios),
        })

        def progress(name: str, outcome) -> None:
            bus.publish({
                "event": "scenario-finished",
                "job": job.id,
                "scenario": name,
                "status": outcome.status,
                "attempts": outcome.attempts,
                "from_journal": outcome.from_journal,
            })

        jdir = self._job_dir(job.id)
        checkpoint = None if jdir is None else jdir / "journal.jsonl"
        self._tl.bus = bus
        self._tl.label = f"{job.spec.name}@{job.id}"
        try:
            result = run_campaign(
                job.spec,
                workers=self.workers,
                checkpoint=checkpoint,
                progress=progress,
            )
        except Exception as exc:
            job.status = "failed"
            job.error = f"{type(exc).__name__}: {exc}"
            job.finished_at = time.time()
            bus.publish({"event": "campaign-failed", "job": job.id,
                         "error": job.error})
            bus.close()
            return
        finally:
            self._tl.bus = None
            self._tl.label = ""

        job.result = result
        job.status = "done"
        job.finished_at = time.time()
        if jdir is not None:
            wire.dump(result, jdir / "result.json")
        for q in result.quarantined:
            if q.reason == "invalid-config":
                bus.publish({
                    "event": "scenario-quarantined",
                    "job": job.id,
                    "scenario": q.name,
                    "reason": q.reason,
                    "detail": q.detail,
                })
        bus.publish({
            "event": "campaign-finished",
            "job": job.id,
            "status": "done",
            "ok": result.ok,
            "succeeded": len(result.runs),
            "quarantined": len(result.quarantined),
            "fingerprint": result.fingerprint(),
        })
        bus.close()
