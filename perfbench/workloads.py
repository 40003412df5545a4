"""The benchmark's three workloads.

Each workload runs one fixed unit of work per :meth:`iteration`:

* ``fig7`` -- one ``fig7_cutoff_utilizations`` figure: four cloud
  placements x the 13-point utilization grid on the auto-selected
  fastsim engine.  It leaves the event engine idle.
* ``fig7-des`` -- one sweep of the typical-cloud (24 ms) placement on
  the event engine, on the three grid points around the predicted
  crossover, at the figure's requests per site.  An engine-only change
  shows here and not in ``fig7``.
* ``campaign-service`` -- one golden campaign job through an in-process
  ``repro.service`` server: ``POST`` -> SSE until ``stream-closed`` ->
  ``GET`` result.  It is the only workload that reaches campaign
  validation, supervision, the journal, the schema and HTTP/SSE.

All load comes from this one process: comparator and campaign
``workers=1``, service ``pool=1``, and one client with one connection
open at a time.  Every iteration records its own wall time, the time to
its first partial result, its counted operations and its correctness
checks.
"""

from __future__ import annotations

import contextlib
import copy
import http.client
import json
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from spans import Target

__all__ = ["Check", "Iteration", "WORKLOADS", "make_workload"]

#: Requests per site per sweep point in both figure workloads.  A third
#: of ``FAST``'s 30 000, so that a run holds several units of work: CPU
#: speed on a shared host drifts by tens of percent over seconds, and a
#: median over several units resists that where one long unit does not.
REQUESTS_PER_SITE = 10_000
#: Allowed distance between a measured mean cutoff and the analytic one
#: (seeds 1-12 stay within 0.03 at this sizing).
FIG7_TOLERANCE = 0.05
#: The event engine sweeps three points, so its crossover is coarser
#: (seeds 1-12 stay within 0.035).
FIG7_DES_TOLERANCE = 0.07
#: Utilization points of the ``fig7`` grid (``np.arange(0.15, 0.97,
#: 0.0665)``) that bracket the typical-cloud crossover (~0.63).
FIG7_DES_UTILIZATIONS = (0.549, 0.6155, 0.682)
#: ``repro serve`` default telemetry window, virtual seconds.
SERVICE_TELEMETRY_WINDOW = 5.0
GOLDEN_SEED = 2021


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Iteration:
    """One unit of work: its timings, operation counts and checks."""

    wall_s: float
    first_result_s: float
    requests: int
    attempted: int
    failed: int = 0
    checks: list[Check] = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    #: Host-speed scale of the unit's times (see ``speed.py``).
    scale: float = 1.0


def _first_end(tracer, start: float) -> float:
    ends = [s.end for s in tracer.spans if s.parent is None]
    return (min(ends) - start) if ends else float("nan")


class _Figure:
    """A figure workload: set-up is construction, checks run per iteration."""

    trace_iterations = 1

    @contextlib.contextmanager
    def session(self):
        yield self

    def check(self, it: Iteration) -> None:
        pass


class Fig7(_Figure):
    """``fig7_cutoff_utilizations`` on the fastsim engine."""

    name = "fig7"
    #: The first partial result a user sees: one placement's sweep.
    first_result_target = Target(
        "repro.core.comparator", "EdgeCloudComparator.sweep", "first-result",
        count=lambda args, kwargs, result, mark: len(result.points),
    )

    def __init__(self, root: Path, seed: int, workdir: Path):
        from repro.core.comparator import EdgeCloudComparator
        from repro.core.scenarios import PAPER_SCENARIOS
        from repro.experiments.config import FAST

        self.seed = seed
        self.config = replace(FAST, requests_per_site=REQUESTS_PER_SITE, seed=seed,
                              workers=1, checkpoint=None, resume=False)
        self.predicted = [
            EdgeCloudComparator(s).predict_cutoff_utilization() for s in PAPER_SCENARIOS
        ]
        # Per sweep point: edge and cloud each serve every site's requests.
        self.requests_per_point = [
            2 * s.sites * self.config.requests_per_site for s in PAPER_SCENARIOS
        ]

    def warm_up(self) -> None:
        from repro.core.comparator import EdgeCloudComparator
        from repro.core.scenarios import TYPICAL_CLOUD

        EdgeCloudComparator(TYPICAL_CLOUD, requests_per_site=2000, seed=self.seed) \
            .measure_point(TYPICAL_CLOUD.rate_for_utilization(0.5))

    def iteration(self, k: int, probe) -> Iteration:
        from repro.experiments.figures import fig7_cutoff_utilizations

        probe.spans.clear()
        t0 = time.perf_counter()
        result = fig7_cutoff_utilizations(self.config)
        wall = time.perf_counter() - t0
        points = [s.n for s in probe.spans if s.name == "first-result"]
        it = Iteration(
            wall_s=wall,
            first_result_s=_first_end(probe, t0),
            requests=sum(n * r for n, r in zip(points, self.requests_per_point)),
            attempted=sum(points),
        )
        for rtt, mean, tail, pred in zip(result.rtts_ms, result.mean_cutoff,
                                         result.tail_cutoff, self.predicted, strict=True):
            it.checks.append(Check(
                f"fig7 {rtt:g} ms mean cutoff near prediction",
                mean is not None and abs(mean - pred) <= FIG7_TOLERANCE,
                f"measured {mean}, predicted {pred:.4f}, tolerance {FIG7_TOLERANCE}",
            ))
            it.checks.append(Check(
                f"fig7 {rtt:g} ms p95 cutoff <= mean cutoff",
                mean is not None and tail is not None and tail <= mean,
                f"p95 {tail}, mean {mean}",
            ))
        it.extra = {"mean_cutoff": list(result.mean_cutoff),
                    "tail_cutoff": list(result.tail_cutoff)}
        return it


class Fig7Des(_Figure):
    """The typical-cloud placement of ``fig7`` through the event engine."""

    name = "fig7-des"
    first_result_target = Target(
        "repro.core.comparator", "EdgeCloudComparator.measure_point", "first-result",
    )

    def __init__(self, root: Path, seed: int, workdir: Path):
        from repro.core.comparator import EdgeCloudComparator
        from repro.core.scenarios import PAPER_SCENARIOS, TYPICAL_CLOUD
        from repro.parallel.seeding import derive_seed

        scenario = TYPICAL_CLOUD
        # fig7 seeds each placement with derive_seed(seed, its index).
        index = PAPER_SCENARIOS.index(scenario)
        self.seed = seed
        self.comparator = EdgeCloudComparator(
            scenario,
            requests_per_site=REQUESTS_PER_SITE,
            seed=derive_seed(seed, index),
            engine="des",
        )
        self.rates = [scenario.rate_for_utilization(u) for u in FIG7_DES_UTILIZATIONS]
        self.predicted = self.comparator.predict_cutoff_utilization()
        self.requests_per_point = 2 * scenario.sites * REQUESTS_PER_SITE

    def warm_up(self) -> None:
        from repro.core.comparator import EdgeCloudComparator

        EdgeCloudComparator(self.comparator.scenario, requests_per_site=500,
                            seed=self.seed, engine="des").measure_point(self.rates[0])

    def iteration(self, k: int, probe) -> Iteration:
        probe.spans.clear()
        t0 = time.perf_counter()
        result = self.comparator.sweep(self.rates, workers=1)
        wall = time.perf_counter() - t0
        mean = result.crossover_utilization("mean")
        it = Iteration(
            wall_s=wall,
            first_result_s=_first_end(probe, t0),
            requests=len(result.points) * self.requests_per_point,
            attempted=len(result.points),
        )
        it.checks.append(Check(
            "fig7-des mean cutoff brackets the prediction",
            mean is not None and abs(mean - self.predicted) <= FIG7_DES_TOLERANCE,
            f"measured {mean}, predicted {self.predicted:.4f}, "
            f"tolerance {FIG7_DES_TOLERANCE}",
        ))
        it.extra = {"mean_cutoff": mean}
        return it


class _Client:
    """One HTTP client; each request opens and closes its own connection."""

    def __init__(self, port: int):
        self.port = port

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)

    def request(self, method: str, path: str, doc: dict | None = None) -> tuple[int, dict]:
        conn = self._connect()
        try:
            body = None if doc is None else json.dumps(doc).encode("utf-8")
            headers = {} if body is None else {"Content-Type": "application/json"}
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read())
        finally:
            conn.close()

    def stream(self, path: str, t0: float) -> dict:
        """Read an SSE stream to ``stream-closed``; count events and bytes."""
        conn = self._connect()
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            events, nbytes, first, closed = 0, 0, None, False
            while True:
                line = resp.readline()
                if not line:
                    break
                nbytes += len(line)
                if not line.startswith(b"event: "):
                    continue
                name = line[7:].strip()
                events += 1
                if name == b"scenario-finished" and first is None:
                    first = time.perf_counter() - t0
                if name == b"stream-closed":
                    closed = True
                    break
            return {"status": resp.status, "events": events, "bytes": nbytes,
                    "first": float("nan") if first is None else first, "closed": closed}
        finally:
            conn.close()


class CampaignService:
    """The golden campaign, one job at a time, through ``repro.service``."""

    name = "campaign-service"
    #: Jobs per pass in a traced run.
    trace_iterations = 6
    first_result_target = None

    def __init__(self, root: Path, seed: int, workdir: Path):
        from repro.campaign import compile_campaign
        from repro.campaign.golden import load_golden
        from repro.campaign.loader import parse_document
        from repro.workload.service import DNNInferenceModel

        golden = root / "scenarios" / "golden"
        self.doc, _ = parse_document(
            (golden / "campaign.yaml").read_text(encoding="utf-8"), fmt="yaml"
        )
        self.expected = load_golden(golden / "expected.json")
        self.spec = compile_campaign(self.doc)
        self.seed = seed
        self.workdir = workdir
        self.requests_per_job = round(sum(
            2 * s.sites * s.duration * (
                s.rate_per_site if s.rate_per_site is not None
                else s.implied_utilization * s.machines_per_site
                * DNNInferenceModel(cv2=s.service_cv2).saturation_rate
            )
            for s in self.spec.scenarios
        ))
        self.direct: dict[int, object] = {}
        self._client: _Client | None = None

    def document(self, seed: int) -> dict:
        """The golden campaign document under campaign seed ``seed``."""
        doc = copy.deepcopy(self.doc)
        doc["seed"] = seed
        return doc

    @contextlib.contextmanager
    def session(self):
        """A fresh server with its state dir on local disk, stopped on exit."""
        from repro.service import JobManager, create_server

        state = Path(tempfile.mkdtemp(prefix="service-", dir=self.workdir))
        manager = JobManager(state, pool=1, workers=1,
                             telemetry_window=SERVICE_TELEMETRY_WINDOW)
        server = create_server("127.0.0.1", 0, manager)
        thread = threading.Thread(target=server.serve_forever, name="bench-http")
        thread.start()
        try:
            self._client = _Client(server.server_address[1])
            status, _ = self._client.request("GET", "/v1/healthz")
            if status != 200:
                raise RuntimeError(f"service health check answered {status}")
            yield self
        finally:
            self._client = None
            server.shutdown()
            thread.join()
            server.server_close()
            manager.stop(wait=True)
            shutil.rmtree(state, ignore_errors=True)

    def warm_up(self) -> None:
        self.iteration(-1, None)

    def iteration(self, k: int, probe) -> Iteration:
        client = self._client
        doc = self.document(self.seed + k)
        t0 = time.perf_counter()
        status, job = client.request("POST", "/v1/campaigns", doc)
        ok_post = status == 201
        sse = client.stream(f"/v1/campaigns/{job.get('id')}/events", t0)
        status_get, final = client.request("GET", f"/v1/campaigns/{job.get('id')}")
        wall = time.perf_counter() - t0
        failed = (not ok_post) + (sse["status"] != 200 or not sse["closed"]) \
            + (status_get != 200 or final.get("status") != "done")
        return Iteration(
            wall_s=wall,
            first_result_s=sse["first"],
            requests=self.requests_per_job,
            attempted=3 + len(self.spec.scenarios),
            failed=failed,
            extra={"seed": doc["seed"], "sse_events": sse["events"],
                   "sse_bytes": sse["bytes"], "result": final.get("result")},
        )

    def run_direct(self, seed: int):
        """``run_campaign`` in-process: no telemetry, no journal."""
        import repro.campaign.runner as runner
        from repro.campaign import compile_campaign

        if seed not in self.direct:
            spec = compile_campaign(self.document(seed))
            self.direct[seed] = runner.run_campaign(spec, workers=1)
        return self.direct[seed]

    def check(self, it: Iteration) -> None:
        """Compare a job's served result with a direct run (and the golden file)."""
        from repro.campaign.golden import diff_golden
        from repro.experiments import schema

        seed = it.extra["seed"]
        doc = it.extra.pop("result", None)
        if doc is None:
            it.checks.append(Check(f"job seed {seed} returned a result", False))
            it.failed += len(self.spec.scenarios)
            return
        served = schema.load_campaign_result(doc)
        direct = self.run_direct(seed)
        it.failed += len(self.spec.scenarios) - len(served.runs)
        it.checks.append(Check(
            f"job seed {seed}: no scenario quarantined",
            not served.quarantined,
            ", ".join(f"{q.name} ({q.reason})" for q in served.quarantined),
        ))
        it.checks.append(Check(
            f"job seed {seed}: fingerprint equals a direct run_campaign",
            served.fingerprint() == direct.fingerprint(),
            f"served {served.fingerprint()[:12]}, direct {direct.fingerprint()[:12]}",
        ))
        if seed == GOLDEN_SEED:
            drifts = diff_golden(served, self.expected, self.spec.tolerance)
            it.checks.append(Check(
                "golden job matches scenarios/golden/expected.json",
                not drifts,
                "; ".join(d.render() for d in drifts[:3]),
            ))


WORKLOADS = {w.name: w for w in (Fig7, Fig7Des, CampaignService)}


def make_workload(name: str, root: Path, seed: int, workdir: Path):
    return WORKLOADS[name](root, seed, workdir)
