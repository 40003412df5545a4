"""Campaign service: event bus, job manager, HTTP/SSE, kill -9 resume.

The acceptance spine: POST a campaign, stream it over SSE from two
concurrent clients, and the fetched fingerprint must be bit-identical
to ``run_campaign`` on the same document — then kill the server dead
mid-campaign and a restarted one must resume from its journal to the
same fingerprint.
"""

import contextlib
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import repro.service.jobs as jobs
from repro.campaign import compile_campaign, run_campaign
from repro.obs import validate_record
from repro.service import CampaignJob, EventBus, JobManager, create_server

REPO = Path(__file__).resolve().parents[2]


def tiny_doc(**overrides):
    doc = {
        "campaign": "svc-t",
        "seed": 13,
        "defaults": {"duration": 4.0, "sites": 1},
        "scenarios": [
            {"name": "s0", "utilization": 0.4},
            {"name": "s1", "utilization": 0.6},
        ],
        "budgets": {"retries": 0},
    }
    doc.update(overrides)
    return doc


def wait_until(predicate, timeout=60.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


# ---------------------------------------------------------------------------
# EventBus
# ---------------------------------------------------------------------------


#: The frame every SSE stream ends with once its job's bus is closed.
STREAM_CLOSED = b'event: stream-closed\ndata: {"event": "stream-closed"}\n\n'


def sse_frame(event):
    """An event's SSE frame, encoded the way the handler always wrote it."""
    name = event.get("event", "message")
    data = json.dumps(event, sort_keys=True)
    return f"event: {name}\ndata: {data}\n\n".encode()


def decode(frames):
    """The events carried by SSE frames, checking each frame's shape."""
    events = []
    for frame in frames:
        name, data, *rest = frame.decode("utf-8").split("\n")
        assert rest == ["", ""], frame
        assert name.startswith("event: ") and data.startswith("data: "), frame
        event = json.loads(data[len("data: "):])
        assert name[len("event: "):] == event.get("event", "message"), frame
        events.append(event)
    return events


class TestEventBus:
    def test_cursor_reads_see_everything_in_order(self):
        bus = EventBus()
        for i in range(5):
            bus.publish({"event": "e", "i": i})
        frames, cursor, closed = bus.read(0, timeout=0)
        assert [e["i"] for e in decode(frames)] == [0, 1, 2, 3, 4]
        assert cursor == 5 and not closed
        bus.publish({"event": "e", "i": 5})
        frames, cursor, closed = bus.read(cursor, timeout=0)
        assert [e["i"] for e in decode(frames)] == [5]

    def test_two_readers_see_identical_streams(self):
        bus = EventBus()
        seen = [[], []]

        def reader(idx):
            cursor = 0
            while True:
                frames, cursor, closed = bus.read(cursor, timeout=5)
                seen[idx].extend(frames)
                if closed and not frames:
                    return

        threads = [threading.Thread(target=reader, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for i in range(20):
            bus.publish({"event": "e", "i": i})
        bus.close()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        assert seen[0] == seen[1]
        assert [e["i"] for e in decode(seen[0])] == list(range(20))

    def test_overflow_inserts_truncation_marker(self):
        bus = EventBus(history_limit=3)
        for i in range(10):
            bus.publish({"event": "e", "i": i})
        frames, _, _ = bus.read(0, timeout=0)
        events = decode(frames)
        assert events[0]["event"] == "truncated"
        assert events[0]["dropped"] == 7
        assert [e["i"] for e in events[1:]] == [7, 8, 9]

    def test_closed_bus_refuses_publish(self):
        bus = EventBus()
        bus.close()
        with pytest.raises(RuntimeError):
            bus.publish({"event": "e"})

    def test_frames_are_the_per_event_encoding(self):
        events = [
            {"event": "scenario-finished", "scenario": "grid/rtt=typical",
             "attempts": 1, "from_journal": False},
            {"event": "telemetry-window",
             "record": {"stations": {"edge-0": {"busy": 0.25, "queue": [1, 2]}},
                        "p95": None, "label": "golden@abc"}},
            {"event": "note", "text": "Zürich — 東京 ✓", "ms": 1e-3},
            {"no": "event key", "nested": {"b": 2, "a": 1}},
        ]
        bus = EventBus()
        for event in events:
            bus.publish(event)
        frames, _, _ = bus.read(0, timeout=0)
        assert frames == [sse_frame(event) for event in events]
        assert frames[-1].startswith(b"event: message\n")
        assert decode(frames) == events

    def test_truncation_marker_is_a_frame(self):
        bus = EventBus(history_limit=3)
        for i in range(10):
            bus.publish({"event": "e", "i": i})
        kept = [sse_frame({"event": "e", "i": i}) for i in (7, 8, 9)]
        for cursor, dropped in ((0, 7), (5, 2)):
            frames, next_cursor, _ = bus.read(cursor, timeout=0)
            marker = sse_frame({"event": "truncated", "dropped": dropped})
            assert frames == [marker, *kept]
            assert next_cursor == 10
        frames, _, _ = bus.read(7, timeout=0)
        assert frames == kept

    def test_unencodable_event_raises_in_publish(self):
        bus = EventBus()
        bus.publish({"event": "e", "i": 0})
        cyclic = {"event": "e"}
        cyclic["self"] = cyclic
        with pytest.raises(TypeError):
            bus.publish({"event": "e", "value": object()})
        with pytest.raises(ValueError):
            bus.publish(cyclic)
        frames, cursor, closed = bus.read(0, timeout=0)
        assert frames == [sse_frame({"event": "e", "i": 0})]
        assert cursor == 1 and not closed
        assert bus.publish({"event": "e", "i": 1}) == 1


# ---------------------------------------------------------------------------
# JobManager
# ---------------------------------------------------------------------------


class TestJobManager:
    def test_submit_run_and_describe(self):
        mgr = JobManager(pool=1)
        mgr.start()
        try:
            job, created = mgr.submit(tiny_doc())
            assert created and isinstance(job, CampaignJob)
            assert job.id == compile_campaign(tiny_doc()).digest()
            assert wait_until(lambda: job.status == "done")
            doc = job.describe()
            assert doc["kind"] == "campaign-job"
            assert doc["schema_version"] == 1
            assert doc["result"]["fingerprint"] == job.result.fingerprint()
        finally:
            mgr.stop()

    def test_resubmission_is_idempotent(self):
        mgr = JobManager(pool=1)
        mgr.start()
        try:
            job1, created1 = mgr.submit(tiny_doc())
            job2, created2 = mgr.submit(tiny_doc())
            assert created1 and not created2
            assert job1 is job2
        finally:
            mgr.stop()

    def test_done_job_recovers_from_spool_without_rerun(self, tmp_path):
        mgr = JobManager(tmp_path, pool=1)
        mgr.start()
        job, _ = mgr.submit(tiny_doc())
        assert wait_until(lambda: job.status == "done")
        fingerprint = job.result.fingerprint()
        mgr.stop()

        # Corrupt-proof: a fresh manager must load the result, not re-run.
        result_file = tmp_path / "jobs" / job.id / "result.json"
        assert result_file.is_file()
        mtime = result_file.stat().st_mtime_ns
        mgr2 = JobManager(tmp_path, pool=1)
        mgr2.start()
        try:
            recovered = mgr2.get(job.id)
            assert recovered is not None
            assert wait_until(lambda: recovered.status == "done")
            assert recovered.result.fingerprint() == fingerprint
            assert result_file.stat().st_mtime_ns == mtime
        finally:
            mgr2.stop()

    def test_unfinished_job_resumes_from_journal(self, tmp_path):
        mgr = JobManager(tmp_path, pool=1)
        mgr.start()
        job, _ = mgr.submit(tiny_doc())
        assert wait_until(lambda: job.status == "done")
        fingerprint = job.result.fingerprint()
        mgr.stop()

        # Simulate a crash after the journal was written but before the
        # result landed: the restarted manager re-runs against the
        # journal and must fingerprint identically.
        jdir = tmp_path / "jobs" / job.id
        (jdir / "result.json").unlink()
        assert (jdir / "journal.jsonl").is_file()
        mgr2 = JobManager(tmp_path, pool=1)
        mgr2.start()
        try:
            resumed = mgr2.get(job.id)
            assert wait_until(lambda: resumed.status == "done")
            assert resumed.result.fingerprint() == fingerprint
        finally:
            mgr2.stop()

    def test_telemetry_with_fanout_refused_at_start(self):
        from repro.obs.provider import TelemetryFanoutError

        mgr = JobManager(pool=1, workers=2, telemetry_window=5.0)
        with pytest.raises(TelemetryFanoutError, match="mutually exclusive"):
            mgr.start()
        # The guard raises both flavors callers match on.
        assert issubclass(TelemetryFanoutError, ValueError)
        assert issubclass(TelemetryFanoutError, RuntimeError)

    @pytest.mark.parametrize("window", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_telemetry_window_refused(self, window):
        with pytest.raises(ValueError, match="telemetry_window must be finite and > 0"):
            JobManager(pool=1, telemetry_window=window)

    def test_telemetry_path_requires_window(self, tmp_path):
        with pytest.raises(ValueError, match="telemetry_path requires telemetry_window"):
            JobManager(pool=1, telemetry_path=str(tmp_path / "t.jsonl"))

    def test_validation_error_propagates(self):
        from repro.campaign import CampaignValidationError

        mgr = JobManager(pool=1)
        mgr.start()
        try:
            with pytest.raises(CampaignValidationError):
                mgr.submit({"campaign": "bad"})
        finally:
            mgr.stop()


def test_run_campaign_refuses_installed_telemetry_with_fanout():
    from repro import obs
    from repro.obs.provider import TelemetryFanoutError

    spec = compile_campaign(tiny_doc())
    with obs.installed(lambda: obs.Telemetry(window=5.0)):
        with pytest.raises(TelemetryFanoutError, match="mutually exclusive"):
            run_campaign(spec, workers=2)


# ---------------------------------------------------------------------------
# HTTP + SSE (in-process server)
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def serving(mgr):
    """An in-process server around ``mgr``; yields its base URL."""
    srv = create_server("127.0.0.1", 0, mgr)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    host, port = srv.server_address[:2]
    try:
        yield f"http://{host}:{port}"
    finally:
        srv.shutdown()
        thread.join(timeout=10)
        srv.server_close()
        mgr.stop()


@pytest.fixture()
def server():
    with serving(JobManager(pool=1, telemetry_window=2.0)) as url:
        yield url


def http_get(url):
    with urllib.request.urlopen(url) as resp:
        return resp.status, json.loads(resp.read())


def http_post(url, doc):
    req = urllib.request.Request(
        url, data=json.dumps(doc).encode(), method="POST"
    )
    try:
        with urllib.request.urlopen(req) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def sse_events(url, out):
    """Collect (event-name, data) pairs until the stream closes."""
    with urllib.request.urlopen(url) as resp:
        name = None
        for raw in resp:
            line = raw.decode("utf-8").rstrip("\n")
            if line.startswith("event: "):
                name = line[len("event: "):]
            elif line.startswith("data: "):
                out.append((name, json.loads(line[len("data: "):])))
                if name == "stream-closed":
                    return


class TestHTTP:
    def test_healthz_and_experiments(self, server):
        status, body = http_get(server + "/v1/healthz")
        assert status == 200 and body["status"] == "ok"
        status, body = http_get(server + "/v1/experiments")
        assert status == 200
        names = {e["name"] for e in body["experiments"]}
        assert "validation" in names

    def test_unknown_routes_and_jobs_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            http_get(server + "/v1/nope")
        assert err.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as err:
            http_get(server + "/v1/campaigns/deadbeef00000000")
        assert err.value.code == 404

    def test_invalid_document_is_422_with_issues(self, server):
        status, body = http_post(server + "/v1/campaigns", {"campaign": "x"})
        assert status == 422
        assert body["issues"]
        assert body["exit_code"] in (3, 4, 5)

    def test_post_stream_fetch_matches_direct_run(self, server):
        doc = tiny_doc(campaign="svc-http")
        status, body = http_post(server + "/v1/campaigns", doc)
        assert status == 201
        job_id = body["id"]

        # Two concurrent SSE clients, attached while the job runs.
        streams = ([], [])
        url = server + f"/v1/campaigns/{job_id}/events"
        threads = [
            threading.Thread(target=sse_events, args=(url, out))
            for out in streams
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads), "SSE stream never closed"

        # Identical ordered streams for both clients.
        assert streams[0] == streams[1]
        names = [name for name, _ in streams[0]]
        assert names[0] == "campaign-started"
        assert names[-2:] == ["campaign-finished", "stream-closed"]
        assert names.count("scenario-finished") == 2
        assert "telemetry-window" in names  # obs bridged onto the bus
        summaries = [d for n, d in streams[0] if n == "telemetry-summary"]
        assert all(s["record"]["schema_version"] == 1 for s in summaries)
        for name, data in streams[0]:
            if name in ("telemetry-window", "telemetry-summary"):
                validate_record(data["record"])

        # Idempotent re-POST returns the same (now finished) job.
        status, body = http_post(server + "/v1/campaigns", doc)
        assert status == 200 and body["id"] == job_id

        status, body = http_get(server + f"/v1/campaigns/{job_id}")
        assert status == 200 and body["status"] == "done"
        direct = run_campaign(compile_campaign(doc), workers=1)
        assert body["result"]["fingerprint"] == direct.fingerprint()

        status, body = http_get(server + "/v1/campaigns")
        assert status == 200 and len(body["jobs"]) == 1

    def test_late_reader_receives_the_live_readers_bytes(self, monkeypatch):
        """A golden job's stream is the same bytes for a reader attached
        before the campaign ran and one attached after the job closed:
        the bus's frames, joined, then ``stream-closed``."""
        from repro.campaign.loader import parse_document

        pytest.importorskip("yaml")  # the golden campaign is a YAML file
        text = (REPO / "scenarios" / "golden" / "campaign.yaml").read_text(encoding="utf-8")
        doc, _ = parse_document(text, fmt="yaml")
        attached = threading.Event()
        run = jobs.run_campaign

        def run_once_attached(*args, **kwargs):
            assert attached.wait(60), "the live reader never attached"
            return run(*args, **kwargs)

        monkeypatch.setattr(jobs, "run_campaign", run_once_attached)
        mgr = JobManager(pool=1, telemetry_window=5.0)
        with serving(mgr) as url:
            status, body = http_post(url + "/v1/campaigns", doc)
            assert status == 201
            events_url = url + f"/v1/campaigns/{body['id']}/events"
            with urllib.request.urlopen(events_url, timeout=120) as resp:
                live = b"".join(resp.readline() for _ in range(3))
                attached.set()  # campaign-started arrived; now run the campaign
                live += resp.read()
            with urllib.request.urlopen(events_url, timeout=120) as resp:
                late = resp.read()
            frames, _, closed = mgr.get(body["id"]).events.read(0, timeout=0)
        assert closed
        assert live == late == b"".join(frames) + STREAM_CLOSED
        names = [event["event"] for event in decode(frames)]
        assert names[0] == "campaign-started" and names[-1] == "campaign-finished"
        assert "telemetry-window" in names

    def test_malformed_bodies_rejected(self, server):
        status, body = http_post(server + "/v1/campaigns", [1, 2, 3])
        assert status == 400
        req = urllib.request.Request(
            server + "/v1/campaigns", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req)
        assert err.value.code == 400


# ---------------------------------------------------------------------------
# kill -9 resume (subprocess server)
# ---------------------------------------------------------------------------


class TestKillResume:
    def _start_server(self, state_dir, log_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        log = open(log_path, "ab")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--state-dir", str(state_dir)],
            stdout=log, stderr=log, env=env, cwd=str(REPO),
        )
        try:
            assert wait_until(
                lambda: re.search(
                    rb"listening on (http://[0-9.]+:\d+)",
                    Path(log_path).read_bytes(),
                ),
                timeout=60,
            ), "server never announced its address"
        except Exception:
            proc.kill()
            raise
        finally:
            log.close()
        match = re.search(
            rb"listening on (http://[0-9.]+:\d+)", Path(log_path).read_bytes()
        )
        return proc, match.group(1).decode()

    def test_kill9_restart_resumes_to_identical_fingerprint(self, tmp_path):
        doc = tiny_doc(
            campaign="svc-kill",
            defaults={"duration": 12.0, "sites": 1},
            scenarios=[
                {"name": f"s{i}", "utilization": 0.3 + 0.1 * i}
                for i in range(4)
            ],
        )
        state_dir = tmp_path / "state"
        proc, base = self._start_server(state_dir, tmp_path / "server1.log")
        try:
            status, body = http_post(base + "/v1/campaigns", doc)
            assert status == 201
            job_id = body["id"]
            journal = state_dir / "jobs" / job_id / "journal.jsonl"
            # Wait for at least one scenario to land in the journal, then
            # kill the server dead — no shutdown handler runs on SIGKILL.
            assert wait_until(
                lambda: journal.is_file() and journal.stat().st_size > 0,
                timeout=120,
            ), "no scenario journaled before timeout"
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)

        result_file = state_dir / "jobs" / job_id / "result.json"
        interrupted_mid_run = not result_file.is_file()

        proc, base = self._start_server(state_dir, tmp_path / "server2.log")
        try:
            assert wait_until(
                lambda: http_get(base + f"/v1/campaigns/{job_id}")[1]["status"]
                in ("done", "failed"),
                timeout=300,
                interval=0.25,
            ), "restarted server never finished the job"
            status, body = http_get(base + f"/v1/campaigns/{job_id}")
            assert body["status"] == "done", body.get("error")
            fingerprint = body["result"]["fingerprint"]
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)

        direct = run_campaign(compile_campaign(doc), workers=1)
        assert fingerprint == direct.fingerprint()
        # The interesting path is resume-from-journal; if the campaign
        # happened to finish before the kill, the run above degraded to
        # the (still valid) recover-done-result path.
        assert interrupted_mid_run or result_file.is_file()
