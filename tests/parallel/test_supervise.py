"""Tests for the supervised executor: retries, timeouts, salvage, errors."""

import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.parallel import (
    ParallelTaskError,
    TaskOutcome,
    derive_seed,
    run_tasks,
    supervision_stats,
)
from repro.parallel.supervise import _retry_delay
from repro.experiments.store import RunJournal


def square(x):
    return x * x


def fail_on(x, bad):
    if x == bad:
        raise ValueError(f"poisoned task {x}")
    return x


def fail_until_marker(x, marker_dir):
    """Fail until a marker file exists for x, creating it on first call.

    Gives a task that fails exactly once and succeeds on retry, without
    any shared in-process state (a retry may run in another worker).
    """
    marker = os.path.join(marker_dir, f"seen-{x}")
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return x * 10
    os.close(fd)
    raise RuntimeError(f"transient failure for {x}")


def sleep_forever(x):
    time.sleep(60.0)
    return x


def stall_on(x, bad):
    """Task ``bad`` outlasts a 0.3 s timeout by far, yet ends if no one
    enforces it."""
    if x == bad:
        time.sleep(5.0)
    return x


def crash_hard(x):
    os._exit(41)


def crash_on(x, bad):
    if x == bad:
        os._exit(41)
    return x


def slow_square(x, delay):
    time.sleep(delay)
    return x * x


def pid_unless(x, bad):
    """The worker's pid; task ``bad`` crashes its worker instead."""
    if x == bad:
        os._exit(41)
    return os.getpid()


def pid_or_stall(x, bad):
    """The worker's pid; task ``bad`` stalls past any test timeout."""
    if x == bad:
        time.sleep(60.0)
    return os.getpid()


@pytest.fixture(autouse=True)
def _reset_stats():
    supervision_stats().reset()
    yield


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="retries must be >= 0"):
            run_tasks(square, [(1,)], retries=-1)
        with pytest.raises(ValueError, match="timeout must be > 0"):
            run_tasks(square, [(1,)], timeout=0.0)
        with pytest.raises(ValueError, match="timeout must be > 0"):
            run_tasks(square, [(1,)], workers=2, timeout=-1.0)

    def test_delay_is_deterministic_in_seed(self):
        assert _retry_delay(42, 5, 1) == _retry_delay(42, 5, 1)
        assert _retry_delay(42, 5, 1) != _retry_delay(42, 5, 2)
        assert _retry_delay(42, 5, 1) != _retry_delay(42, 6, 1)
        assert _retry_delay(42, 5, 1) != _retry_delay(43, 5, 1)
        # The schedule is pinned bit for bit: (base_seed, index, attempt).
        assert _retry_delay(2021, 3, 1) == 0.05532518336656383
        assert _retry_delay(2021, 3, 2) == 0.11292546723582114
        assert _retry_delay(None, 0, 8) == 6.099672421930378
        assert _retry_delay(7, 5, 12) == 5.365964060619936

    def test_delay_grows_and_caps(self):
        # Doubling from 0.05 s up to the 5 s cap (0.05 * 2**7 = 6.4 > 5).
        for attempt in range(1, 15):
            base = min(5.0, 0.05 * 2.0 ** (attempt - 1))
            assert base <= _retry_delay(0, 0, attempt) < 1.5 * base
        assert _retry_delay(0, 0, 7) < 5.0 <= _retry_delay(0, 0, 8) < 7.5

    def test_jitter_bounded(self):
        # Jitter stretches the first retry's 0.05 s by up to half, and
        # different tasks draw different stretches.
        ratios = [_retry_delay(7, i, 1) / 0.05 for i in range(200)]
        assert all(1.0 <= r < 1.5 for r in ratios)  # base .. base * (1 + jitter)
        assert max(ratios) - min(ratios) > 0.4


class TestSalvage:
    def test_outcome_envelopes_in_task_order(self):
        out = run_tasks(fail_on, [(i, 2) for i in range(5)], workers=2,
                        salvage=True, label="cell")
        assert [o.index for o in out] == list(range(5))
        assert all(isinstance(o, TaskOutcome) for o in out)
        assert [o.ok for o in out] == [True, True, False, True, True]
        bad = out[2]
        assert bad.status == "failed"
        assert "poisoned task 2" in bad.error
        assert "ValueError" in bad.traceback
        assert bad.attempts == 1 and bad.retried == 0

    def test_salvage_serial_matches_parallel(self):
        serial = run_tasks(square, [(i,) for i in range(6)], workers=1, salvage=True)
        par = run_tasks(square, [(i,) for i in range(6)], workers=3, salvage=True)
        assert [o.result for o in serial] == [o.result for o in par]

    def test_worker_crash_is_one_failure_not_the_batch(self):
        out = run_tasks(crash_on, [(i, 2) for i in range(5)], workers=2,
                        salvage=True)
        assert [o.ok for o in out] == [True, True, False, True, True]
        assert [o.result for o in out if o.ok] == [0, 1, 3, 4]
        assert "exit code 41" in out[2].error

    def test_crash_reports_exit_code(self):
        out = run_tasks(crash_hard, [(0,), (1,)], workers=2, salvage=True)
        assert all(not o.ok for o in out)
        assert "exit code 41" in out[0].error
        assert supervision_stats().crashes == 2

    def test_salvage_counts(self):
        run_tasks(fail_on, [(i, 1) for i in range(3)], workers=2, salvage=True)
        stats = supervision_stats()
        assert stats.completed == 2
        assert stats.failures == 1
        assert stats.salvaged == 1


class TestRetries:
    def test_transient_failure_recovers(self, tmp_path):
        out = run_tasks(
            fail_until_marker, [(i, str(tmp_path)) for i in range(3)],
            workers=2, retries=2, salvage=True, base_seed=9,
        )
        assert all(o.ok for o in out)
        assert [o.result for o in out] == [0, 10, 20]
        assert all(o.retried == 1 for o in out)
        assert supervision_stats().retries == 3

    def test_transient_failure_recovers_serial(self, tmp_path):
        out = run_tasks(
            fail_until_marker, [(i, str(tmp_path)) for i in range(3)],
            workers=1, retries=1, salvage=True,
        )
        assert all(o.ok and o.retried == 1 for o in out)

    def test_permanent_failure_exhausts_attempts(self):
        out = run_tasks(fail_on, [(2, 2), (3, 2)], workers=2, retries=2,
                        salvage=True)
        assert out[0].status == "failed"
        assert out[0].attempts == 3
        assert out[1].ok

    def test_retry_never_changes_a_successful_result(self, tmp_path):
        baseline = run_tasks(square, [(i,) for i in range(4)], workers=2)
        out = run_tasks(square, [(i,) for i in range(4)], workers=2,
                        retries=3, salvage=True, base_seed=123)
        assert [o.result for o in out] == baseline


class TestTimeout:
    def test_stalled_task_terminated(self):
        t0 = time.monotonic()
        out = run_tasks(sleep_forever, [(0,), (1,)], workers=2,
                        timeout=0.3, salvage=True)
        assert all(o.status == "timed-out" for o in out)
        assert "exceeded per-task timeout of 0.3s" in out[0].error
        assert time.monotonic() - t0 < 30.0
        assert supervision_stats().timeouts == 2

    def test_timeout_fail_fast_raises(self):
        with pytest.raises(ParallelTaskError, match="timed out"):
            run_tasks(sleep_forever, [(0,), (1,)], workers=2, timeout=0.3)

    def test_lone_task_timeout_enforced(self):
        """One task at workers=2 still runs in a worker, so a stall ends
        as timed-out instead of holding the caller."""
        t0 = time.monotonic()
        out = run_tasks(stall_on, [(0, 0)], workers=2, timeout=0.3, salvage=True)
        assert out[0].status == "timed-out"
        assert time.monotonic() - t0 < 4.0

    def test_resume_with_one_task_left_enforces_timeout(self, tmp_path):
        """A journal resume that leaves one task to run keeps its timeout."""
        tasks = [(i, 2) for i in range(3)]
        with RunJournal(tmp_path / "j", scope="lone") as journal:
            run_tasks(stall_on, tasks[:2], workers=2, journal=journal)
        with RunJournal(tmp_path / "j", scope="lone") as journal:
            t0 = time.monotonic()
            out = run_tasks(stall_on, tasks, workers=2, timeout=0.3,
                            salvage=True, journal=journal)
        assert [o.status for o in out] == ["ok", "ok", "timed-out"]
        assert [o.from_journal for o in out] == [True, True, False]
        assert time.monotonic() - t0 < 4.0

    def test_serial_timeout_warns_and_skips_enforcement(self):
        with pytest.warns(RuntimeWarning, match="not enforced") as record:
            out = run_tasks(square, [(2,), (3,)], workers=1,
                            timeout=0.001, salvage=True)
        assert [o.result for o in out] == [4, 9]
        assert record.pop(RuntimeWarning).filename == __file__  # names the caller


class TestEnrichedErrors:
    def test_error_names_args_and_seed(self):
        with pytest.raises(ParallelTaskError) as ei:
            run_tasks(fail_on, [(i, 2) for i in range(5)], workers=2,
                      retries=1, label="cell", base_seed=2021)
        msg = str(ei.value)
        assert "cell #2" in msg
        assert "(args=(2, 2)" in msg
        assert f"seed=derive_seed(2021, ...)={derive_seed(2021, 2)}" in msg
        assert "after 2 attempt(s)" in msg
        assert "poisoned task 2" in msg
        assert ei.value.task_index == 2
        assert ei.value.seed == derive_seed(2021, 2)

    def test_legacy_pool_error_names_seed_too(self):
        # A plain call (no supervision options) carries the same context.
        with pytest.raises(ParallelTaskError, match=r"cell #2 .*seed="):
            run_tasks(fail_on, [(i, 2) for i in range(5)], workers=2,
                      label="cell", base_seed=7)

    def test_long_args_truncated(self):
        big = "x" * 10_000
        out = run_tasks(fail_on, [(big, big)], workers=2, salvage=True)
        assert len(out[0].args_repr) <= 200


class TestObservables:
    def test_protocol_shape(self):
        stats = supervision_stats()
        obs = stats.observables()
        assert set(obs) == {
            "completed", "failures", "timeouts", "crashes", "retries",
            "journal_hits", "salvaged",
        }
        assert all(callable(v) for v in obs.values())

    def test_counters_reflect_runs(self):
        run_tasks(square, [(i,) for i in range(3)], workers=2, salvage=True)
        snap = supervision_stats().snapshot()
        assert snap["completed"] == 3
        assert snap["failures"] == 0

    def test_registers_with_telemetry(self):
        from repro.obs import Telemetry

        tel = Telemetry(window=5.0)
        tel.register_observables("parallel", supervision_stats())
        run_tasks(square, [(1,), (2,)], workers=1, salvage=True)
        assert tel.metrics.snapshot()["parallel.completed"] == 2


class TestZeroOverheadOff:
    def test_plain_call_takes_legacy_path(self, monkeypatch):
        # A plain call runs on the supervised executor too, so chaos
        # injection reaches it and the killed worker is reported as such.
        monkeypatch.setenv("REPRO_CHAOS_KILL", "0,1")
        with pytest.raises(ParallelTaskError, match="exit code 57"):
            run_tasks(square, [(0,), (1,)], workers=2)

    def test_supervised_results_match_plain(self):
        tasks = [(i,) for i in range(7)]
        plain = run_tasks(square, tasks, workers=3)
        supervised = run_tasks(square, tasks, workers=3, retries=2,
                               timeout=60.0, base_seed=5)
        assert supervised == plain


class TestWorkerReuse:
    def test_tasks_share_at_most_workers_processes(self):
        out = run_tasks(pid_unless, [(i, -1) for i in range(8)], workers=2,
                        salvage=True)
        pids = {o.result for o in out}
        assert all(o.ok for o in out)
        assert len(pids) <= 2 and os.getpid() not in pids

    def test_crashed_worker_is_replaced(self):
        out = run_tasks(pid_unless, [(i, 1) for i in range(6)], workers=2,
                        salvage=True)
        assert [o.status for o in out] == ["ok", "failed"] + ["ok"] * 4
        assert "exit code 41" in out[1].error
        assert len({o.result for o in out if o.ok}) <= 3

    def test_timed_out_worker_is_replaced(self):
        out = run_tasks(pid_or_stall, [(i, 0) for i in range(5)], workers=2,
                        timeout=1.0, salvage=True)
        assert [o.status for o in out] == ["timed-out"] + ["ok"] * 4

    def test_worker_dead_while_idle_is_not_a_crash(self):
        def kill_first_worker(outcome):
            if outcome.index == 0:
                os.kill(outcome.result, signal.SIGKILL)
                time.sleep(0.3)

        out = run_tasks(pid_unless, [(i, -1) for i in range(6)], workers=2,
                        salvage=True, on_result=kill_first_worker)
        assert all(o.ok for o in out)
        assert supervision_stats().crashes == 0

    def test_serial_failure_raises_task_exception(self, tmp_path):
        with RunJournal(tmp_path / "j", scope="serial") as journal:
            with pytest.raises(ValueError, match="poisoned task 2"):
                run_tasks(fail_on, [(i, 2) for i in range(4)], workers=1,
                          journal=journal)


class TestConcurrentRuns:
    def test_crash_seen_while_another_thread_fans_out(self):
        # The service runs campaigns on threads.  A worker forked for one
        # run must not inherit another run's fresh pipe end, or that run
        # reads its crashed worker as EOF only once the first run's
        # workers exit.
        finished = {}

        def run(name, fn, tasks):
            run_tasks(fn, tasks, workers=2, salvage=True)
            finished[name] = time.monotonic()

        threads = [threading.Thread(
            target=run, daemon=True,
            args=("long", slow_square, [(i, 0.3) for i in range(10)]),
        )]
        threads += [threading.Thread(
            target=run, daemon=True,
            args=(k, crash_on, [(i, 0) for i in range(3)]),
        ) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert len(finished) == len(threads)
        long_end = finished.pop("long")
        assert all(end < long_end for end in finished.values())


_SIGINT_CHILD = """
import os, sys, time
sys.path.insert(0, {src!r})
from repro.parallel import run_tasks
from repro.parallel.chaos import beacon_point
from repro.experiments.store import RunJournal

tasks = [(i, 5.0 + i, 0.4, {beacons!r}) for i in range(6)]
with RunJournal({journal!r}, scope="ki-test") as j:
    run_tasks(beacon_point, tasks, workers=2, label="point", journal=j)
print("FINISHED-UNINTERRUPTED")
"""


_SIGKILL_CHILD = """
import sys
sys.path.insert(0, {src!r})
from repro.parallel import run_tasks
from repro.parallel.chaos import beacon_point

run_tasks(beacon_point, [(i, 5.0 + i, 0.4, {beacons!r}) for i in range(6)],
          workers=2)
"""


def _exited(pid):
    """True once ``pid`` is gone or a zombie awaiting its new parent."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


class TestSupervisorKilled:
    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
    def test_workers_exit_without_sentinel(self, tmp_path):
        # A supervisor killed without cleanup never sends the sentinel;
        # its workers must still notice and exit, not wait forever.
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        beacons = tmp_path / "beacons"
        beacons.mkdir()
        child = subprocess.Popen([sys.executable, "-c", _SIGKILL_CHILD.format(
            src=os.path.abspath(src), beacons=str(beacons))])
        deadline = time.monotonic() + 30.0
        while len(list(beacons.iterdir())) < 2 and time.monotonic() < deadline:
            assert child.poll() is None, "child finished before the kill"
            time.sleep(0.02)
        child.kill()
        child.wait(timeout=30)
        pids = [int(p.name.split("-", 1)[1]) for p in beacons.iterdir()]
        try:
            assert len(pids) >= 2
            deadline = time.monotonic() + 10.0
            while (not all(_exited(pid) for pid in pids)
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            assert all(_exited(pid) for pid in pids)
        finally:
            for pid in pids:
                if not _exited(pid):
                    os.kill(pid, signal.SIGKILL)


class TestKeyboardInterrupt:
    def test_fanout_interrupt_is_graceful_and_resumable(self, tmp_path):
        """SIGINT mid-fan-out: clean shutdown, no orphans, resumable journal."""
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        journal = str(tmp_path / "ki.journal")
        beacons = tmp_path / "beacons"
        beacons.mkdir()
        child = subprocess.Popen(
            [sys.executable, "-c", _SIGINT_CHILD.format(
                src=os.path.abspath(src), beacons=str(beacons), journal=journal
            )],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        # Wait until at least one task result has been journaled.
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if os.path.exists(journal):
                with open(journal, "rb") as fh:
                    if fh.read().count(b"\n") >= 2:
                        break
            assert child.poll() is None, "child finished before interrupt"
            time.sleep(0.02)
        child.send_signal(signal.SIGINT)
        out, err = child.communicate(timeout=30)
        assert child.returncode != 0
        assert b"FINISHED-UNINTERRUPTED" not in out
        assert b"KeyboardInterrupt" in err
        # No orphaned worker processes: every beacon PID must be gone.
        time.sleep(0.2)
        pids = [int(p.name.split("-", 1)[1]) for p in beacons.iterdir()]
        assert pids, "no workers ever started"
        for pid in set(pids):
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        # The journal is mid-run but valid, and resuming completes the
        # run bit-identically to an uninterrupted one.
        from repro.parallel.chaos import beacon_point, synthetic_point

        tasks = [(i, 5.0 + i, 0.4, str(beacons)) for i in range(6)]
        with RunJournal(journal, scope="ki-test") as j:
            assert 0 < len(j)
            resumed = run_tasks(beacon_point, tasks, workers=2,
                                label="point", journal=j)
        assert resumed == [synthetic_point(i, 5.0 + i) for i in range(6)]
