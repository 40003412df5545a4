"""Chaos injection and the crash-safety self-test harness.

The paper's edge sites fail partially and heterogeneously; PR 6 makes
the *harness that runs the experiments* survive the same shapes.  This
module is the proof: controlled fault injection plus an executable
self-test (``python -m repro.parallel.chaos``) that kills workers
mid-task, SIGINTs an in-flight journaled run, and asserts salvage,
resume bit-identity, and that no worker processes are orphaned.

Injection is environment-triggered so it needs no cooperation from the
task under test — the executor behind every ``run_tasks`` call
(:mod:`repro.parallel.supervise`) calls :func:`chaos_point` at the start
of every task attempt, in a worker or in the serial loop.  The variables
are for tests only: a targeted index in the serial loop exits the
calling process.

* ``REPRO_CHAOS_KILL="2,5"`` — task indices whose attempt dies instantly
  via ``os._exit`` (no cleanup, no exception: exactly an OOM-kill);
* ``REPRO_CHAOS_ONCE_DIR=/tmp/x`` — crash-once markers: each targeted
  index dies only the first time it is attempted (across retries *and*
  across resumed runs), so recovery paths can be exercised end to end.

With the variables unset, :func:`chaos_point` is a single dictionary
lookup — the production overhead of the chaos machinery is one
``os.environ.get`` per task attempt.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

__all__ = [
    "CHAOS_KILL_ENV",
    "CHAOS_ONCE_DIR_ENV",
    "CHAOS_EXIT_CODE",
    "chaos_point",
    "synthetic_point",
    "slow_point",
    "beacon_point",
    "main",
]

#: Comma-separated task indices whose attempts die via ``os._exit``.
CHAOS_KILL_ENV = "REPRO_CHAOS_KILL"

#: Directory of crash-once markers; with it set, each targeted index
#: dies only on its first attempt (markers persist across resumes).
CHAOS_ONCE_DIR_ENV = "REPRO_CHAOS_ONCE_DIR"

#: Exit code of a chaos-killed process (distinctive in ``ps``/logs).
CHAOS_EXIT_CODE = 57


def chaos_point(index: int) -> None:
    """Die here iff chaos injection targets task ``index``.

    Called by the executor at the start of every task attempt (worker
    process or serial loop).  A hit is ``os._exit`` — no stack
    unwinding, no ``finally`` blocks, indistinguishable from a SIGKILL —
    which is the failure shape the journal must survive.
    """
    spec = os.environ.get(CHAOS_KILL_ENV)
    if not spec:
        return
    try:
        targets = {int(x) for x in spec.replace(",", " ").split()}
    except ValueError:
        raise ValueError(
            f"{CHAOS_KILL_ENV} must be comma-separated task indices, got {spec!r}"
        ) from None
    if int(index) not in targets:
        return
    once_dir = os.environ.get(CHAOS_ONCE_DIR_ENV)
    if once_dir:
        marker = os.path.join(once_dir, f"crashed-{int(index)}")
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        except FileExistsError:
            return  # already died here once; let the retry/resume succeed
        os.close(fd)
    os._exit(CHAOS_EXIT_CODE)


# ---------------------------------------------------------------------------
# Deterministic synthetic workload for the self-test
# ---------------------------------------------------------------------------

def synthetic_point(seed: int, rate: float) -> tuple[float, float]:
    """A cheap stand-in for one sweep point: deterministic in its args.

    Returns the sample mean and p95 of 4 000 exponential "latencies" at
    ``rate`` — enough structure that a journal replay mismatch (wrong
    key, wrong pickle, wrong seed) cannot pass by accident.
    """
    rng = np.random.default_rng(int(seed))
    sample = rng.exponential(1.0 / float(rate), 4000)
    return float(sample.mean()), float(np.quantile(sample, 0.95))


def slow_point(seed: int, rate: float, delay: float) -> tuple[float, float]:
    """:func:`synthetic_point` with a wall-clock stall (timeout/SIGINT prey)."""
    time.sleep(float(delay))
    return synthetic_point(seed, rate)


def beacon_point(
    seed: int, rate: float, delay: float, beacon_dir: str
) -> tuple[float, float]:
    """:func:`slow_point` that first records its worker PID on disk.

    The self-test's orphan check: after the supervising process is
    interrupted, every PID recorded here must be dead.
    """
    path = os.path.join(beacon_dir, f"pid-{os.getpid()}")
    fd = os.open(path, os.O_CREAT | os.O_WRONLY, 0o644)
    os.close(fd)
    return slow_point(seed, rate, delay)


# ---------------------------------------------------------------------------
# The self-test harness
# ---------------------------------------------------------------------------

def _selftest_tasks(n: int = 6, delay: float = 0.0, beacon_dir: str | None = None):
    """The self-test's sweep: n points with SeedSequence-derived seeds."""
    from repro.parallel.seeding import derive_seed

    tasks = []
    for i in range(n):
        rate = 6.0 + i
        args: tuple = (derive_seed(2021, i), rate)
        if beacon_dir is not None:
            args += (delay, beacon_dir)
        elif delay:
            args += (delay,)
        tasks.append(args)
    return tasks


def _check(label: str, condition: bool, detail: str = "") -> None:
    if not condition:
        raise AssertionError(f"chaos self-test: {label} FAILED {detail}".rstrip())
    print(f"chaos self-test: {label} ok")


def _sigint_child(journal_path: str, beacon_dir: str) -> int:
    """Child mode: a journaled 2-worker run meant to be interrupted."""
    from repro.parallel.pool import run_tasks

    from repro.experiments.store import RunJournal

    with RunJournal(journal_path, scope="chaos-sigint") as journal:
        run_tasks(
            beacon_point,
            _selftest_tasks(n=6, delay=0.4, beacon_dir=beacon_dir),
            workers=2,
            label="chaos point",
            journal=journal,
        )
    return 0


def _scenario_crash_retry(tmp: str, baseline: list) -> None:
    """Worker crash mid-task; bounded retries recover within one run."""
    from repro.parallel.pool import run_tasks

    from repro.experiments.store import RunJournal

    once = os.path.join(tmp, "once-retry")
    os.makedirs(once, exist_ok=True)
    os.environ[CHAOS_KILL_ENV] = "2"
    os.environ[CHAOS_ONCE_DIR_ENV] = once
    try:
        with RunJournal(os.path.join(tmp, "retry.journal"), scope="chaos-retry") as j:
            outcomes = run_tasks(
                synthetic_point,
                _selftest_tasks(),
                workers=2,
                label="chaos point",
                retries=2,
                salvage=True,
                base_seed=2021,
                journal=j,
            )
    finally:
        del os.environ[CHAOS_KILL_ENV], os.environ[CHAOS_ONCE_DIR_ENV]
    _check("crash+retry: all outcomes ok", all(o.ok for o in outcomes))
    _check("crash+retry: task 2 retried", outcomes[2].retried >= 1,
           f"(attempts={outcomes[2].attempts})")
    _check("crash+retry: bit-identical to baseline",
           [o.result for o in outcomes] == baseline)


def _scenario_crash_resume(tmp: str, baseline: list) -> None:
    """Worker crash with no retries: salvage partials, resume bit-identically."""
    from repro.parallel.pool import run_tasks

    from repro.experiments.store import RunJournal

    once = os.path.join(tmp, "once-resume")
    os.makedirs(once, exist_ok=True)
    path = os.path.join(tmp, "resume.journal")
    os.environ[CHAOS_KILL_ENV] = "1,4"
    os.environ[CHAOS_ONCE_DIR_ENV] = once
    try:
        with RunJournal(path, scope="chaos-resume") as j:
            first = run_tasks(
                synthetic_point, _selftest_tasks(), workers=2,
                label="chaos point", salvage=True, journal=j,
            )
    finally:
        del os.environ[CHAOS_KILL_ENV], os.environ[CHAOS_ONCE_DIR_ENV]
    failed = [o.index for o in first if not o.ok]
    _check("crash+resume: crashed tasks salvaged as failures",
           failed == [1, 4], f"(failed={failed})")
    # Resume: completed tasks replay from disk, crashed ones rerun.
    with RunJournal(path, scope="chaos-resume") as j:
        second = run_tasks(
            synthetic_point, _selftest_tasks(), workers=2,
            label="chaos point", salvage=True, journal=j,
        )
    _check("crash+resume: resumed run complete", all(o.ok for o in second))
    _check("crash+resume: replayed from journal",
           sorted(o.index for o in second if o.from_journal)
           == [i for i in range(6) if i not in failed])
    _check("crash+resume: bit-identical to baseline",
           [o.result for o in second] == baseline)


def _scenario_sigint(tmp: str) -> None:
    """SIGINT an in-flight journaled run; no orphans; resume is exact."""
    import signal
    import subprocess

    from repro.parallel.pool import run_tasks

    from repro.experiments.store import RunJournal

    journal_path = os.path.join(tmp, "sigint.journal")
    beacon_dir = os.path.join(tmp, "beacons")
    os.makedirs(beacon_dir, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    child = subprocess.Popen(
        [sys.executable, "-m", "repro.parallel.chaos",
         "--sigint-child", journal_path, beacon_dir],
        env=env,
    )
    # Interrupt once at least one task has been journaled (header + 1).
    deadline = time.monotonic() + 30.0  # repro: noqa[RPR001] -- harness wall-clock, not simulation time
    while time.monotonic() < deadline:  # repro: noqa[RPR001] -- harness wall-clock, not simulation time
        if os.path.exists(journal_path):
            with open(journal_path, "rb") as fh:
                if fh.read().count(b"\n") >= 2:
                    break
        if child.poll() is not None:
            raise AssertionError(
                f"chaos self-test: child exited early (rc={child.returncode})"
            )
        time.sleep(0.02)
    child.send_signal(signal.SIGINT)
    rc = child.wait(timeout=30)
    _check("sigint: interrupted run exits nonzero", rc != 0, f"(rc={rc})")
    pids = [int(name.split("-", 1)[1]) for name in os.listdir(beacon_dir)]
    _check("sigint: workers were spawned", len(pids) >= 1)
    time.sleep(0.2)  # allow the kernel to reap terminated workers
    orphans = []
    for pid in set(pids):
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            continue
        orphans.append(pid)
    _check("sigint: no orphaned workers", not orphans, f"(alive={orphans})")
    # The journal must be mid-run (some but not all tasks) and resumable.
    with RunJournal(journal_path, scope="chaos-sigint") as j:
        done_before = len(j)
        resumed = run_tasks(
            beacon_point,
            _selftest_tasks(n=6, delay=0.4, beacon_dir=beacon_dir),
            workers=2,
            label="chaos point",
            journal=j,
        )
    _check("sigint: journal was resumable mid-run", 0 < done_before,
           f"(journaled={done_before})")
    expected = [synthetic_point(s, r) for (s, r, *_rest) in
                _selftest_tasks(n=6, delay=0.4, beacon_dir=beacon_dir)]
    _check("sigint: resumed results bit-identical", resumed == expected)


def _scenario_timeout(tmp: str) -> None:
    """A stalled task is terminated at its deadline and reported as such."""
    from repro.parallel.pool import run_tasks

    t0 = time.monotonic()  # repro: noqa[RPR001] -- harness wall-clock, not simulation time
    outcomes = run_tasks(
        slow_point,
        _selftest_tasks(n=3, delay=30.0),
        workers=2,
        label="chaos point",
        timeout=0.5,
        salvage=True,
    )
    elapsed = time.monotonic() - t0  # repro: noqa[RPR001] -- harness wall-clock, not simulation time
    _check("timeout: all attempts timed out",
           all(o.status == "timed-out" for o in outcomes))
    _check("timeout: stalled workers were killed, not awaited",
           elapsed < 15.0, f"(elapsed={elapsed:.1f}s)")


def main(argv: list[str] | None = None) -> int:
    """Run the chaos self-test (or the internal ``--sigint-child`` mode)."""
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--sigint-child"]:
        return _sigint_child(argv[1], argv[2])
    if argv:
        print(f"usage: python -m repro.parallel.chaos  (got {argv})", file=sys.stderr)
        return 2

    import tempfile

    from repro.parallel.pool import run_tasks

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        baseline = run_tasks(
            synthetic_point, _selftest_tasks(), workers=2, label="chaos point"
        )
        _scenario_crash_retry(tmp, baseline)
        _scenario_crash_resume(tmp, baseline)
        _scenario_sigint(tmp)
        _scenario_timeout(tmp)
    print("chaos self-test: PASS (crash+retry, crash+resume, sigint, timeout)")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised by CI chaos-smoke
    sys.exit(main())
