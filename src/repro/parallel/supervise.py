"""The one task executor: :func:`run_tasks`, ordered and supervised.

Every figure in the paper is a sweep of independently seeded runs, so
the natural execution model is embarrassingly parallel: ship each run to
a worker process, collect results in submission order, and guarantee the
outcome is bit-identical to the sequential loop (seeds are derived from
the task index via :mod:`repro.parallel.seeding`, never from execution
order).  Every :func:`run_tasks` call runs here, and the fault-tolerance
features are opt-in (``timeout=`` / ``retries=`` / ``salvage=`` /
``journal=``):

* **Ordered results.**  ``results[i]`` always corresponds to
  ``tasks[i]``, regardless of which worker finished first.
* **Reusable supervised workers.**  At most ``workers`` processes are
  forked per call, each once, over a duplex pipe.  They inherit ``fn``
  and the task list, so each attempt crosses the pipe as one task
  index, and the supervisor multiplexes replies with
  ``connection.wait``.  A crashed worker (EOF on the pipe) or a blown
  deadline (terminate + join) costs exactly one task attempt, never the
  batch; the worker is replaced.  A worker found dead while idle is
  replaced without charging any task.
* **Serial execution.**  ``workers=1`` (the default, or via
  ``REPRO_WORKERS``) runs the tasks in order in this process, with
  retries and journaling but no preemption (a per-task ``timeout``
  cannot be enforced without a worker process and is warned about), and
  a task that exhausts its attempts raises its own exception.
  Non-picklable callables (lambdas, closures over live simulations)
  also run serially, with a diagnostic warning naming the offending
  object.
* **Error propagation.**  A failure in a worker surfaces as
  :class:`ParallelTaskError` naming the failing task index (with its
  truncated args and, given ``base_seed=``, its derived seed) and
  carrying the worker-side traceback text.
* **Deterministic retries.**  Backoff jitter is drawn from
  ``derive_rng(base_seed, _RETRY_STREAM, index, attempt)`` so a retry
  *schedule* is as reproducible as the results themselves — and because
  every task is a deterministic function of its arguments, a retry can
  only ever re-produce the result the first attempt would have returned.
* **:class:`TaskOutcome` envelopes.**  ``salvage=True`` returns one
  outcome per task (ok / failed / timed-out, traceback attached,
  attempt count, replay provenance) instead of raising, so a campaign
  keeps the 499 finished points when point 500 dies.
* **Journal integration.**  With a journal attached (duck-typed —
  :class:`repro.experiments.store.RunJournal` in practice; this module
  deliberately does not import ``repro.experiments``), completed tasks
  are replayed from disk before any process is spawned and fresh results
  are durably appended as they arrive, making any run killed at an
  arbitrary point resumable bit-identically.
* **Telemetry safety.**  The process-wide :func:`repro.obs.install`
  factory is process-local state.  Rather than silently dropping spans
  in forked workers, ``run_tasks`` refuses to fan out while a factory is
  installed (and each worker additionally clears any inherited factory).
* **No nested pools.**  A task that itself calls ``run_tasks`` runs its
  subtasks serially inside the worker, so layered APIs (a parallel sweep
  whose points call a parallel ``run_comparison``) cannot fork-bomb.

See ``docs/robustness.md``.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import time
import traceback
import warnings
from dataclasses import dataclass
from multiprocessing import Pipe, Process
from multiprocessing.connection import Connection, wait as _conn_wait
from collections.abc import Callable, Iterable, Sequence
from typing import Any

from repro.parallel.seeding import derive_rng, derive_seed

__all__ = [
    "ParallelTaskError",
    "SupervisionStats",
    "TaskOutcome",
    "resolve_workers",
    "run_tasks",
    "supervision_stats",
]

#: Environment variable giving the default worker count (``workers=None``).
WORKERS_ENV = "REPRO_WORKERS"

#: Set in worker processes so nested ``run_tasks`` calls stay serial.
_IN_WORKER_ENV = "REPRO_IN_WORKER"

#: Seed-derivation stream reserved for retry backoff jitter; disjoint
#: from task-index streams, so retrying never perturbs task seeds.
_RETRY_STREAM = 0x5EED

#: The retry backoff schedule of :func:`_retry_delay`: base delay and cap
#: in seconds, and the largest jitter stretch.
_BACKOFF = 0.05
_MAX_BACKOFF = 5.0
_JITTER = 0.5

#: Characters of ``repr(args)`` carried in error messages and outcomes.
_ARGS_REPR_LIMIT = 200

#: Serializes worker forks across threads (the service runs campaigns on
#: threads).  A worker forked while another thread holds a fresh pipe's
#: child end keeps that end open for its whole life, so the other run
#: would never read its own crashed worker as EOF.
_FORK_LOCK = threading.Lock()


def _truncate(text: str, limit: int = _ARGS_REPR_LIMIT) -> str:
    if len(text) <= limit:
        return text
    return text[: limit - 3] + "..."


class ParallelTaskError(RuntimeError):
    """One task of a parallel batch failed.

    The message names the failing task (label and index), carries the
    truncated args repr and — when the caller passed ``base_seed=`` —
    the task's derived seed, so a crashed sweep point is reproducible
    from the error text alone.  The worker-side traceback is embedded as
    text (a worker process can only ship the formatted traceback).

    Structured fields (``task_index``, ``label``, ``args_repr``,
    ``seed``) carry the same context; ``seed`` is ``None`` without
    ``base_seed=``.
    """

    def __init__(
        self,
        message: str,
        *,
        task_index: int | None = None,
        label: str | None = None,
        args_repr: str | None = None,
        seed: int | None = None,
    ):
        super().__init__(message)
        self.task_index = task_index
        self.label = label
        self.args_repr = args_repr
        self.seed = seed


@dataclass
class TaskOutcome:
    """What happened to one task under supervision.

    ``result`` is meaningful only when ``status == "ok"``; ``error`` is
    a one-line ``"ExcType: message"`` (or a crash/timeout description)
    and ``traceback`` the full worker-side text when one exists.
    """

    index: int
    label: str
    status: str  # "ok" | "failed" | "timed-out"
    result: Any = None
    error: str | None = None
    traceback: str | None = None
    attempts: int = 1
    from_journal: bool = False
    seed: int | None = None
    args_repr: str = "()"

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def retried(self) -> int:
        """How many retries this task consumed (0 = first attempt stood)."""
        return max(0, self.attempts - 1)

    def to_error(self, base_seed: int | None = None) -> ParallelTaskError:
        """The enriched exception this (non-ok) outcome corresponds to."""
        ctx = f"{self.label} #{self.index} (args={self.args_repr}"
        if self.seed is not None:
            ctx += f", seed=derive_seed({base_seed}, ...)={self.seed}"
        ctx += ")"
        noun = "timed out" if self.status == "timed-out" else "failed"
        msg = f"{ctx} {noun} after {self.attempts} attempt(s): {self.error}"
        if self.traceback:
            msg += "\n" + self.traceback
        return ParallelTaskError(
            msg,
            task_index=self.index,
            label=self.label,
            args_repr=self.args_repr,
            seed=self.seed,
        )


def _retry_delay(base_seed: int | None, index: int, attempt: int) -> float:
    """Seconds to wait before retry ``attempt`` (1 = first retry) of a task.

    ``min(_MAX_BACKOFF, _BACKOFF * 2**(attempt-1))`` stretched by up to
    ``_JITTER``, with the jitter drawn from a
    :func:`repro.parallel.seeding.derive_rng` stream keyed by
    ``(base_seed, _RETRY_STREAM, index, attempt)`` — the schedule is a
    pure function of the experiment's seed, never of wall-clock state.
    """
    base = min(_MAX_BACKOFF, _BACKOFF * 2.0 ** (attempt - 1))
    rng = derive_rng(
        0 if base_seed is None else base_seed, _RETRY_STREAM, index, attempt
    )
    return base * (1.0 + _JITTER * float(rng.random()))


@dataclass
class SupervisionStats:
    """Process-wide counters for the supervised executor.

    Conforms to the ``observables()`` protocol (rule RPR004), so the
    live telemetry layer can export the counters as gauges:
    ``telemetry.register_observables("parallel", supervision_stats())``.
    """

    completed: int = 0
    failures: int = 0
    timeouts: int = 0
    crashes: int = 0
    retries: int = 0
    journal_hits: int = 0
    salvaged: int = 0

    def observables(self) -> dict[str, Callable[[], int]]:
        return {
            "completed": lambda: self.completed,
            "failures": lambda: self.failures,
            "timeouts": lambda: self.timeouts,
            "crashes": lambda: self.crashes,
            "retries": lambda: self.retries,
            "journal_hits": lambda: self.journal_hits,
            "salvaged": lambda: self.salvaged,
        }

    def snapshot(self) -> dict[str, int]:
        return {name: reader() for name, reader in self.observables().items()}

    def reset(self) -> None:
        for name in self.snapshot():
            setattr(self, name, 0)


_STATS = SupervisionStats()


def supervision_stats() -> SupervisionStats:
    """The process-wide :class:`SupervisionStats` singleton."""
    return _STATS


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

def _worker_loop(conn: Connection, supervisor_end: Connection, fn: Callable,
                 tasks: Sequence[tuple]) -> None:
    """Run the task attempts sent as indices until the ``None`` sentinel."""
    # The forked copy of the supervisor's end would hold this pipe open
    # forever; closed, a supervisor that dies without sending the
    # sentinel reads as EOF here and the worker exits.
    supervisor_end.close()
    # Ctrl-C is the *supervisor's* signal: it terminates workers
    # deliberately during cleanup.  Letting SIGINT hit workers directly
    # would race that shutdown and corrupt in-flight pipe messages.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    os.environ[_IN_WORKER_ENV] = "1"
    from repro.obs import provider

    provider.uninstall()
    from repro.parallel.chaos import chaos_point

    try:
        while (index := conn.recv()) is not None:
            chaos_point(index)
            try:
                reply = ("ok", fn(*tasks[index]))
            except BaseException as exc:  # ship *any* failure, incl. SystemExit
                reply = ("error", type(exc).__name__, str(exc),
                         traceback.format_exc())
            try:
                conn.send(reply)
            except Exception as exc:
                conn.send(
                    (
                        "error",
                        type(exc).__name__,
                        f"task result is not picklable: {exc}",
                        traceback.format_exc(),
                    )
                )
    except (EOFError, OSError):
        pass  # the supervisor is gone: nobody is left to report to
    conn.close()


@dataclass
class _Worker:
    """One reusable worker process and the attempt it is running."""

    process: Process
    conn: Connection
    index: int = -1
    attempt: int = 0
    deadline: float | None = None


# ---------------------------------------------------------------------------
# Supervisor
# ---------------------------------------------------------------------------

def resolve_workers(workers: int | None = None) -> int:
    """Resolve a worker count: ``None`` means ``$REPRO_WORKERS`` or 1.

    Inside a pool worker the answer is always 1 (nested fan-out would
    oversubscribe and risk recursive process creation).
    """
    if os.environ.get(_IN_WORKER_ENV):
        return 1
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "").strip()
        try:
            workers = int(raw) if raw else 1
        except ValueError:
            raise ValueError(
                f"{WORKERS_ENV} must be a positive integer, got {raw!r}"
            ) from None
    workers = int(workers)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def _pickle_diagnostic(fn: Callable, tasks: Sequence[tuple]) -> str | None:
    """Reason ``fn``/``tasks`` cannot cross a process boundary, or ``None``."""
    try:
        pickle.dumps(fn)
    except Exception as exc:
        return f"callable {fn!r} is not picklable ({type(exc).__name__}: {exc})"
    try:
        pickle.dumps(tasks)
    except Exception as exc:
        return f"task arguments are not picklable ({type(exc).__name__}: {exc})"
    return None


def run_tasks(
    fn: Callable,
    tasks: Iterable[tuple],
    *,
    workers: int | None = None,
    label: str = "task",
    timeout: float | None = None,
    retries: int = 0,
    salvage: bool = False,
    base_seed: int | None = None,
    journal: Any = None,
    on_result: Callable[[TaskOutcome], None] | None = None,
) -> list:
    """Run ``fn(*task)`` for every task, fanning across processes.

    Parameters
    ----------
    fn:
        Callable applied to each task's positional arguments.  Must be
        picklable (module-level function or bound method of a picklable
        object) for true parallelism; otherwise the tasks run serially
        with a diagnostic warning.
    tasks:
        Iterable of positional-argument tuples, one per run.
    workers:
        Process count; ``None`` reads ``$REPRO_WORKERS`` (default 1).
        ``1`` runs the tasks in order in this process.
    label:
        Human name used in error messages ("sweep point", "replication").
    timeout:
        Per-task deadline in seconds, ``> 0`` (requires ``workers >= 2``
        to be enforceable — a stalled attempt's worker is terminated and
        the attempt counts as ``"timed-out"``).
    retries:
        Bounded retries per task, ``>= 0``.  Retry ``k`` waits
        ``min(5 s, 0.05 s * 2**(k-1))`` stretched by up to 50%, the
        jitter drawn via :mod:`repro.parallel.seeding` from
        ``base_seed`` — and since tasks are deterministic functions of
        their arguments, a retry can only reproduce what the first
        attempt would have returned.
    salvage:
        Return a list of :class:`TaskOutcome` envelopes — including
        failures — instead of raising on the first exhausted task.
    base_seed:
        The experiment's base seed, used to (a) derive retry-jitter
        streams and (b) name the failing task's derived seed in
        :class:`ParallelTaskError` messages.  Never alters results.
    journal:
        A :class:`repro.experiments.store.RunJournal` or anything with
        ``key(label=, index=, args=, fn=)``, ``get(key) -> (hit,
        result)`` and ``put(key, result, label=, index=, args=)``:
        completed tasks replay from it, and each fresh result is
        appended the moment it arrives (before the next dispatch), so
        an interrupt at any point leaves it resumable.
    on_result:
        Progress callback invoked in *this* process with each task's
        final :class:`TaskOutcome` the moment it settles (journal
        replay, success, or exhausted failure) — completion order, not
        task order; retries in flight are not reported.  Lifecycle
        streaming for :mod:`repro.service`.  Callback exceptions
        propagate (they indicate a broken observer, not a broken task).

    Returns
    -------
    list
        ``fn(*tasks[i])`` results in task order — bit-identical to the
        sequential loop for any worker count, because nothing about the
        computation depends on scheduling.  With ``salvage=True``, a
        list of :class:`TaskOutcome` in task order instead.

    Raises
    ------
    ParallelTaskError
        If a task fails in a worker (named by index, args and derived
        seed, traceback attached) and ``salvage`` is off.  On the serial
        path the task's original exception propagates unwrapped.
    repro.obs.provider.TelemetryFanoutError
        If ``workers > 1`` while a telemetry factory is installed —
        fan-out would silently drop every span recorded in the workers;
        run with ``workers=1`` or uninstall telemetry first.  (A
        ``ValueError`` *and* ``RuntimeError`` subclass.)
    """
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if timeout is not None and timeout <= 0:
        raise ValueError(f"timeout must be > 0, got {timeout}")
    tasks = [tuple(t) for t in tasks]
    workers = resolve_workers(workers)
    if workers > 1:
        from repro.obs import provider

        provider.ensure_fanout_compatible(workers, context="run_tasks")
    if workers > 1 and tasks:
        diagnostic = _pickle_diagnostic(fn, tasks)
        if diagnostic is not None:
            warnings.warn(
                f"run_tasks falling back to serial execution: {diagnostic}. "
                "Pass a module-level function (or a bound method of a "
                "picklable object) to enable process parallelism.",
                RuntimeWarning,
                stacklevel=2,
            )
            workers = 1

    outcomes: list[TaskOutcome | None] = [None] * len(tasks)
    keys: list[str | None] = [None] * len(tasks)
    todo: list[int] = []
    for i, args in enumerate(tasks):
        if journal is not None:
            keys[i] = journal.key(label=label, index=i, args=args, fn=fn)
            hit, result = journal.get(keys[i])
            if hit:
                outcomes[i] = _outcome(i, label, args, base_seed, "ok",
                                       result=result, from_journal=True)
                _STATS.journal_hits += 1
                if on_result is not None:
                    on_result(outcomes[i])
                continue
        todo.append(i)

    if workers == 1:
        _run_serial(fn, tasks, todo, keys, outcomes, retries=retries,
                    timeout=timeout, label=label, base_seed=base_seed,
                    journal=journal, salvage=salvage, on_result=on_result)
    elif todo:
        # Even one task left gets a worker, so that its timeout holds.
        _run_parallel(fn, tasks, todo, keys, outcomes,
                      workers=min(workers, len(todo)), retries=retries,
                      timeout=timeout, label=label, base_seed=base_seed,
                      journal=journal, salvage=salvage, on_result=on_result)

    settled = [o for o in outcomes if o is not None]
    if not salvage:
        return [o.result for o in settled]
    _STATS.salvaged += sum(1 for o in settled if not o.ok)
    return settled


def _outcome(
    index: int,
    label: str,
    args: tuple,
    base_seed: int | None,
    status: str,
    *,
    result: Any = None,
    error: str | None = None,
    tb: str | None = None,
    attempts: int = 1,
    from_journal: bool = False,
) -> TaskOutcome:
    return TaskOutcome(
        index=index,
        label=label,
        status=status,
        result=result,
        error=error,
        traceback=tb,
        attempts=attempts,
        from_journal=from_journal,
        seed=None if base_seed is None else derive_seed(base_seed, index),
        args_repr=_truncate(repr(args)),
    )


def _record_ok(outcomes, keys, journal, tasks, label, base_seed, index,
               result, attempts, on_result=None) -> None:
    """Journal first (durability), then publish the outcome."""
    if journal is not None:
        journal.put(keys[index], result, label=label, index=index,
                    args=tasks[index])
    outcomes[index] = _outcome(index, label, tasks[index], base_seed, "ok",
                               result=result, attempts=attempts)
    _STATS.completed += 1
    if on_result is not None:
        on_result(outcomes[index])


def _run_serial(fn, tasks, todo, keys, outcomes, *, retries, timeout, label,
                base_seed, journal, salvage, on_result) -> None:
    """In-process, in-order execution: retries + journal, no preemption."""
    if timeout is not None:
        warnings.warn(
            "run_tasks: per-task timeout is not enforced with workers=1 "
            "(there is no worker process to terminate); use workers >= 2 "
            "for timeout supervision",
            RuntimeWarning,
            stacklevel=3,
        )
    from repro.parallel.chaos import chaos_point

    for i in todo:
        attempt = 1
        while True:
            chaos_point(i)
            try:
                result = fn(*tasks[i])
            except Exception as exc:
                if attempt <= retries:
                    _STATS.retries += 1
                    time.sleep(_retry_delay(base_seed, i, attempt))
                    attempt += 1
                    continue
                _STATS.failures += 1
                outcomes[i] = _outcome(
                    i, label, tasks[i], base_seed, "failed",
                    error=f"{type(exc).__name__}: {exc}",
                    tb=traceback.format_exc(), attempts=attempt,
                )
                if on_result is not None:
                    on_result(outcomes[i])
                if not salvage:
                    raise
                break
            else:
                _record_ok(outcomes, keys, journal, tasks, label, base_seed,
                           i, result, attempt, on_result)
                break


def _spawn(fn: Callable, tasks: Sequence[tuple], pool: list[_Worker]) -> _Worker:
    """Fork one reusable worker and add it to ``pool``."""
    with _FORK_LOCK:
        conn, child_end = Pipe()
        proc = Process(
            target=_worker_loop, args=(child_end, conn, fn, tasks), daemon=True,
        )
        # Mask SIGINT across the fork and until the worker is in ``pool``.
        # A Ctrl-C landing mid-``start()`` raises KeyboardInterrupt inside
        # an ``os.register_at_fork`` callback (e.g. logging's lock
        # release), where CPython reports it as "Exception ignored" and
        # DROPS it — the interrupt is silently lost and the run completes
        # as if never signalled.  Deferring delivery until the mask is
        # restored lands it in the supervisor loop, whose cleanup reaches
        # every worker in ``pool``.
        masked = hasattr(signal, "pthread_sigmask")  # no fork on Windows
        if masked:
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            proc.start()
            # Close the parent's copy of the child end so a dead worker
            # reads as EOF instead of a hang.
            child_end.close()
            pool.append(_Worker(proc, conn))
        finally:
            if masked:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    return pool[-1]


def _reap(worker: _Worker) -> None:
    worker.process.join()
    worker.conn.close()


def _run_parallel(fn, tasks, todo, keys, outcomes, *, workers, retries,
                  timeout, label, base_seed, journal, salvage,
                  on_result) -> None:
    """Supervise at most ``workers`` reusable workers, one attempt at a time each."""
    # (index, attempt, not_before): attempts waiting to be dispatched.
    pending: list[tuple[int, int, float]] = [(i, 1, 0.0) for i in todo]
    pool: list[_Worker] = []  # every live worker, busy or idle
    running: dict[Connection, _Worker] = {}  # the busy ones

    def finalize(worker: _Worker, status: str, error: str,
                 tb: str | None) -> None:
        """Retry if attempts remain, else record (and maybe raise) failure."""
        now = time.monotonic()  # repro: noqa[RPR001] -- supervision deadlines are wall-clock, not simulation time
        if worker.attempt <= retries:
            _STATS.retries += 1
            backoff = _retry_delay(base_seed, worker.index, worker.attempt)
            pending.append((worker.index, worker.attempt + 1, now + backoff))
            return
        _STATS.failures += 1
        outcomes[worker.index] = _outcome(
            worker.index, label, tasks[worker.index], base_seed, status,
            error=error, tb=tb, attempts=worker.attempt,
        )
        if on_result is not None:
            on_result(outcomes[worker.index])
        if not salvage:
            raise outcomes[worker.index].to_error(base_seed)

    def retire(worker: _Worker) -> None:
        """Reap a dead or terminated worker and drop it from the pool."""
        _reap(worker)
        pool.remove(worker)

    def idle_worker() -> _Worker:
        for worker in [w for w in pool if w.conn not in running]:
            if worker.process.is_alive():
                return worker
            retire(worker)  # died while idle: replace it, charge no task
        return _spawn(fn, tasks, pool)

    try:
        while pending or running:
            now = time.monotonic()  # repro: noqa[RPR001] -- supervision deadlines are wall-clock, not simulation time
            # Dispatch every eligible pending attempt into free slots.
            while len(running) < workers:
                slot = next(
                    (k for k, (_, _, nb) in enumerate(pending) if nb <= now),
                    None,
                )
                if slot is None:
                    break
                index, attempt, _ = pending.pop(slot)
                worker = idle_worker()
                worker.index, worker.attempt = index, attempt
                worker.deadline = None if timeout is None else now + timeout
                running[worker.conn] = worker
                try:
                    worker.conn.send(index)
                except OSError:
                    pass  # died since is_alive(): its EOF charges the attempt
            if not running:
                # Every remaining attempt is backing off; sleep to the
                # earliest eligibility.
                time.sleep(max(0.0, min(nb for _, _, nb in pending) - now))
                continue
            # Block until a worker reports, a deadline expires, or a
            # backed-off retry becomes dispatchable.
            wakeups = [w.deadline for w in running.values()
                       if w.deadline is not None]
            # Only *future* eligibility counts: an already-eligible retry
            # is waiting on a slot, which only a completion can free.
            wakeups += [nb for _, _, nb in pending if nb > now]
            wait_s = None if not wakeups else max(0.0, min(wakeups) - now)
            ready = _conn_wait(list(running), timeout=wait_s)
            for conn in ready:
                worker = running.pop(conn)
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    retire(worker)
                    _STATS.crashes += 1
                    finalize(
                        worker, "failed",
                        "worker crashed (killed or exited) with exit code "
                        f"{worker.process.exitcode}", None,
                    )
                    continue
                if message[0] == "ok":
                    _record_ok(outcomes, keys, journal, tasks, label,
                               base_seed, worker.index, message[1],
                               worker.attempt, on_result)
                else:
                    _, etype, emsg, tb = message
                    finalize(worker, "failed", f"{etype}: {emsg}", tb)
            # Enforce deadlines on whatever is still in flight.
            now = time.monotonic()  # repro: noqa[RPR001] -- supervision deadlines are wall-clock, not simulation time
            for conn, worker in list(running.items()):
                if worker.deadline is None or now < worker.deadline:
                    continue
                del running[conn]
                worker.process.terminate()
                retire(worker)
                _STATS.timeouts += 1
                finalize(
                    worker, "timed-out",
                    f"exceeded per-task timeout of {timeout}s", None,
                )
    finally:
        # A clean finish, a fail-fast error, KeyboardInterrupt, anything:
        # leave no orphans.  Busy workers are terminated; idle ones get
        # the sentinel (closing our end would not read as EOF, because
        # later-forked workers hold copies of it).  Journaled results are
        # already durable, so an interrupted run is resumable.
        for worker in pool:
            if worker.conn in running:
                worker.process.terminate()
                continue
            try:
                worker.conn.send(None)
            except OSError:
                pass  # died while idle; the join below reaps it
        for worker in pool:
            _reap(worker)
