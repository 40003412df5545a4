"""Process fan-out for independent simulation runs.

Every figure in the paper is a sweep of independently seeded runs, so
the natural execution model is embarrassingly parallel: ship each run to
a worker process, collect results in submission order, and guarantee the
outcome is bit-identical to the sequential loop (seeds are derived from
the task index via :mod:`repro.parallel.seeding`, never from execution
order).

:func:`run_tasks` is the one entry point, and every call runs on the one
executor, :func:`repro.parallel.supervise.run_supervised`.  Design points:

* **Ordered results** — ``results[i]`` always corresponds to
  ``tasks[i]``, regardless of which worker finished first.
* **Reusable workers** — ``workers > 1`` forks at most ``workers``
  processes per call and sends each one task at a time.
* **Serial execution** — ``workers=1`` (the default, or via
  ``REPRO_WORKERS``) runs the tasks in order in this process, and a
  failing task's own exception propagates.  Non-picklable callables
  (lambdas, closures over live simulations) also run serially, with a
  diagnostic warning naming the offending object.
* **Error propagation** — a failure in a worker surfaces as
  :class:`ParallelTaskError` naming the failing task index (with its
  truncated args and, given ``base_seed=``, its derived seed) and
  carrying the worker-side traceback text.
* **Fault tolerance on demand** — ``timeout=``, ``retries=``,
  ``salvage=`` and ``journal=`` turn on per-task deadlines,
  deterministic retry backoff, partial-result salvage and crash-safe
  checkpoint/resume (:mod:`repro.parallel.supervise`).
* **Telemetry safety** — the process-wide :func:`repro.obs.install`
  factory is process-local state.  Rather than silently dropping spans
  in forked workers, ``run_tasks`` refuses to fan out while a factory is
  installed (and each worker additionally clears any inherited factory).
* **No nested pools** — a task that itself calls ``run_tasks`` runs its
  subtasks serially inside the worker, so layered APIs (a parallel sweep
  whose points call a parallel ``run_comparison``) cannot fork-bomb.
"""

from __future__ import annotations

import os
import pickle
import warnings
from collections.abc import Callable, Iterable, Sequence
from typing import Any

from repro.parallel.supervise import (
    _IN_WORKER_ENV,
    ParallelTaskError,
    RetryPolicy,
    TaskOutcome,
    run_supervised,
)

__all__ = [
    "ParallelTaskError",
    "RetryPolicy",
    "TaskOutcome",
    "resolve_workers",
    "run_tasks",
]

#: Environment variable giving the default worker count (``workers=None``).
WORKERS_ENV = "REPRO_WORKERS"


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


def _refuse_telemetry_fanout(workers: int) -> None:
    from repro.obs import provider

    provider.ensure_fanout_compatible(workers, context="run_tasks")


def run_tasks(
    fn: Callable,
    tasks: Iterable[tuple],
    *,
    workers: int | None = None,
    label: str = "task",
    timeout: float | None = None,
    retries: int = 0,
    backoff: float = 0.05,
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
        Per-task deadline in seconds (requires ``workers >= 2`` to be
        enforceable — a stalled attempt's worker is terminated and the
        attempt counts as ``"timed-out"``).
    retries:
        Bounded retries per task.  Backoff between attempts is
        exponential from ``backoff`` with deterministic jitter drawn
        via :mod:`repro.parallel.seeding` from ``base_seed`` — and since
        tasks are deterministic functions of their arguments, a retry
        can only reproduce what the first attempt would have returned.
    backoff:
        Initial retry backoff in seconds (see :class:`RetryPolicy`).
    salvage:
        Return a list of :class:`TaskOutcome` envelopes — including
        failures — instead of raising on the first exhausted task.
    base_seed:
        The experiment's base seed, used to (a) derive retry-jitter
        streams and (b) name the failing task's derived seed in
        :class:`ParallelTaskError` messages.  Never alters results.
    journal:
        A :class:`repro.experiments.store.RunJournal` (or duck-typed
        equivalent): completed tasks replay from it, fresh results are
        durably appended as they arrive.
    on_result:
        Progress callback invoked in *this* process with each task's
        final :class:`TaskOutcome` the moment it settles (journal
        replay, success, or exhausted failure) — completion order, not
        task order.  Lifecycle streaming for :mod:`repro.service`.
        Callback exceptions propagate (they indicate a broken observer,
        not a broken task).

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
    tasks = [tuple(t) for t in tasks]
    workers = resolve_workers(workers)
    if workers > 1:
        _refuse_telemetry_fanout(workers)
    workers = min(workers, max(1, len(tasks)))
    if workers > 1:
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
    outcomes = run_supervised(
        fn,
        tasks,
        workers=workers,
        policy=RetryPolicy(retries=retries, timeout=timeout, backoff=backoff),
        label=label,
        base_seed=base_seed,
        journal=journal,
        fail_fast=not salvage,
        on_result=on_result,
    )
    if salvage:
        return outcomes
    return [o.result for o in outcomes]
