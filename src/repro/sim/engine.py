"""Event-calendar core of the discrete-event simulator.

A :class:`Simulation` owns the virtual clock, an event calendar and the
master random generator.  Events are plain callbacks; ties in time are
broken deterministically by insertion order, so a run is fully
reproducible given its seed.

Pending events live in one binary heap (a plain list under
:mod:`heapq`) of ``(time, seq, callback, args)`` entries.  ``(time,
seq)`` is unique, so entries pop in exact ``(time, insertion-seq)``
order and the callbacks are never compared.  The simulated deployments
hold at most a few dozen pending events, where ``heapq`` beats bucketed
calendar queues (``docs/performance.md`` §7.1).

The engine is deliberately minimal (schedule / run / stop): processes
like stations and sources are built on top as callback-driven state
machines, which profiling shows is ~3× faster in CPython than a
generator-based process abstraction for this workload shape.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from heapq import heappop, heappush
from itertools import count
from math import inf
from typing import Any

import numpy as np

from repro.analysis.invariants import checker_for_new_simulation
from repro.obs.provider import current_telemetry
from repro.parallel.seeding import seed_sequence, spawn_child

__all__ = ["EventBudgetExceeded", "Simulation"]


class EventBudgetExceeded(RuntimeError):
    """A run exhausted its event budget (``Simulation.run(max_events=)``).

    Carries the budget and the virtual time reached so a campaign's
    salvage report can say *where* a runaway scenario was stopped.  The
    count of executed events is a deterministic function of the seed and
    the model, so a scenario either always blows its budget or never
    does — quarantine decisions are bit-identical across sequential and
    parallel campaign runs.
    """

    def __init__(self, max_events: int, now: float):
        super().__init__(
            f"event budget of {max_events} events exhausted at virtual "
            f"time {now:.6f}s; the scenario was stopped mid-run"
        )
        self.max_events = max_events
        self.now = now


# One dispatch-loop template specialized four ways — (budgeted?, checked?)
# — instead of three hand-maintained near-identical loops.  The optional
# lines are spliced in at import time and compiled once, so the common
# unbudgeted/unchecked path contains *no* budget counter and *no*
# invariant guards: the zero-cost-when-off property is structural, not a
# runtime branch (pinned by the on/off bit-identity tests).
_LOOP_TEMPLATE = """\
def _dispatch(sim, heap, until, max_events, invariants):
    horizon = inf if until is None else until
{budget_init}
    while not sim._stopped:
        if not heap:
            # Calendar drained: nothing can ever fire again.
            if until is not None and until > sim.now:
                sim.now = until
            return
        time = heap[0][0]
        if time > horizon:
            sim.now = until
            return
{budget_check}
        _, _, callback, args = heappop(heap)
{check_pre}
        sim.now = time
        callback(*args)
{check_post}
{budget_count}
    # stopped: leave the clock where the last event put it
"""


def _build_dispatch(budgeted: bool, checked: bool):
    src = _LOOP_TEMPLATE.format(
        budget_init="    executed = 0" if budgeted else "",
        budget_check=(
            "        if executed >= max_events:\n"
            "            raise EventBudgetExceeded(max_events, sim.now)"
            if budgeted
            else ""
        ),
        check_pre=(
            "        invariants.check_event_time(time, sim.now)" if checked else ""
        ),
        check_post=(
            "        invariants.check_handler_left_clock(time, sim.now)"
            if checked
            else ""
        ),
        budget_count="        executed += 1" if budgeted else "",
    )
    namespace: dict[str, Any] = {
        "EventBudgetExceeded": EventBudgetExceeded,
        "heappop": heappop,
        "inf": inf,
    }
    filename = f"<repro.sim.engine dispatch budgeted={budgeted} checked={checked}>"
    exec(compile(src, filename, "exec"), namespace)
    return namespace["_dispatch"]


_DISPATCH = {
    (budgeted, checked): _build_dispatch(budgeted, checked)
    for budgeted in (False, True)
    for checked in (False, True)
}


class Simulation:
    """Discrete-event simulation kernel.

    Parameters
    ----------
    seed:
        Seed for the master :class:`numpy.random.Generator`.  Components
    that need independent streams should call :meth:`spawn_rng`.
    telemetry:
        Explicit observability bundle (:class:`repro.obs.Telemetry`).
        When omitted, the process-wide provider is consulted
        (:func:`repro.obs.install`); the default is ``None`` — no
        telemetry, and the simulator runs exactly as before the
        observability layer existed.

    Attributes
    ----------
    now:
        Current virtual time in seconds.
    rng:
        Master random generator (components usually use spawned streams).
    telemetry:
        The bound telemetry instance, or ``None`` when disabled.
        Components read this once at construction time, so the event
        hot path never pays for disabled observability.
    """

    def __init__(self, seed: int | None = 0, telemetry=None):
        self.now: float = 0.0
        self._seedseq = seed_sequence(seed)
        self.rng = np.random.default_rng(self._seedseq)
        self.telemetry = telemetry if telemetry is not None else current_telemetry()
        if self.telemetry is not None:
            self.telemetry.bind(self)
        # Runtime invariant checking (repro.analysis.invariants): None
        # unless REPRO_CHECK is set, and every hook site guards on that —
        # the disabled hot paths are exactly the pre-checker ones.
        self.invariants = checker_for_new_simulation()
        # Pending (time, seq, callback, args) entries, heap-ordered.
        self._heap: list[tuple[float, int, Callable[..., None], tuple]] = []
        self._seq = count()
        self._running = False
        self._stopped = False

    def spawn_rng(self) -> np.random.Generator:
        """Return an independent random stream for one component.

        Streams are :class:`numpy.random.SeedSequence` children of the
        simulation's seed, numbered by spawn order (the shared derivation
        in :mod:`repro.parallel.seeding`).  Unlike the old scheme of
        drawing a raw integer from the master RNG, children cannot
        collide with each other, with the master stream, or with streams
        of a simulation seeded nearby (seed, seed+1, …).
        """
        return np.random.default_rng(spawn_child(self._seedseq))

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Raises
        ------
        ValueError
            If ``delay`` is negative (events cannot run in the past) or
            NaN (it would corrupt the calendar's order).
        """
        if not delay >= 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        heappush(self._heap, (self.now + delay, next(self._seq), callback, args))

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` at absolute virtual ``time``.

        Raises ``ValueError`` if ``time`` is before ``now`` or NaN.
        """
        if not time >= self.now:
            raise ValueError(f"time must be >= now ({self.now}), got {time}")
        heappush(self._heap, (time, next(self._seq), callback, args))

    def schedule_batch(
        self, delays: Iterable[float], callback: Callable[..., None], *args: Any
    ) -> None:
        """Schedule ``callback(*args)`` once per delay, in iteration order.

        Semantically identical to calling :meth:`schedule` for each delay
        in turn — insertion sequence numbers (the deterministic tie-break)
        are allocated in iteration order — but in one loop, so sources
        and stations can insert runs of events without per-call method
        dispatch.
        """
        now = self.now
        heap = self._heap
        seq = self._seq
        for delay in delays:
            if not delay >= 0:
                raise ValueError(f"delay must be >= 0, got {delay}")
            heappush(heap, (now + delay, next(seq), callback, args))

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Execute events in time order.

        Parameters
        ----------
        until:
            Stop once the clock would pass this virtual time (the clock is
            left exactly at ``until``).  ``None`` drains the calendar.
        max_events:
            Event budget: raise :class:`EventBudgetExceeded` after this
            many events have executed (``None`` = unbounded, the default
            hot path).  The budget is a resource governor for campaign
            runners — a runaway scenario is stopped deterministically
            instead of stalling a whole sweep.

        Returns
        -------
        float
            The virtual time at which the run stopped.
        """
        if self._running:
            raise RuntimeError("simulation is already running (re-entrant run())")
        if max_events is not None and max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {max_events}")
        self._running = True
        self._stopped = False
        invariants = self.invariants
        dispatch = _DISPATCH[(max_events is not None, invariants is not None)]
        try:
            dispatch(self, self._heap, until, max_events, invariants)
        finally:
            self._running = False
        if self.telemetry is not None and not self._heap:
            # The calendar drained: nothing can ever be scheduled again,
            # so the run is over — flush the partial window and emit the
            # run summary (idempotent).
            self.telemetry.finish()
        if invariants is not None:
            # Conservation holds at every event boundary, so each run()
            # return (drained or `until`-paused) is a valid checkpoint.
            invariants.check_stations("run end" if not self._heap else "run pause")
        return self.now

    def stop(self) -> None:
        """Stop the run after the current event completes."""
        self._stopped = True

    @property
    def pending_events(self) -> int:
        """Number of events still in the calendar."""
        return len(self._heap)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Simulation(now={self.now:.6f}, pending={self.pending_events})"
