"""Process-wide telemetry provider.

The experiments layer builds dozens of :class:`~repro.sim.engine.Simulation`
objects deep inside runner functions; threading a telemetry handle
through every signature would make observability a tax on every API.
Instead a *factory* is installed here (``--telemetry`` on the CLI, or
:func:`installed` in tests) and every newly constructed ``Simulation``
asks for a telemetry instance — one fresh instance per simulation, so
concurrent runs in one process never share mutable window state.

The default factory is ``None``: :func:`current_telemetry` then returns
``None`` and the simulator's hot paths stay exactly as cheap as before
the observability layer existed (a single ``is None`` check at
construction time).

This module deliberately imports nothing from :mod:`repro.sim` or the
rest of :mod:`repro.obs`, so the engine can depend on it without any
import-cycle risk.

The factory is **process-local**: it does not propagate into the worker
processes used by :mod:`repro.parallel` (workers clear any factory
inherited via fork, and :func:`repro.parallel.run_tasks` raises rather
than fan out while one is installed here).  Telemetry is therefore an
explicitly single-process feature — see ``docs/performance.md``.
"""

from __future__ import annotations

from contextlib import contextmanager
from collections.abc import Callable, Iterator

__all__ = [
    "TelemetryFanoutError",
    "ensure_fanout_compatible",
    "install",
    "uninstall",
    "current_telemetry",
    "installed",
    "is_installed",
]


class TelemetryFanoutError(ValueError, RuntimeError):
    """Telemetry (``--telemetry``) and fan-out (``--workers``) collided.

    The installed factory is process-local: telemetry recorded in worker
    processes could never reach this process's exporters, so the
    combination is refused rather than silently dropping records.

    Subclasses both ``ValueError`` (it is an invalid argument
    combination — the contract for library callers and
    ``repro.service``) and ``RuntimeError`` (the type this guard
    historically raised from ``run_tasks``), so every existing
    ``except`` keeps working.
    """


def ensure_fanout_compatible(
    workers: int, context: str = "run_tasks", *, installing: bool = False
) -> None:
    """Raise :class:`TelemetryFanoutError` if ``workers > 1`` with telemetry on.

    The single API-layer guardrail behind the CLI's argparse check, the
    parallel pool and ``repro.service`` — every caller gets the same
    error naming both options (``--telemetry`` × ``--workers``).
    ``installing=True`` applies the check to a caller *about to* install
    a factory of its own (the service) rather than to the current state.
    """
    if workers > 1 and (installing or is_installed()):
        raise TelemetryFanoutError(
            f"--telemetry and --workers are mutually exclusive: {context} "
            f"was asked for workers={workers} while a telemetry factory is "
            "installed (repro.obs.install), and worker processes cannot "
            "stream spans back to this process's exporters — the records "
            "would be silently lost.  Use workers=1 with telemetry, or "
            "uninstall the factory around the parallel section."
        )

#: factory returning a fresh Telemetry (or None) per Simulation.
_factory: Callable[[], object] | None = None


def install(factory: Callable[[], object]) -> None:
    """Install a telemetry factory for subsequently created simulations."""
    global _factory
    _factory = factory


def uninstall() -> None:
    """Remove the installed factory (simulations revert to no telemetry)."""
    global _factory
    _factory = None


def is_installed() -> bool:
    """True while a telemetry factory is installed.

    The factory is *process-local* state: worker processes spawned by
    :func:`repro.parallel.run_tasks` never consult the parent's factory
    (forked workers explicitly clear any inherited one), because spans
    recorded in a worker could not reach the parent's exporters.
    ``run_tasks`` uses this predicate to refuse fan-out while telemetry
    is on, rather than silently dropping records.
    """
    return _factory is not None


def current_telemetry() -> object | None:
    """One telemetry instance for a new simulation (``None`` = disabled)."""
    return _factory() if _factory is not None else None


@contextmanager
def installed(factory: Callable[[], object]) -> Iterator[None]:
    """Scoped install/uninstall (the test and library-embedding interface)."""
    global _factory
    previous = _factory
    _factory = factory
    try:
        yield
    finally:
        _factory = previous
