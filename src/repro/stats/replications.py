"""Independent-replications analysis for simulation experiments.

Batch means (:mod:`repro.stats.ci`) handles within-run autocorrelation;
the complementary technique is R *independent replications* with
different seeds, which also captures across-run variability (different
random paths through the warm-up and rare-event structure).  This
module provides:

* :func:`replicate` — run a seeded experiment R times and collect a
  statistic per run;
* :class:`ReplicationSummary` — mean, Student-t CI and relative
  half-width of the replicate statistics;
* :func:`replications_for_precision` — the standard sequential rule:
  keep adding replications until the CI's relative half-width is below
  a target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Callable

import numpy as np

from repro.parallel import derive_seed, resolve_workers, run_tasks
from repro.stats.ci import _t_critical

__all__ = ["ReplicationSummary", "replicate", "replications_for_precision"]


@dataclass(frozen=True)
class ReplicationSummary:
    """Aggregate of one statistic over independent replications."""

    values: tuple[float, ...]
    confidence: float

    @property
    def n(self) -> int:
        """Number of replications."""
        return len(self.values)

    @property
    def mean(self) -> float:
        """Grand mean over replications."""
        return float(np.mean(self.values))

    @property
    def std(self) -> float:
        """Sample standard deviation across replications."""
        if self.n < 2:
            return 0.0
        return float(np.std(self.values, ddof=1))

    @property
    def half_width(self) -> float:
        """Student-t CI half-width at the configured confidence."""
        if self.n < 2:
            return math.inf
        return _t_critical(self.confidence, self.n - 1) * self.std / math.sqrt(self.n)

    @property
    def relative_half_width(self) -> float:
        """Half-width relative to the mean (∞ for a zero mean)."""
        if self.mean == 0.0:
            return math.inf
        return self.half_width / abs(self.mean)

    def contains(self, value: float) -> bool:
        """True if ``value`` lies inside the confidence interval."""
        return abs(value - self.mean) <= self.half_width

    def __str__(self) -> str:
        return (
            f"{self.mean:.6g} ± {self.half_width:.3g} "
            f"({self.confidence:.0%} CI, n={self.n})"
        )


def _experiment_id(experiment: Callable) -> str:
    """Stable identity of the experiment callable for journal scoping."""
    module = getattr(experiment, "__module__", "?")
    name = getattr(experiment, "__qualname__", repr(experiment))
    return f"{module}.{name}"


def _replication_seeds(base_seed: int, start: int, stop: int) -> list[int]:
    """Seeds for replications ``start..stop-1`` under ``base_seed``.

    Derived via :func:`repro.parallel.derive_seed` (SeedSequence
    spawning), so replication r of one experiment can never alias
    replication r' of another experiment with a nearby base seed — the
    collision hazard raw ``base_seed + r`` arithmetic had.
    """
    return [derive_seed(base_seed, r) for r in range(start, stop)]


def replicate(
    experiment: Callable[[int], float],
    replications: int,
    *,
    base_seed: int = 0,
    confidence: float = 0.95,
    workers: int | None = None,
    checkpoint=None,
    resume: bool = False,
) -> ReplicationSummary:
    """Run ``experiment(seed)`` for R distinct seeds and aggregate.

    Parameters
    ----------
    experiment:
        Callable mapping a seed to a scalar statistic (e.g. a run's mean
        latency).  Must be picklable (a module-level function) for
        ``workers > 1``; lambdas/closures fall back to serial with a
        warning.
    replications:
        Number of independent runs (≥ 2 for a usable CI).
    base_seed:
        Root of the seed derivation; replication ``r`` runs with the
        SeedSequence-derived child seed at path ``(r,)`` — independent
        across replications *and* across experiments.
    workers:
        Process count for the fan-out (``None`` = ``$REPRO_WORKERS`` or
        1).  Seeds depend only on the replication index, so the summary
        is bit-identical for every worker count.
    checkpoint:
        Journal path (or open :class:`repro.experiments.store.RunJournal`):
        completed replications replay from disk on a rerun, fresh ones
        are durably appended — a killed campaign resumes bit-identically.
    resume:
        Require the checkpoint file to already exist (fail fast on a
        mistyped path); a ``ValueError`` without ``checkpoint``.
    """
    if replications < 2:
        raise ValueError(f"replications must be >= 2, got {replications}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    from repro.experiments.store import open_journal

    scope = f"replicate|{_experiment_id(experiment)}|base_seed={base_seed}"
    journal, owned = open_journal(checkpoint, scope=scope, resume=resume)
    try:
        results = run_tasks(
            experiment,
            [(s,) for s in _replication_seeds(base_seed, 0, replications)],
            workers=workers,
            label="replication",
            base_seed=base_seed,
            journal=journal,
        )
    finally:
        if owned:
            journal.close()
    values = tuple(float(v) for v in results)
    return ReplicationSummary(values=values, confidence=confidence)


def replications_for_precision(
    experiment: Callable[[int], float],
    target_relative_half_width: float,
    *,
    base_seed: int = 0,
    confidence: float = 0.95,
    initial: int = 5,
    max_replications: int = 100,
    workers: int | None = None,
) -> ReplicationSummary:
    """Sequentially add replications until the CI is tight enough.

    The classic two-stage/sequential procedure: start with ``initial``
    runs, then add while the relative half-width exceeds the target.
    With ``workers > 1`` new replications are computed in parallel
    batches of ``workers``, but the stopping rule is still evaluated
    value-by-value in replication order: the returned summary is
    bit-identical to the sequential procedure for every worker count (at
    the cost of up to ``workers - 1`` computed-but-discarded runs past
    the stopping point).

    Raises
    ------
    RuntimeError
        If the precision target is not reached within
        ``max_replications`` runs.
    """
    if target_relative_half_width <= 0:
        raise ValueError(
            f"target_relative_half_width must be > 0, got {target_relative_half_width}"
        )
    if not 2 <= initial <= max_replications:
        raise ValueError("need 2 <= initial <= max_replications")
    batch = resolve_workers(workers)

    def _batch(start: int, stop: int) -> list[float]:
        seeds = _replication_seeds(base_seed, start, stop)
        return [
            float(v)
            for v in run_tasks(
                experiment, [(s,) for s in seeds], workers=workers, label="replication"
            )
        ]

    values = _batch(0, initial)
    summary = ReplicationSummary(values=tuple(values), confidence=confidence)
    while summary.relative_half_width > target_relative_half_width:
        if len(values) >= max_replications:
            raise RuntimeError(
                f"precision {target_relative_half_width} not reached after "
                f"{max_replications} replications (at {summary.relative_half_width:.3g})"
            )
        extension = _batch(
            len(values), min(len(values) + batch, max_replications)
        )
        # Replay the sequential stopping rule over the batch: stop at the
        # first prefix that meets the target, discarding the rest.
        for value in extension:
            values.append(value)
            summary = ReplicationSummary(values=tuple(values), confidence=confidence)
            if summary.relative_half_width <= target_relative_half_width:
                break
    return summary
