"""Parallel execution substrate: process fan-out + deterministic seeding.

Used by every layer that splits one experiment into independent runs:

* :mod:`repro.parallel.supervise` — :func:`run_tasks`, the one task
  executor: ordered fan-out over reusable supervised workers, in-process
  serial execution, per-task error naming and, on request
  (``timeout= / retries= / salvage= / journal=``), per-task deadlines,
  deterministically-jittered retries, :class:`TaskOutcome` envelopes and
  journal replay;
* :mod:`repro.parallel.seeding` — :class:`numpy.random.SeedSequence`
  based seed derivation, the collision-free replacement for arithmetic
  on raw integer seeds;
* :mod:`repro.parallel.chaos` — env-triggered worker-kill injection and
  the ``python -m repro.parallel.chaos`` self-test proving salvage,
  resume bit-identity and orphan-free interrupts.

The substrate's invariant: **parallel results are bit-identical to
sequential ones.**  Seeds depend only on the task's index under the
experiment's base seed, never on scheduling, so
``Comparator.sweep(workers=4)`` equals ``sweep(workers=1)`` value for
value — guarded by ``tests/parallel`` and
``benchmarks/test_parallel_scaling.py``.  See ``docs/performance.md``.
"""

from repro.parallel.seeding import (
    derive_rng,
    derive_seed,
    derive_seedseq,
    seed_sequence,
    spawn_child,
)
from repro.parallel.supervise import (
    ParallelTaskError,
    SupervisionStats,
    TaskOutcome,
    resolve_workers,
    run_tasks,
    supervision_stats,
)

__all__ = [
    "ParallelTaskError",
    "SupervisionStats",
    "TaskOutcome",
    "resolve_workers",
    "run_tasks",
    "supervision_stats",
    "derive_rng",
    "derive_seed",
    "derive_seedseq",
    "seed_sequence",
    "spawn_child",
]
