"""Deterministic seed derivation for split-up simulation runs.

Every layer that fans one experiment into many independent runs — sweep
points, replications, paired edge/cloud runs, per-component RNG streams
inside one simulation — needs child seeds that are (a) reproducible from
the experiment's base seed, (b) statistically independent of each other,
and (c) collision-free *across* experiments.  Raw integer arithmetic
(``base + r``, ``base + 7919 * i``) fails (c): ``replicate(base_seed=0)``
and a comparator at ``seed=0`` used to feed overlapping integers straight
into :func:`numpy.random.default_rng`, silently correlating experiments
that believe they are independent.

The fix is the one NumPy designed for this: every derivation goes
through :class:`numpy.random.SeedSequence`, which hashes the base
entropy together with a *spawn key* (the child's integer path) so that
distinct paths yield well-separated streams regardless of how close the
base seeds are.  The helpers here are the single point all of
:mod:`repro` routes through:

* :func:`seed_sequence` — normalize ``int | None | SeedSequence``;
* :func:`derive_seedseq` / :func:`derive_rng` — the child stream at an
  integer path under a base seed (``derive_seedseq(s, i) ==
  seed_sequence(s).spawn(i + 1)[i]`` by SeedSequence's spawn-key
  construction);
* :func:`derive_seed` — the same child collapsed to one 64-bit integer,
  for APIs whose contract is "callable takes an int seed";
* :func:`spawn_child` — sequential children of a live
  :class:`~numpy.random.SeedSequence` (what
  :meth:`repro.sim.engine.Simulation.spawn_rng` uses).

Determinism contract: the same ``(base seed, path)`` always produces the
same stream, independent of process, worker count, or the order in which
sibling paths are evaluated — which is exactly what lets
:func:`repro.parallel.run_tasks` promise bit-identical results for any
``workers``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SeedLike",
    "seed_sequence",
    "derive_seedseq",
    "derive_seed",
    "derive_rng",
    "spawn_child",
]


#: Anything accepted as a base seed: an int, an existing SeedSequence,
#: or None for fresh OS entropy.
SeedLike = int | np.random.SeedSequence | None


def seed_sequence(seed: SeedLike) -> np.random.SeedSequence:
    """Normalize a base seed to a :class:`~numpy.random.SeedSequence`.

    ``None`` draws fresh OS entropy (a deliberately irreproducible run);
    an existing ``SeedSequence`` passes through unchanged.
    """
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if seed is not None:
        seed = int(seed)
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
    return np.random.SeedSequence(seed)


def derive_seedseq(base_seed: SeedLike, *path: int) -> np.random.SeedSequence:
    """Child ``SeedSequence`` at integer ``path`` under ``base_seed``.

    The path is the child's coordinates in the experiment's fan-out tree
    (e.g. ``(sweep_point_index,)`` or ``(replication, stage)``).  Distinct
    paths give independent streams; the empty path is the base itself.
    """
    if not path:
        return seed_sequence(base_seed)
    key = []
    for p in path:
        p = int(p)
        if p < 0:
            raise ValueError(f"path components must be >= 0, got {path}")
        key.append(p)
    base = seed_sequence(base_seed)
    return np.random.SeedSequence(entropy=base.entropy, spawn_key=tuple(key))


def derive_seed(base_seed: SeedLike, *path: int) -> int:
    """Child seed at ``path`` collapsed to one non-negative 64-bit int.

    For APIs whose contract is an integer seed (``experiment(seed)`` in
    :func:`repro.stats.replications.replicate`).  Feeding the result back into
    :func:`numpy.random.default_rng` re-enters SeedSequence hashing, so
    the indirection loses no independence.
    """
    return int(derive_seedseq(base_seed, *path).generate_state(1, np.uint64)[0])


def derive_rng(base_seed: SeedLike, *path: int) -> np.random.Generator:
    """Ready-made :class:`~numpy.random.Generator` for the child at ``path``."""
    return np.random.default_rng(derive_seedseq(base_seed, *path))


def spawn_child(parent: np.random.SeedSequence) -> np.random.SeedSequence:
    """Next sequential child of a live ``SeedSequence`` (stateful).

    Children are numbered by spawn order (``parent.spawn_key + (n,)``),
    so a component that spawns streams in construction order gets the
    same streams on every run — the in-simulation analogue of
    :func:`derive_seedseq`.
    """
    return parent.spawn(1)[0]
