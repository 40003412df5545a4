"""Batch-means confidence intervals for steady-state simulation output.

Latency samples from one simulation run are autocorrelated (consecutive
requests share queue state), so the naive i.i.d. CI is too narrow.  The
standard remedy is the method of non-overlapping batch means: split the
run into b batches, treat batch averages as (approximately) independent,
and build a Student-t interval over them.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["batch_means_ci"]


def _t_critical(confidence: float, dof: int) -> float:
    """Two-sided Student-t critical value at ``confidence`` with ``dof`` degrees of freedom.

    The one place :mod:`repro` imports SciPy: ``scipy.stats`` takes about
    0.6 s to import, so it loads on the first interval computed, not with
    :mod:`repro.stats`, which every simulation imports.
    """
    from scipy import stats

    return float(stats.t.ppf(0.5 + confidence / 2.0, dof))


def batch_means_ci(
    samples: np.ndarray, batches: int = 20, confidence: float = 0.95
) -> tuple[float, float]:
    """Return ``(mean, half_width)`` of a batch-means confidence interval.

    Parameters
    ----------
    samples:
        Ordered per-request samples from a single run (post warm-up).
    batches:
        Number of equal batches (≥ 2); trailing remainder samples are
        dropped so batches stay equal-sized.
    confidence:
        Two-sided confidence level in (0, 1).
    """
    x = np.asarray(samples, dtype=float)
    if batches < 2:
        raise ValueError(f"batches must be >= 2, got {batches}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if x.size < 2 * batches:
        raise ValueError(
            f"need at least 2 samples per batch ({2 * batches}), got {x.size}"
        )
    per = x.size // batches
    means = x[: per * batches].reshape(batches, per).mean(axis=1)
    grand = float(means.mean())
    se = float(means.std(ddof=1)) / math.sqrt(batches)
    return grand, _t_critical(confidence, batches - 1) * se
