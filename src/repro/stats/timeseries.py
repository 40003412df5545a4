"""Windowed time series of latency metrics.

Figures 8 and 9 plot request rate and mean latency over wall-clock time;
these helpers bucket per-request samples into fixed windows.
"""

from __future__ import annotations

import numpy as np

__all__ = ["windowed_mean"]


def windowed_mean(
    times: np.ndarray, values: np.ndarray, window: float, horizon: float | None = None
):
    """Mean of ``values`` grouped into time windows.

    Parameters
    ----------
    times / values:
        Aligned sample timestamps (s) and values.
    window:
        Window width in seconds.
    horizon:
        Overall end time; defaults to the last sample.

    Returns
    -------
    (window_starts, means)
        Windows with no samples hold ``nan``.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.shape != v.shape:
        raise ValueError(f"times {t.shape} and values {v.shape} must align")
    if window <= 0:
        raise ValueError(f"window must be > 0, got {window}")
    if t.size == 0:
        edges = np.array([0.0])
    else:
        end = float(t.max()) if horizon is None else float(horizon)
        edges = np.arange(0.0, end + window, window)
    idx = np.clip(np.digitize(t, edges) - 1, 0, len(edges) - 2)
    sums = np.zeros(len(edges) - 1)
    counts = np.zeros(len(edges) - 1)
    np.add.at(sums, idx, v)
    np.add.at(counts, idx, 1.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        means = np.where(counts > 0, sums / counts, np.nan)
    return edges[:-1], means

