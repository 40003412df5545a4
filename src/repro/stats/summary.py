"""Latency distribution summaries.

:class:`LatencySummary` is the unit of comparison throughout the
experiments: mean, standard deviation, the paper's tail metric (p95),
and the quartiles needed for the violin/box figures (Figs 6 and 10).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

__all__ = ["LatencySummary", "quantiles", "summarize"]


@dataclass(frozen=True)
class LatencySummary:
    """Moments and quantiles of a latency sample (seconds)."""

    count: int
    mean: float
    std: float
    p25: float
    p50: float
    p75: float
    p95: float
    p99: float
    min: float
    max: float

    @property
    def cv2(self) -> float:
        """Squared coefficient of variation of the sample."""
        if self.mean == 0:
            return 0.0
        return (self.std / self.mean) ** 2

    @property
    def iqr(self) -> float:
        """Interquartile range (box height in the Figure 10 box plot)."""
        return self.p75 - self.p25

    def as_ms(self) -> dict[str, float]:
        """Summary fields in milliseconds (for report rendering)."""
        return {
            "mean": self.mean * 1e3,
            "std": self.std * 1e3,
            "p25": self.p25 * 1e3,
            "p50": self.p50 * 1e3,
            "p75": self.p75 * 1e3,
            "p95": self.p95 * 1e3,
            "p99": self.p99 * 1e3,
            "min": self.min * 1e3,
            "max": self.max * 1e3,
        }

    def __str__(self) -> str:
        m = self.as_ms()
        return (
            f"n={self.count} mean={m['mean']:.2f}ms p50={m['p50']:.2f}ms "
            f"p95={m['p95']:.2f}ms p99={m['p99']:.2f}ms"
        )


def summarize(latencies: np.ndarray) -> LatencySummary:
    """Compute a :class:`LatencySummary` from a latency array (seconds).

    Raises
    ------
    ValueError
        If the sample is empty or contains negative/NaN values.
    """
    x = np.asarray(latencies, dtype=float)
    if x.size == 0:
        raise ValueError("cannot summarize an empty latency sample")
    if np.any(~np.isfinite(x)) or x.min() < 0:
        raise ValueError("latencies must be finite and non-negative")
    p25, p50, p75, p95, p99 = quantiles(x, (0.25, 0.5, 0.75, 0.95, 0.99))
    return LatencySummary(
        count=int(x.size),
        mean=float(x.mean()),
        std=float(x.std()),
        p25=p25,
        p50=p50,
        p75=p75,
        p95=p95,
        p99=p99,
        min=float(x.min()),
        max=float(x.max()),
    )


def quantiles(sample: np.ndarray | Sequence[float], qs: Sequence[float]) -> list[float]:
    """``np.quantile(sample, qs)`` for a non-empty, NaN-free sample, from one sort.

    NumPy's default (linear) method partitions the sample around every
    index it needs, which costs several times one ``np.sort`` for the
    handful of quantiles a summary reads.  This repeats its arithmetic
    on the sorted sample, operation for operation, so each value has the
    same bits: the virtual index ``v = (n - 1) * q``, its neighbours
    ``floor(v)`` and ``floor(v) + 1`` (both the last element, with
    ``floor(v)`` counted as -1, once ``v >= n - 1``), the weight
    ``t = v - floor(v)``, and ``a + (b - a) * t``, or
    ``b - (b - a) * (1 - t)`` when ``t >= 0.5``.  Equal values sort in
    any order, so a sample holding both 0.0 and -0.0 may give a zero
    of the other sign.
    """
    x = np.sort(np.asarray(sample, dtype=float))
    last = x.size - 1
    out = []
    for q in qs:
        v = last * q
        if v >= last:
            lo = -1
            a = b = x.item(-1)
        else:
            lo = math.floor(v)
            a, b = x.item(lo), x.item(lo + 1)
        t = v - lo
        d = b - a
        out.append(b - d * (1 - t) if t >= 0.5 else a + d * t)
    return out
