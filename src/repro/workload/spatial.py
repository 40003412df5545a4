"""Spatial workload-skew models.

Two generators for the paper's spatial dynamics:

* :func:`zipf_weights` — static Zipf split of the aggregate load across
  k sites (the standard popularity-skew model; ``s = 0`` is balanced).
* :class:`HotspotGrid` — the Figure 2 stand-in: a hexagonal grid of
  1 km-radius edge cells under a Gaussian-mixture mobility intensity
  whose hotspots drift over the day, reproducing the skewed per-cell
  load box plot derived from the San Francisco taxi GPS traces.
"""

from __future__ import annotations

import numpy as np

__all__ = ["zipf_weights", "HotspotGrid"]


def zipf_weights(k: int, s: float) -> np.ndarray:
    """Normalized Zipf weights :math:`w_i \\propto i^{-s}` for k sites.

    ``s = 0`` gives the balanced split :math:`1/k`; larger ``s``
    concentrates load on the first sites.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if s < 0:
        raise ValueError(f"s must be >= 0, got {s}")
    w = np.arange(1, k + 1, dtype=float) ** -s
    return w / w.sum()


class HotspotGrid:
    """Gaussian-mixture mobility intensity over a hex grid of edge cells.

    Parameters
    ----------
    rows / cols:
        Grid dimensions; cells sit at offset hex centers with unit pitch
        (≈2 km for the paper's 1 km-radius cells).
    hotspots:
        Number of Gaussian intensity bumps (city centers, districts).
    hotspot_sigma:
        Spatial std-dev of each bump, in cell pitches.
    drift_radius:
        How far bump centers move over a diurnal cycle, in cell pitches.
    baseline:
        Uniform background intensity fraction in [0, 1).
    seed:
        Seed for hotspot placement.
    """

    def __init__(
        self,
        rows: int = 10,
        cols: int = 10,
        hotspots: int = 3,
        hotspot_sigma: float = 1.0,
        drift_radius: float = 2.0,
        baseline: float = 0.05,
        seed: int = 0,
    ):
        if rows < 1 or cols < 1:
            raise ValueError("grid must have at least one cell")
        if hotspots < 1:
            raise ValueError(f"hotspots must be >= 1, got {hotspots}")
        if hotspot_sigma <= 0:
            raise ValueError(f"hotspot_sigma must be > 0, got {hotspot_sigma}")
        if not 0.0 <= baseline < 1.0:
            raise ValueError(f"baseline must be in [0, 1), got {baseline}")
        self.rows, self.cols = int(rows), int(cols)
        self.hotspot_sigma = float(hotspot_sigma)
        self.drift_radius = float(drift_radius)
        self.baseline = float(baseline)
        rng = np.random.default_rng(seed)
        # Offset (hex-like) cell centers with unit pitch.
        r, c = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
        self.centers = np.stack(
            [c + 0.5 * (r % 2), r * np.sqrt(3.0) / 2.0], axis=-1
        ).reshape(-1, 2)
        span = np.array([cols, rows * np.sqrt(3.0) / 2.0])
        self.hotspot_homes = rng.uniform(0.2, 0.8, (hotspots, 2)) * span
        self.hotspot_weights = rng.dirichlet(np.full(hotspots, 2.0))
        self.hotspot_phases = rng.uniform(0.0, 2.0 * np.pi, hotspots)

    @property
    def n_cells(self) -> int:
        """Number of edge cells in the grid."""
        return self.centers.shape[0]

    def cell_weights(self, t: float, period: float = 86_400.0) -> np.ndarray:
        """Per-cell load fractions at time ``t`` (sums to 1).

        Hotspot centers orbit their home positions with the diurnal
        phase, shifting which cells are hot between day and night.
        """
        if period <= 0:
            raise ValueError(f"period must be > 0, got {period}")
        angle = 2.0 * np.pi * t / period
        offsets = self.drift_radius * np.stack(
            [np.cos(angle + self.hotspot_phases), np.sin(angle + self.hotspot_phases)],
            axis=-1,
        )
        centers = self.hotspot_homes + offsets
        d2 = ((self.centers[:, None, :] - centers[None, :, :]) ** 2).sum(axis=-1)
        bumps = np.exp(-d2 / (2.0 * self.hotspot_sigma**2)) @ self.hotspot_weights
        intensity = self.baseline / self.n_cells + (1.0 - self.baseline) * bumps
        return intensity / intensity.sum()

    def sample_cell_loads(
        self,
        rng: np.random.Generator,
        total_rate: float,
        times: np.ndarray,
        window: float,
        period: float = 86_400.0,
    ) -> np.ndarray:
        """Per-cell request counts in windows at each of ``times``.

        Returns an array of shape ``(n_cells, len(times))`` — the data
        behind Figure 2's per-cell load box plot (cells × time samples).
        """
        if total_rate <= 0 or window <= 0:
            raise ValueError("total_rate and window must be > 0")
        times = np.asarray(times, dtype=float)
        out = np.empty((self.n_cells, times.size))
        for j, t in enumerate(times):
            w = self.cell_weights(float(t), period)
            out[:, j] = rng.poisson(total_rate * window * w)
        return out

    def skew_statistics(self, loads: np.ndarray) -> dict[str, float]:
        """Summary of per-cell load imbalance (Figure 2's takeaway).

        Returns the max/mean and p95/median load ratios across cells and
        the coefficient of variation of mean per-cell loads.
        """
        if loads.ndim != 2 or loads.shape[0] != self.n_cells:
            raise ValueError(f"loads must be (n_cells={self.n_cells}, T), got {loads.shape}")
        per_cell = loads.mean(axis=1)
        mean = per_cell.mean()
        median = np.median(per_cell)
        return {
            "max_over_mean": float(per_cell.max() / mean) if mean > 0 else 0.0,
            "p95_over_median": float(np.quantile(per_cell, 0.95) / median)
            if median > 0
            else float("inf"),
            "cell_cv": float(per_cell.std() / mean) if mean > 0 else 0.0,
        }
