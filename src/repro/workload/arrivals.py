"""Arrival processes (the Gatling stand-in).

Generators for the request streams the paper drives its experiments
with: Poisson (the Section 3.1.1 model), deterministic, renewal
processes with tunable burstiness (Gamma and hyperexponential — used for
the CoV ablations of Corollary 3.2.1) and a two-state Markov-modulated
Poisson process for flash-crowd-like on/off bursts.

Each process generates a :class:`~repro.workload.trace.RequestTrace`
over a fixed horizon or with a fixed request count.  ``interarrival()``
exposes the matching gap distribution for plugging directly into an
:class:`~repro.sim.client.OpenLoopSource`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.queueing.distributions import (
    Deterministic,
    Distribution,
    Erlang,
    Exponential,
    HyperExponential,
)
from repro.workload.trace import RequestTrace

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "DeterministicArrivals",
    "GammaRenewalArrivals",
    "HyperExpArrivals",
    "MMPPArrivals",
    "NonHomogeneousPoisson",
]


class ArrivalProcess(ABC):
    """A stationary arrival process with a known mean rate."""

    def __init__(self, rate: float):
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        self.rate = float(rate)

    @abstractmethod
    def generate(
        self, rng: np.random.Generator, *, horizon: float | None = None, n: int | None = None
    ) -> RequestTrace:
        """Generate arrivals over ``[0, horizon)`` or exactly ``n`` of them."""

    @staticmethod
    def _resolve_count(rate: float, horizon: float | None, n: int | None) -> tuple[float, int]:
        if (horizon is None) == (n is None):
            raise ValueError("specify exactly one of horizon or n")
        if n is not None:
            if n < 1:
                raise ValueError(f"n must be >= 1, got {n}")
            return np.inf, int(n)
        if horizon <= 0:
            raise ValueError(f"horizon must be > 0, got {horizon}")
        # Generous over-draw, trimmed after cumsum.
        return float(horizon), int(rate * horizon + 6.0 * np.sqrt(rate * horizon) + 16)

    def _from_gaps(self, gaps: np.ndarray, horizon: float, n_exact: int | None) -> RequestTrace:
        times = np.cumsum(gaps)
        if n_exact is not None:
            return RequestTrace(times[:n_exact])
        return RequestTrace(times[times < horizon])


class _RenewalArrivals(ArrivalProcess):
    """Renewal process driven by an i.i.d. gap distribution."""

    def __init__(self, rate: float, gap_dist: Distribution):
        super().__init__(rate)
        self.gap_dist = gap_dist

    def interarrival(self) -> Distribution:
        """The gap distribution (mean ``1/rate``)."""
        return self.gap_dist

    @property
    def cv2(self) -> float:
        """Squared CoV of the inter-arrival gaps."""
        return self.gap_dist.cv2

    def generate(self, rng, *, horizon=None, n=None):
        hz, count = self._resolve_count(self.rate, horizon, n)
        gaps = np.asarray(self.gap_dist.sample(rng, count), dtype=float)
        # Top up in the (rare) under-draw case for horizon mode.
        while n is None and gaps.sum() < hz:
            gaps = np.concatenate([gaps, np.asarray(self.gap_dist.sample(rng, count))])
        return self._from_gaps(gaps, hz, n)


def _require_positive_rate(rate: float) -> float:
    if rate <= 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    return float(rate)


class PoissonArrivals(_RenewalArrivals):
    """Poisson arrivals at ``rate`` req/s (:math:`c_A^2 = 1`)."""

    def __init__(self, rate: float):
        rate = _require_positive_rate(rate)
        super().__init__(rate, Exponential(1.0 / rate))


class DeterministicArrivals(_RenewalArrivals):
    """Perfectly paced arrivals (:math:`c_A^2 = 0`)."""

    def __init__(self, rate: float):
        rate = _require_positive_rate(rate)
        super().__init__(rate, Deterministic(1.0 / rate))


class GammaRenewalArrivals(_RenewalArrivals):
    """Gamma-gap renewal process with sub-Poisson burstiness.

    ``cv2`` must be in (0, 1]; the gap distribution is Erlang with shape
    ``round(1/cv2)`` (exact CoV at integer reciprocals).
    """

    def __init__(self, rate: float, cv2: float):
        rate = _require_positive_rate(rate)
        if not 0.0 < cv2 <= 1.0:
            raise ValueError(f"GammaRenewalArrivals needs 0 < cv2 <= 1, got {cv2}")
        if cv2 == 1.0:
            gap: Distribution = Exponential(1.0 / rate)
        else:
            gap = Erlang(max(1, round(1.0 / cv2)), 1.0 / rate)
        super().__init__(rate, gap)


class HyperExpArrivals(_RenewalArrivals):
    """Bursty renewal arrivals with :math:`c_A^2 > 1` (balanced H2 gaps).

    The knob for the burstiness ablation: Corollary 3.2.1 says inversion
    likelihood grows with the inter-arrival CoV.
    """

    def __init__(self, rate: float, cv2: float):
        rate = _require_positive_rate(rate)
        if cv2 <= 1.0:
            raise ValueError(f"HyperExpArrivals needs cv2 > 1, got {cv2}")
        super().__init__(rate, HyperExponential.balanced(1.0 / rate, cv2))


class MMPPArrivals(ArrivalProcess):
    """Two-state Markov-modulated Poisson process (on/off bursts).

    Alternates between a *base* state with rate ``base_rate`` and a
    *burst* state with rate ``burst_rate``; dwell times in each state are
    exponential.  Models flash crowds (Section 2.1's workload spikes).

    Parameters
    ----------
    base_rate / burst_rate:
        Poisson rates in each state (req/s).
    base_dwell / burst_dwell:
        Mean sojourn times in each state (seconds).
    """

    def __init__(self, base_rate: float, burst_rate: float, base_dwell: float, burst_dwell: float):
        if min(base_rate, burst_rate) <= 0:
            raise ValueError("state rates must be > 0")
        if min(base_dwell, burst_dwell) <= 0:
            raise ValueError("dwell times must be > 0")
        p_burst = burst_dwell / (base_dwell + burst_dwell)
        super().__init__((1.0 - p_burst) * base_rate + p_burst * burst_rate)
        self.base_rate = float(base_rate)
        self.burst_rate = float(burst_rate)
        self.base_dwell = float(base_dwell)
        self.burst_dwell = float(burst_dwell)

    def generate(self, rng, *, horizon=None, n=None):
        if horizon is None:
            if n is None:
                raise ValueError("specify exactly one of horizon or n")
            # Simulate by horizon until enough arrivals accumulate.
            horizon_guess = 1.5 * n / self.rate
            while True:
                trace = self.generate(rng, horizon=horizon_guess)
                if len(trace) >= n:
                    return RequestTrace(trace.arrival_times[:n])
                horizon_guess *= 2.0
        if horizon <= 0:
            raise ValueError(f"horizon must be > 0, got {horizon}")
        times = []
        t = 0.0
        in_burst = rng.random() < self.burst_dwell / (self.base_dwell + self.burst_dwell)
        while t < horizon:
            dwell = rng.exponential(self.burst_dwell if in_burst else self.base_dwell)
            rate = self.burst_rate if in_burst else self.base_rate
            end = min(t + dwell, horizon)
            count = rng.poisson(rate * (end - t))
            if count:
                times.append(np.sort(rng.uniform(t, end, count)))
            t = end
            in_burst = not in_burst
        if not times:
            return RequestTrace(np.empty(0))
        return RequestTrace(np.concatenate(times))


class NonHomogeneousPoisson(ArrivalProcess):
    """Poisson process with a time-varying rate function (thinning).

    Models diurnal envelopes and ramps directly: ``rate_fn(t)`` gives
    the instantaneous rate (req/s) at virtual time ``t``; arrivals are
    generated by Lewis–Shedler thinning against ``max_rate``.

    Parameters
    ----------
    rate_fn:
        Callable ``t -> rate``; must satisfy ``0 <= rate_fn(t) <= max_rate``.
    max_rate:
        A hard upper bound on ``rate_fn`` over the horizon.
    mean_rate:
        The long-run average rate (reported as ``self.rate``); pass the
        analytic mean of ``rate_fn`` when known, else an estimate.
    """

    def __init__(self, rate_fn, max_rate: float, mean_rate: float | None = None):
        if max_rate <= 0:
            raise ValueError(f"max_rate must be > 0, got {max_rate}")
        super().__init__(mean_rate if mean_rate is not None else max_rate / 2.0)
        self.rate_fn = rate_fn
        self.max_rate = float(max_rate)

    def generate(self, rng, *, horizon=None, n=None):
        if horizon is None:
            raise ValueError("NonHomogeneousPoisson supports horizon mode only")
        if n is not None:
            raise ValueError("specify exactly one of horizon or n")
        if horizon <= 0:
            raise ValueError(f"horizon must be > 0, got {horizon}")
        # Lewis-Shedler thinning: candidates at max_rate, accept with
        # probability rate_fn(t)/max_rate.
        expected = self.max_rate * horizon
        count = int(expected + 6.0 * np.sqrt(expected) + 16)
        candidates = np.cumsum(rng.exponential(1.0 / self.max_rate, count))
        while candidates.size and candidates[-1] < horizon:
            extra = np.cumsum(rng.exponential(1.0 / self.max_rate, count)) + candidates[-1]
            candidates = np.concatenate([candidates, extra])
        candidates = candidates[candidates < horizon]
        rates = np.asarray([self.rate_fn(float(t)) for t in candidates], dtype=float)
        if np.any(rates < 0) or np.any(rates > self.max_rate * (1 + 1e-9)):
            raise ValueError("rate_fn must stay within [0, max_rate] over the horizon")
        keep = rng.random(candidates.size) < rates / self.max_rate
        return RequestTrace(candidates[keep])
