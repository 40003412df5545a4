"""Arrival processes that are not renewal processes.

A renewal stream (Poisson, paced, Erlang or hyperexponential gaps) is a
gap :class:`~repro.queueing.distributions.Distribution`: an
:class:`~repro.sim.client.OpenLoopSource` samples it directly, and the
comparator cumulates its samples into arrival times.  This module holds
the two processes a gap distribution cannot express: a two-state
Markov-modulated Poisson process for flash-crowd-like on/off bursts, and
a non-homogeneous Poisson process for diurnal envelopes and ramps.  Each
generates a :class:`~repro.workload.trace.RequestTrace`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.workload.trace import RequestTrace

__all__ = [
    "ArrivalProcess",
    "MMPPArrivals",
    "NonHomogeneousPoisson",
]


class ArrivalProcess(ABC):
    """An arrival process with a known long-run mean rate."""

    def __init__(self, rate: float):
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        self.rate = float(rate)

    @abstractmethod
    def generate(
        self, rng: np.random.Generator, *, horizon: float | None = None, n: int | None = None
    ) -> RequestTrace:
        """Generate arrivals over ``[0, horizon)`` or exactly ``n`` of them."""


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
