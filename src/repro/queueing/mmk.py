"""Exact steady-state results for the M/M/k queue, plus Whitt's approximation.

The paper's cloud deployment is a single FCFS queue feeding :math:`k`
servers (Figure 1b), i.e. an M/M/k system under Poisson arrivals.  This
module provides Erlang B/C, exact mean waits, the full waiting- and
response-time distributions, and the conditional-wait approximation from
Whitt (1992) that the paper's Lemma 3.1 builds on (its Equation 6).
"""

from __future__ import annotations

import math

import numpy as np

from repro.queueing.base import ensure_stable
from repro.queueing.roots import brentq

__all__ = ["erlang_b", "erlang_c", "whitt_conditional_wait", "MMk"]


def erlang_b(servers: int, offered_load: float) -> float:
    """Erlang B blocking probability for ``servers`` lines and ``offered_load`` Erlangs.

    Computed with the numerically stable recurrence
    :math:`B_0 = 1`, :math:`B_j = a B_{j-1} / (j + a B_{j-1})`.
    """
    if servers < 1:
        raise ValueError(f"servers must be >= 1, got {servers}")
    if offered_load < 0:
        raise ValueError(f"offered_load must be >= 0, got {offered_load}")
    b = 1.0
    for j in range(1, servers + 1):
        b = offered_load * b / (j + offered_load * b)
    return b


def erlang_c(servers: int, offered_load: float) -> float:
    """Erlang C probability of waiting, :math:`P(W_q > 0)`, for an M/M/k queue.

    ``offered_load`` is :math:`a = \\lambda/\\mu`; requires :math:`a < k`
    for a proper steady state.
    """
    if offered_load >= servers:
        raise ValueError(
            f"offered_load ({offered_load}) must be < servers ({servers}) for stability"
        )
    rho = offered_load / servers
    b = erlang_b(servers, offered_load)
    return b / (1.0 - rho * (1.0 - b))


def whitt_conditional_wait(servers: int, rho: float) -> float:
    """Whitt's conditional-wait approximation, the paper's Equation 6.

    .. math:: E[W_q \\mid W_q > 0] \\approx \\frac{\\sqrt{2}}{(1-\\rho)\\sqrt{k}}

    This is the dimensionless form printed in the paper (time measured in
    units of the mean service time; see DESIGN.md §6 on units).  Multiply
    by the mean service time :math:`1/\\mu` for seconds.
    """
    if servers < 1:
        raise ValueError(f"servers must be >= 1, got {servers}")
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"rho must be in [0, 1), got {rho}")
    return math.sqrt(2.0) / ((1.0 - rho) * math.sqrt(servers))


class MMk:
    """M/M/k FCFS queue: Poisson arrivals at rate ``arrival_rate``, ``servers`` servers each at rate ``service_rate``.

    Raises
    ------
    StabilityError
        If :math:`\\lambda \\ge k\\mu`.
    """

    def __init__(self, arrival_rate: float, service_rate: float, servers: int) -> None:
        self._rho = ensure_stable(arrival_rate, service_rate, servers)
        self.arrival_rate = float(arrival_rate)
        self.service_rate = float(service_rate)
        self.servers = int(servers)
        self.offered_load = arrival_rate / service_rate
        self._prob_wait = erlang_c(self.servers, self.offered_load)

    @property
    def utilization(self) -> float:
        """:math:`\\rho = \\lambda/(k\\mu)`."""
        return self._rho

    def prob_wait(self) -> float:
        """Erlang C probability that an arrival waits."""
        return self._prob_wait

    @property
    def _drain_rate(self) -> float:
        """Rate :math:`\\theta = k\\mu - \\lambda` of the conditional wait."""
        return self.servers * self.service_rate - self.arrival_rate

    def mean_wait(self) -> float:
        """:math:`E[W_q] = C(k, a) / (k\\mu - \\lambda)`."""
        return self._prob_wait / self._drain_rate

    def mean_conditional_wait(self) -> float:
        """Exact :math:`E[W_q \\mid W_q>0] = 1/(k\\mu - \\lambda)`."""
        return 1.0 / self._drain_rate

    def whitt_conditional_wait(self) -> float:
        """Whitt's approximation of the conditional wait, in seconds.

        The paper's Equation 6 expressed in time units:
        :math:`\\sqrt{2}/(\\mu (1-\\rho) \\sqrt{k})` — note it differs from
        the exact value :math:`1/(k\\mu(1-\\rho))` by a factor
        :math:`\\sqrt{2k}` (the paper uses it as a comparative bound).
        """
        return whitt_conditional_wait(self.servers, self._rho) / self.service_rate

    def mean_response(self) -> float:
        """:math:`E[T] = E[W_q] + 1/\\mu`."""
        return self.mean_wait() + 1.0 / self.service_rate

    def mean_queue_length(self) -> float:
        """:math:`E[L_q] = \\lambda E[W_q]` (Little's law)."""
        return self.arrival_rate * self.mean_wait()

    def mean_number_in_system(self) -> float:
        """:math:`E[L] = \\lambda E[T]` (Little's law)."""
        return self.arrival_rate * self.mean_response()

    def waiting_time_cdf(self, t: float | np.ndarray) -> np.ndarray:
        """CDF of the queueing delay, :math:`1 - C e^{-(k\\mu-\\lambda)t}` for t ≥ 0."""
        t = np.asarray(t, dtype=float)
        out = 1.0 - self._prob_wait * np.exp(-self._drain_rate * np.maximum(t, 0.0))
        return np.where(t < 0, 0.0, out)

    def waiting_time_percentile(self, q: float) -> float:
        """Quantile of the queueing delay; 0 inside the atom at zero."""
        if not 0.0 < q < 1.0:
            raise ValueError(f"q must be in (0, 1), got {q}")
        if q <= 1.0 - self._prob_wait:
            return 0.0
        return -math.log((1.0 - q) / self._prob_wait) / self._drain_rate

    def response_time_cdf(self, t: float | np.ndarray) -> np.ndarray:
        """Exact CDF of the response time :math:`T = W_q + S`.

        With :math:`\\theta = k\\mu - \\lambda` and Erlang-C probability
        :math:`C`:

        .. math::
           F_T(t) = (1-C)(1 - e^{-\\mu t})
                    + C\\Big[1 - e^{-\\theta t}
                    - \\frac{\\theta (e^{-\\mu t} - e^{-\\theta t})}{\\theta - \\mu}\\Big]

        with the :math:`\\theta \\to \\mu` limit handled explicitly.
        """
        t = np.asarray(t, dtype=float)
        tt = np.maximum(t, 0.0)
        mu, theta, c = self.service_rate, self._drain_rate, self._prob_wait
        no_wait = (1.0 - c) * (1.0 - np.exp(-mu * tt))
        if math.isclose(theta, mu, rel_tol=1e-9):
            waited = c * (1.0 - np.exp(-theta * tt) - theta * tt * np.exp(-mu * tt))
        else:
            cross = theta * (np.exp(-mu * tt) - np.exp(-theta * tt)) / (theta - mu)
            waited = c * (1.0 - np.exp(-theta * tt) - cross)
        return np.where(t < 0, 0.0, no_wait + waited)

    def response_time_percentile(self, q: float) -> float:
        """Quantile of the response time via numeric inversion of the CDF."""
        if not 0.0 < q < 1.0:
            raise ValueError(f"q must be in (0, 1), got {q}")
        # Bracket: response is at least as large as an Exp(mu) and at most
        # (in quantile) an Exp(min(mu, theta)) plus constants; expand upper
        # bound geometrically until the CDF passes q.
        lo = 0.0
        hi = 10.0 / min(self.service_rate, self._drain_rate)
        while float(self.response_time_cdf(hi)) < q:
            hi *= 2.0
        return float(brentq(lambda t: float(self.response_time_cdf(t)) - q, lo, hi))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MMk(arrival_rate={self.arrival_rate}, service_rate={self.service_rate}, "
            f"servers={self.servers}, rho={self._rho:.4f})"
        )
