"""Exact M/M/c/K: the finite-capacity (loss) queue.

The bounded stations used for overload experiments
(:class:`repro.sim.station.Station` with ``queue_capacity``) are
M/M/c/K systems under Poisson/exponential traffic.  This module gives
their exact steady state — blocking probability, throughput, and the
mean wait of *accepted* requests — so the simulator's loss behaviour
can be validated against theory and overload scenarios can be sized
analytically.

``K`` counts every request in the system (in service + waiting), so
``K = c`` is the pure-loss Erlang-B system and ``K → ∞`` recovers
M/M/c.
"""

from __future__ import annotations

import numpy as np

__all__ = ["MMcK"]


class MMcK:
    """M/M/c/K queue (c servers, at most K in system).

    Parameters
    ----------
    arrival_rate:
        Offered Poisson rate :math:`\\lambda` (req/s) — may exceed
        capacity; the queue is always stable thanks to blocking.
    service_rate:
        Per-server exponential rate :math:`\\mu` (req/s).
    servers:
        Number of servers ``c``.
    capacity:
        System capacity ``K`` ≥ ``c``.
    """

    def __init__(self, arrival_rate: float, service_rate: float, servers: int, capacity: int) -> None:
        if arrival_rate < 0 or service_rate <= 0:
            raise ValueError("need arrival_rate >= 0 and service_rate > 0")
        if servers < 1:
            raise ValueError(f"servers must be >= 1, got {servers}")
        if capacity < servers:
            raise ValueError(f"capacity ({capacity}) must be >= servers ({servers})")
        self.arrival_rate = float(arrival_rate)
        self.service_rate = float(service_rate)
        self.servers = int(servers)
        self.capacity = int(capacity)
        self._probs = self._steady_state()

    def _steady_state(self) -> np.ndarray:
        """State probabilities p_0..p_K via the birth–death balance."""
        c, K = self.servers, self.capacity
        a = self.arrival_rate / self.service_rate
        # Unnormalized terms, built multiplicatively for stability.
        terms = np.empty(K + 1)
        terms[0] = 1.0
        for n in range(1, K + 1):
            rate_ratio = a / min(n, c)
            terms[n] = terms[n - 1] * rate_ratio
        return terms / terms.sum()

    def state_probabilities(self) -> np.ndarray:
        """:math:`P(N = n)` for n = 0..K."""
        return self._probs.copy()

    def blocking_probability(self) -> float:
        """:math:`P(N = K)` — the fraction of arrivals dropped (PASTA)."""
        return float(self._probs[-1])

    def throughput(self) -> float:
        """Accepted-request rate :math:`\\lambda (1 - P_K)` (req/s)."""
        return self.arrival_rate * (1.0 - self.blocking_probability())

    def mean_number_in_system(self) -> float:
        """:math:`E[N]`."""
        return float(np.dot(np.arange(self.capacity + 1), self._probs))

    def mean_queue_length(self) -> float:
        """:math:`E[\\max(N - c, 0)]`."""
        n = np.arange(self.capacity + 1)
        return float(np.dot(np.maximum(n - self.servers, 0), self._probs))

    def mean_response(self) -> float:
        """Mean time in system of an *accepted* request (Little's law)."""
        thr = self.throughput()
        if thr == 0.0:
            return 0.0
        return self.mean_number_in_system() / thr

    def mean_wait(self) -> float:
        """Mean queueing delay of an accepted request."""
        thr = self.throughput()
        if thr == 0.0:
            return 0.0
        return self.mean_queue_length() / thr

    def utilization(self) -> float:
        """Fraction of server capacity busy: throughput / (c μ)."""
        return self.throughput() / (self.servers * self.service_rate)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MMcK(lambda={self.arrival_rate}, mu={self.service_rate}, "
            f"c={self.servers}, K={self.capacity}, "
            f"P_block={self.blocking_probability():.4f})"
        )
