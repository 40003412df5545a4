"""Heavy-traffic tail approximations for GI/G/1 and GI/G/k waits.

The exact waiting-time distributions used by :mod:`repro.core.tail` are
M/M-only.  For general arrival/service processes the standard tool is
the heavy-traffic (Kingman) exponential approximation:

.. math::
   P(W_q > t) \\approx P(W_q > 0)\\,e^{-t / E[W_q \\mid W_q > 0]}

with the mean wait from Allen–Cunneen and the probability of delay from
Erlang-C.  The approximation is asymptotically exact as ρ → 1 and is
the workhorse behind tail-SLO sizing rules in practice; the tests bound
its error against simulation in the regimes the paper's experiments
occupy.
"""

from __future__ import annotations

import math

import numpy as np

from repro.queueing.base import ensure_stable
from repro.queueing.ggk import allen_cunneen_wait
from repro.queueing.mmk import erlang_c

__all__ = ["gg_wait_tail", "gg_wait_percentile", "gg_response_percentile"]


def _delay_parameters(
    arrival_rate: float,
    service_rate: float,
    servers: int,
    ca2: float,
    cs2: float,
) -> tuple[float, float]:
    """Return ``(P(Wq > 0), E[Wq | Wq > 0])`` under the approximation."""
    ensure_stable(arrival_rate, service_rate, servers)
    ps = erlang_c(servers, arrival_rate / service_rate)
    mean_wait = allen_cunneen_wait(
        arrival_rate, service_rate, servers, ca2, cs2, prob_wait="erlang"
    )
    if ps <= 0.0:
        return 0.0, 0.0
    return ps, mean_wait / ps


def gg_wait_tail(
    t: float | np.ndarray,
    arrival_rate: float,
    service_rate: float,
    servers: int,
    ca2: float = 1.0,
    cs2: float = 1.0,
) -> np.ndarray:
    """Approximate :math:`P(W_q > t)` for a GI/G/k queue.

    Exact for M/M/k (``ca2 = cs2 = 1``); heavy-traffic approximation
    otherwise.
    """
    t = np.asarray(t, dtype=float)
    ps, cond = _delay_parameters(arrival_rate, service_rate, servers, ca2, cs2)
    if ps == 0.0:
        return np.where(t >= 0, 0.0, 1.0)
    out = ps * np.exp(-np.maximum(t, 0.0) / cond)
    return np.where(t < 0, 1.0, out)


def gg_wait_percentile(
    q: float,
    arrival_rate: float,
    service_rate: float,
    servers: int,
    ca2: float = 1.0,
    cs2: float = 1.0,
) -> float:
    """Approximate q-quantile of the GI/G/k waiting time, in seconds.

    Returns 0 inside the atom at zero (``q ≤ 1 − P(Wq>0)``).
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q}")
    ps, cond = _delay_parameters(arrival_rate, service_rate, servers, ca2, cs2)
    if ps == 0.0 or q <= 1.0 - ps:
        return 0.0
    return -cond * math.log((1.0 - q) / ps)


def gg_response_percentile(
    q: float,
    arrival_rate: float,
    service_rate: float,
    servers: int,
    ca2: float = 1.0,
    cs2: float = 1.0,
) -> float:
    """Approximate q-quantile of the response time ``T = Wq + S``.

    Uses the common engineering decomposition
    ``t_q(T) ≈ t_q(Wq) + E[S]`` (wait quantile plus mean service).
    """
    wait_q = gg_wait_percentile(q, arrival_rate, service_rate, servers, ca2, cs2)
    return wait_q + 1.0 / service_rate
