"""Quasi-stationary prediction of time-varying latency (Figure 9, analytically).

The Azure-trace experiments show edge latency oscillating with the
workload.  When the workload changes slowly relative to the queue's
relaxation time, each window is approximately in the steady state of
its own instantaneous rate — the **quasi-stationary approximation**.
This module predicts a deployment's windowed mean latency directly from
a trace's windowed rates and exact M/M/c theory (saturated windows fall
back to the finite-capacity M/M/c/K model so predictions stay finite),
giving an analytic counterpart to the simulated Figure 9 series.
"""

from __future__ import annotations

import numpy as np

from repro.queueing.mmck import MMcK
from repro.workload.trace import RequestTrace

__all__ = ["quasi_stationary_latency", "predict_windowed_series"]


def quasi_stationary_latency(
    rate: float,
    mu: float,
    servers: int,
    *,
    rtt: float = 0.0,
    overload_capacity: int | None = None,
) -> float:
    """Steady-state mean end-to-end latency at one instantaneous rate.

    Evaluated on the finite-capacity M/M/c/K model with a large default
    capacity (``max(50, 10 × servers)``): far below saturation this is
    numerically indistinguishable from M/M/c, while saturated windows
    stay finite and the response remains *monotone in the rate* — a
    threshold switch between unbounded and bounded models would jump
    discontinuously at the saturation boundary (the unbounded response
    diverges there).
    """
    if rate < 0 or mu <= 0 or servers < 1:
        raise ValueError("need rate >= 0, mu > 0, servers >= 1")
    if rtt < 0:
        raise ValueError(f"rtt must be >= 0, got {rtt}")
    if rate == 0.0:
        return rtt + 1.0 / mu
    cap = max(50, 10 * servers) if overload_capacity is None else int(overload_capacity)
    return rtt + MMcK(rate, mu, servers, cap).mean_response()


def predict_windowed_series(
    trace: RequestTrace,
    mu: float,
    servers: int,
    window: float,
    *,
    rtt: float = 0.0,
    horizon: float | None = None,
    overload_capacity: int | None = None,
):
    """Predicted mean latency per window from a trace's windowed rates.

    Returns ``(window_starts, predicted_latency)`` — the analytic
    Figure 9 series for one site (or, fed the merged trace and the
    pooled server count, for the cloud).
    """
    starts, rates = trace.windowed_rates(window, horizon=horizon)
    out = np.empty_like(rates)
    for i, r in enumerate(rates):
        out[i] = quasi_stationary_latency(
            float(r), mu, servers, rtt=rtt, overload_capacity=overload_capacity
        )
    return starts, out
