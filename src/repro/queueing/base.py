"""Stability checks shared by the queueing models.

The infinite-buffer models in :mod:`repro.queueing` validate their rates
through
:func:`ensure_stable`, which returns the utilization
:math:`\\rho = \\lambda / (k \\mu)` and raises :class:`StabilityError` when
:math:`\\rho \\ge 1`.
"""

from __future__ import annotations

__all__ = ["utilization", "ensure_stable", "StabilityError"]


class StabilityError(ValueError):
    """Raised when a queueing system is unstable (:math:`\\rho \\ge 1`)."""


def utilization(arrival_rate: float, service_rate: float, servers: int = 1) -> float:
    """Return the offered utilization :math:`\\rho = \\lambda / (k \\mu)`.

    Parameters
    ----------
    arrival_rate:
        Mean arrival rate :math:`\\lambda` in requests/second.
    service_rate:
        Per-server mean service rate :math:`\\mu` in requests/second.
    servers:
        Number of homogeneous servers :math:`k`.

    Raises
    ------
    ValueError
        If any argument is non-positive.
    """
    if arrival_rate < 0:
        raise ValueError(f"arrival_rate must be >= 0, got {arrival_rate}")
    if service_rate <= 0:
        raise ValueError(f"service_rate must be > 0, got {service_rate}")
    if servers < 1:
        raise ValueError(f"servers must be >= 1, got {servers}")
    return arrival_rate / (servers * service_rate)


def ensure_stable(arrival_rate: float, service_rate: float, servers: int = 1) -> float:
    """Validate stability and return the utilization.

    Raises
    ------
    StabilityError
        If :math:`\\rho \\ge 1`, i.e. the queue grows without bound.
    """
    rho = utilization(arrival_rate, service_rate, servers)
    if rho >= 1.0:
        raise StabilityError(
            f"unstable queue: rho = {rho:.4f} >= 1 "
            f"(lambda={arrival_rate}, mu={service_rate}, k={servers})"
        )
    return rho

