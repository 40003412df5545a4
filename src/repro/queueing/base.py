"""Common protocol and helpers for queueing models.

Every queueing model in :mod:`repro.queueing` exposes the same small
surface (arrival rate, service rate, server count, utilization, mean
waiting time and mean response time), written down as the
:class:`QueueModel` protocol, so exact and approximate models are
interchangeable wherever only that surface is read.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

__all__ = ["QueueModel", "utilization", "ensure_stable", "StabilityError"]


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


@runtime_checkable
class QueueModel(Protocol):
    """Protocol shared by all steady-state queueing models.

    Attributes
    ----------
    arrival_rate:
        Mean arrival rate :math:`\\lambda` (req/s).
    service_rate:
        Per-server service rate :math:`\\mu` (req/s).
    servers:
        Number of servers :math:`k`.
    """

    arrival_rate: float
    service_rate: float
    servers: int

    @property
    def utilization(self) -> float:
        """Server utilization :math:`\\rho = \\lambda/(k\\mu) \\in [0, 1)`."""
        ...

    def mean_wait(self) -> float:
        """Mean time spent waiting in queue, :math:`E[W_q]`, in seconds."""
        ...

    def mean_response(self) -> float:
        """Mean response time :math:`E[T] = E[W_q] + 1/\\mu`, in seconds."""
        ...
