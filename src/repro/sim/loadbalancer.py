"""Dispatch policies for a multi-station cloud deployment.

The paper's cloud runs HAProxy in front of k servers.  Analytically the
paper models the cloud as one central M/M/k queue; a real load balancer
dispatches each request to a specific server queue on arrival, which is
strictly worse than the central queue.  We implement the common HAProxy
policies so the gap is measurable (ablation A1 in DESIGN.md):

* :class:`RoundRobin` — HAProxy's default.
* :class:`RandomDispatch` — uniform random.
* :class:`JoinShortestQueue` — HAProxy ``leastconn`` (fewest in system).

The state-aware policy (JSQ) never picks a ``failed`` station while a
healthy one exists — a load balancer sees dead backends through health
checks.

The central-queue ideal is expressed in the topology layer as a single
:class:`~repro.sim.station.Station` with ``k`` servers, not a policy.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence

import numpy as np

from repro.sim.station import Station

__all__ = [
    "DispatchPolicy",
    "RoundRobin",
    "RandomDispatch",
    "JoinShortestQueue",
]


def _healthy(stations: Sequence[Station]) -> Sequence[Station]:
    """Stations passing health checks; all of them if every one is down."""
    alive = [s for s in stations if not s.failed]
    return alive if alive else stations


class DispatchPolicy(ABC):
    """Chooses which backend station receives an arriving request."""

    @abstractmethod
    def choose(self, stations: Sequence[Station], rng: np.random.Generator) -> Station:
        """Return the station that should serve the next request."""


class RoundRobin(DispatchPolicy):
    """Cycle through backends in order (HAProxy's default policy)."""

    def __init__(self) -> None:
        self._next = 0

    def choose(self, stations: Sequence[Station], rng: np.random.Generator) -> Station:
        if not stations:
            raise ValueError("no backend stations")
        station = stations[self._next % len(stations)]
        self._next += 1
        return station


class RandomDispatch(DispatchPolicy):
    """Pick a backend uniformly at random."""

    def choose(self, stations: Sequence[Station], rng: np.random.Generator) -> Station:
        if not stations:
            raise ValueError("no backend stations")
        return stations[int(rng.integers(len(stations)))]


class JoinShortestQueue(DispatchPolicy):
    """Send to the backend with the fewest requests in system.

    Equivalent to HAProxy ``leastconn``; ties are broken uniformly at
    random to avoid systematic bias toward low indices.
    """

    def choose(self, stations: Sequence[Station], rng: np.random.Generator) -> Station:
        if not stations:
            raise ValueError("no backend stations")
        stations = _healthy(stations)
        occupancy = np.fromiter((s.in_system for s in stations), dtype=np.int64)
        candidates = np.flatnonzero(occupancy == occupancy.min())
        return stations[int(candidates[rng.integers(len(candidates))])]

