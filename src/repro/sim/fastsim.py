"""Fast FCFS G/G/c simulation via the Kiefer–Wolfowitz recursion.

For large parameter sweeps (Figure 7 needs dozens of (RTT, rate) cells,
each with ≥10⁵ requests for a stable p95) the event-calendar engine is
needlessly general: an FCFS multi-server queue with a fixed request
sequence is fully determined by the recursion

    start_i = max(arrival_i, earliest server free time)

maintained in a size-c min-heap of server free times — O(n log c) with
no event objects.  On top of the single queue this module covers the
paper's actual topologies: k independent edge sites
(:func:`simulate_edge_system`), the cloud central queue
(:func:`simulate_single_queue_system`), and the cloud behind a
round-robin or join-shortest-queue load balancer
(:func:`simulate_lb_system`).  The engine and these paths are
cross-validated in the integration tests; both must agree with exact
M/M/k theory.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.sim.network import ConstantLatency, LatencyModel

__all__ = [
    "simulate_fcfs_queue",
    "simulate_single_queue_system",
    "simulate_lb_system",
    "simulate_edge_system",
    "SystemResult",
]


def simulate_fcfs_queue(
    arrival_times: np.ndarray, service_times: np.ndarray, servers: int
) -> np.ndarray:
    """Waiting times of each request in an FCFS G/G/c queue.

    Parameters
    ----------
    arrival_times:
        Non-decreasing absolute arrival times (seconds).
    service_times:
        Service demand of each request (seconds), aligned with arrivals.
    servers:
        Number of parallel servers ``c``.

    Returns
    -------
    numpy.ndarray
        Queueing delay of each request, aligned with the inputs.
    """
    a = np.ascontiguousarray(arrival_times, dtype=float)
    s = np.ascontiguousarray(service_times, dtype=float)
    if a.ndim != 1 or a.shape != s.shape:
        raise ValueError("arrival_times and service_times must be aligned 1-D arrays")
    if servers < 1:
        raise ValueError(f"servers must be >= 1, got {servers}")
    if a.size == 0:
        return np.empty(0)
    if np.any(np.diff(a) < 0):
        raise ValueError("arrival_times must be non-decreasing")
    if s.min() < 0:
        raise ValueError("service_times must be non-negative")

    if servers == 1:
        return _lindley_single(a, s)
    return _kw_heap(a, s, servers)


def _kw_heap(a: np.ndarray, s: np.ndarray, servers: int) -> np.ndarray:
    """Kiefer–Wolfowitz recursion over a min-heap of server free times.

    Operates on plain Python lists (one bulk ``tolist()`` per array):
    element loads are list indexing and the arithmetic is float-on-float,
    which is ~3× faster in CPython than per-element ndarray access with
    bit-identical IEEE results.
    """
    free = [0.0] * servers  # min-heap of server free times
    arrivals = a.tolist()
    services = s.tolist()
    waits = [0.0] * len(arrivals)
    replace = heapq.heapreplace
    for i, ai in enumerate(arrivals):
        t = free[0]
        start = t if t > ai else ai
        waits[i] = start - ai
        replace(free, start + services[i])
    return np.asarray(waits)


def _lindley_single(a: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Lindley recursion W_{i+1} = max(0, W_i + s_i - (a_{i+1} - a_i))."""
    arrivals = a.tolist()
    services = s.tolist()
    waits = [0.0] * len(arrivals)
    w = 0.0
    prev_a = arrivals[0]
    prev_s = services[0]
    for i in range(1, len(arrivals)):
        ai = arrivals[i]
        w = w + prev_s - (ai - prev_a)
        if w < 0.0:
            w = 0.0
        waits[i] = w
        prev_a = ai
        prev_s = services[i]
    return np.asarray(waits)


class SystemResult:
    """End-to-end latencies of one simulated deployment.

    Attributes
    ----------
    end_to_end:
        Total latency per request (network + wait + service), seconds.
    wait:
        Queueing delay per request.
    service:
        Service time per request.
    network:
        Round-trip network time per request.
    site:
        Integer site index per request (0 for a cloud deployment).
    arrival:
        Request creation time (client clock).
    """

    __slots__ = ("end_to_end", "wait", "service", "network", "site", "arrival")

    def __init__(self, end_to_end, wait, service, network, site, arrival):
        self.end_to_end = end_to_end
        self.wait = wait
        self.service = service
        self.network = network
        self.site = site
        self.arrival = arrival

    def __len__(self) -> int:
        return self.end_to_end.size

    def after(self, t: float) -> "SystemResult":
        """Subset of requests created at or after ``t`` (warm-up trim)."""
        m = self.arrival >= t
        return SystemResult(
            self.end_to_end[m], self.wait[m], self.service[m],
            self.network[m], self.site[m], self.arrival[m],
        )

    def for_site(self, site: int) -> "SystemResult":
        """Subset of requests served at integer site index ``site``."""
        m = self.site == site
        return SystemResult(
            self.end_to_end[m], self.wait[m], self.service[m],
            self.network[m], self.site[m], self.arrival[m],
        )


def simulate_single_queue_system(
    arrival_times: np.ndarray,
    service_times: np.ndarray,
    servers: int,
    latency: LatencyModel,
    rng: np.random.Generator | None = None,
) -> SystemResult:
    """Simulate a cloud-style deployment: one central queue of ``servers``.

    Network legs shift each request's arrival at the queue; FCFS order at
    the queue follows the shifted arrival times (with a constant-latency
    model the order is unchanged, matching the paper's setup).
    """
    rng = np.random.default_rng(0) if rng is None else rng
    a = np.asarray(arrival_times, dtype=float)
    s = np.asarray(service_times, dtype=float)

    if isinstance(latency, ConstantLatency):
        rtts = np.full(a.size, latency.mean_rtt)
        shifted = a + rtts / 2.0
    else:
        legs_out = latency.sample_oneway_batch(rng, a.size)
        legs_back = latency.sample_oneway_batch(rng, a.size)
        rtts = legs_out + legs_back
        shifted = a + legs_out
        order = np.argsort(shifted, kind="stable")
        inverse = np.empty_like(order)
        inverse[order] = np.arange(order.size)
        waits = simulate_fcfs_queue(shifted[order], s[order], servers)[inverse]
        e2e = rtts + waits + s
        return SystemResult(e2e, waits, s, rtts, np.zeros(a.size, dtype=np.int64), a)

    waits = simulate_fcfs_queue(shifted, s, servers)
    e2e = rtts + waits + s
    return SystemResult(e2e, waits, s, rtts, np.zeros(a.size, dtype=np.int64), a)


def _jsq_waits(
    a: np.ndarray,
    s: np.ndarray,
    backends: int,
    servers_per_backend: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Waiting times under join-shortest-queue dispatch to FCFS backends.

    Tracks, per backend, a heap of in-system departure times (the JSQ
    occupancy signal — waiting + in service, exactly what the DES
    ``JoinShortestQueue`` policy reads) and a Kiefer–Wolfowitz heap of
    server free times.  Ties are broken uniformly at random, matching the
    DES policy's behaviour statistically (the streams differ, so this
    path is validated against the DES by distribution, not bitwise).
    """
    arrivals = a.tolist()
    services = s.tolist()
    waits = [0.0] * len(arrivals)
    in_system: list[list[float]] = [[] for _ in range(backends)]
    free: list[list[float]] = [[0.0] * servers_per_backend for _ in range(backends)]
    push, pop, replace = heapq.heappush, heapq.heappop, heapq.heapreplace
    integers = rng.integers
    for i, t in enumerate(arrivals):
        best = 0
        best_occ = None
        ties = 1
        for b in range(backends):
            dep = in_system[b]
            while dep and dep[0] <= t:
                pop(dep)
            occ = len(dep)
            if best_occ is None or occ < best_occ:
                best_occ = occ
                best = b
                ties = 1
            elif occ == best_occ:
                ties += 1
        if ties > 1:
            # uniform choice among the tied backends, as in the DES policy
            pick = int(integers(ties))
            for b in range(backends):
                if len(in_system[b]) == best_occ:
                    if pick == 0:
                        best = b
                        break
                    pick -= 1
        chosen_free = free[best]
        tf = chosen_free[0]
        start = tf if tf > t else t
        waits[i] = start - t
        end = start + services[i]
        replace(chosen_free, end)
        push(in_system[best], end)
    return np.asarray(waits)


def simulate_lb_system(
    arrival_times: np.ndarray,
    service_times: np.ndarray,
    servers: int,
    latency: LatencyModel,
    rng: np.random.Generator | None = None,
    *,
    policy: str = "round-robin",
    backends: int | None = None,
    lb_overhead: float = 0.0,
) -> SystemResult:
    """Simulate a cloud deployment behind a load balancer.

    The paper's real cloud runs HAProxy in front of ``backends`` server
    groups rather than the idealized central queue; this is the fastsim
    counterpart of :class:`~repro.sim.topology.CloudDeployment` with a
    dispatch policy.  Requests reach the LB after their outbound network
    leg (plus ``lb_overhead``), are dispatched to per-backend FCFS queues
    in LB-arrival order, and return over the second leg.

    Parameters
    ----------
    servers:
        Total servers, divided evenly among ``backends`` (must divide,
        mirroring :class:`~repro.sim.topology.CloudDeployment`).
    policy:
        ``"round-robin"`` (HAProxy default; backend ``i % backends`` in
        LB-arrival order — exactly the DES policy's assignment) or
        ``"jsq"`` (join shortest queue / HAProxy ``leastconn``).
    backends:
        Backend count (default: one backend per server).
    lb_overhead:
        Extra one-way delay through the balancer, seconds.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    a = np.asarray(arrival_times, dtype=float)
    s = np.asarray(service_times, dtype=float)
    if a.ndim != 1 or a.shape != s.shape:
        raise ValueError("arrival_times and service_times must be aligned 1-D arrays")
    if policy not in ("round-robin", "jsq"):
        raise ValueError(f"policy must be 'round-robin' or 'jsq', got {policy!r}")
    if backends is None:
        backends = servers
    if backends < 1:
        raise ValueError(f"backends must be >= 1, got {backends}")
    if servers % backends != 0:
        raise ValueError(f"servers ({servers}) must divide evenly among {backends} backends")
    if lb_overhead < 0:
        raise ValueError(f"lb_overhead must be >= 0, got {lb_overhead}")
    per_backend = servers // backends
    n = a.size
    if n == 0:
        empty = np.empty(0)
        return SystemResult(empty, empty, empty, empty, np.empty(0, dtype=np.int64), empty)

    if isinstance(latency, ConstantLatency):
        rtts = np.full(n, latency.mean_rtt)
        at_lb = a + (latency.mean_rtt / 2.0 + lb_overhead)
        order = None
    else:
        legs_out = latency.sample_oneway_batch(rng, n)
        legs_back = latency.sample_oneway_batch(rng, n)
        rtts = legs_out + legs_back
        at_lb = a + (legs_out + lb_overhead)
        order = np.argsort(at_lb, kind="stable")
        at_lb = at_lb[order]

    dispatch_s = s if order is None else s[order]
    if policy == "round-robin":
        waits = np.empty(n)
        for b in range(backends):
            waits[b::backends] = simulate_fcfs_queue(
                at_lb[b::backends], dispatch_s[b::backends], per_backend
            )
    else:
        waits = _jsq_waits(at_lb, dispatch_s, backends, per_backend, rng)

    if order is not None:
        inverse = np.empty_like(order)
        inverse[order] = np.arange(order.size)
        waits = waits[inverse]
    # The balancer sits on the inbound path only, mirroring the DES
    # CloudDeployment (responses bypass it).
    network = rtts + lb_overhead if lb_overhead else rtts
    e2e = network + waits + s
    return SystemResult(e2e, waits, s, network, np.zeros(n, dtype=np.int64), a)


def simulate_edge_system(
    site_arrivals: list[np.ndarray],
    site_services: list[np.ndarray],
    servers_per_site: int,
    latency: LatencyModel,
    rng: np.random.Generator | None = None,
) -> SystemResult:
    """Simulate an edge deployment: one independent queue per site.

    Parameters
    ----------
    site_arrivals / site_services:
        Per-site aligned arrays (site ``i`` serves exactly its own list —
        the paper's geo-partitioned workload).
    servers_per_site:
        Servers (or cores) at every site.
    latency:
        Client ↔ edge network model, shared across sites (1 ms RTT in
        all paper experiments).

    Returns
    -------
    SystemResult
        Concatenation over sites, with ``site`` recording the index.
    """
    if len(site_arrivals) != len(site_services) or not site_arrivals:
        raise ValueError("need equal, non-empty per-site arrival/service lists")
    rng = np.random.default_rng(0) if rng is None else rng
    parts = []
    for idx, (a, s) in enumerate(zip(site_arrivals, site_services, strict=True)):
        res = simulate_single_queue_system(a, s, servers_per_site, latency, rng)
        res.site[:] = idx
        parts.append(res)
    return SystemResult(
        np.concatenate([p.end_to_end for p in parts]),
        np.concatenate([p.wait for p in parts]),
        np.concatenate([p.service for p in parts]),
        np.concatenate([p.network for p in parts]),
        np.concatenate([p.site for p in parts]),
        np.concatenate([p.arrival for p in parts]),
    )
