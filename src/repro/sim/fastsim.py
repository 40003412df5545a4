"""Fast FCFS G/G/c simulation via the Kiefer–Wolfowitz recursion.

For large parameter sweeps (Figure 7 needs dozens of (RTT, rate) cells,
each with ≥10⁵ requests for a stable p95) the event-calendar engine is
needlessly general: an FCFS multi-server queue with a fixed request
sequence is fully determined by the recursion

    start_i = max(arrival_i, earliest server free time)

maintained in a size-c min-heap of server free times — O(n log c) with
no event objects.  Requests that wait go through a per-request Python
loop over that heap; stretches of requests that find a free server are
skipped in NumPy, bit for bit (:func:`_kw_heap`).  One server (c = 1)
runs the Lindley recursion instead.  On top of the single queue this
module covers the paper's actual topologies: k independent edge sites
(:func:`simulate_edge_system`), the cloud central queue
(:func:`simulate_single_queue_system`), and the cloud behind a
round-robin or join-shortest-queue load balancer
(:func:`simulate_lb_system`).  Each returns the event engine's
:class:`~repro.sim.tracing.LatencyBreakdown`, with integer site indices
where the engine stores station names, and every topology carries its
requests over the network through one path, ``_through_network``.  The
engine and these paths are cross-validated in the integration tests;
both must agree with exact M/M/k theory.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from functools import partial

import numpy as np

from repro.sim.network import ConstantLatency, LatencyModel
from repro.sim.tracing import LatencyBreakdown

__all__ = [
    "simulate_fcfs_queue",
    "simulate_single_queue_system",
    "simulate_lb_system",
    "simulate_edge_system",
]


def simulate_fcfs_queue(
    arrival_times: np.ndarray, service_times: np.ndarray, servers: int
) -> np.ndarray:
    """Waiting times of each request in an FCFS G/G/c queue.

    Parameters
    ----------
    arrival_times:
        Finite, non-decreasing absolute arrival times (seconds).
    service_times:
        Finite, non-negative service demand of each request (seconds),
        aligned with arrivals.
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
    if not (np.isfinite(a).all() and np.isfinite(s).all()):
        raise ValueError("arrival_times and service_times must be finite")
    if np.any(np.diff(a) < 0):
        raise ValueError("arrival_times must be non-decreasing")
    if s.min() < 0:
        raise ValueError("service_times must be non-negative")

    if servers == 1:
        return _lindley_single(a, s)
    return _kw_heap(a, s, servers)


# Backoff of the no-wait fast-forward.  One vector attempt on a
# _BLOCK_MIN block costs 10-19 us, as much as 40-60 iterations of the
# heap loop (2-vCPU Xeon, c = 8 and 40); past that, a request costs the
# vector phase ~6 ns against the loop's 210-390 ns.  Blocks double while
# whole blocks are accepted.  An attempt is made only after _CALM
# requests in a row found a free server; one that accepts fewer than
# _CALM doubles the next scalar chunk, and so does a skipped one.  On
# the Figure 7 grid, _CALM = 32 beat 64 and 128 (0.48x, 0.51x and 0.53x
# the loop's time).  _CHUNK_MAX also keeps the loop's float lists small,
# which runs the loop faster than one list of the whole array.
_BLOCK_MIN = 256
_BLOCK_MAX = 16_384
_CHUNK_MIN = 64
_CHUNK_MAX = 4_096
_CALM = 32


def _kw_heap(a: np.ndarray, s: np.ndarray, servers: int) -> np.ndarray:
    """Kiefer–Wolfowitz recursion over a min-heap of server free times.

    Each step replaces the heap's minimum by a departure no smaller than
    it, so the heap always holds the ``servers`` largest departures so
    far, counting its initial zeros.  A request therefore waits exactly
    when all of them exceed its arrival, and until the first request
    that waits every departure is ``a + s``.  The recursion alternates
    two phases over the arrays:

    * a vector phase, :func:`_no_wait_prefix`, which takes the requests
      up to the next one that waits, with wait 0.0, and replaces the heap
      by the ``servers`` largest of it and their departures;
    * a scalar phase, the heap loop over one chunk of ``tolist()``
      floats, for the requests that wait.

    Both are exact.  A request that does not wait starts at its arrival,
    so its departure ``a + s`` and its wait ``a - a = 0.0`` are the IEEE
    operations the loop performs, and the heap's multiset, which decides
    every later ``free[0]``, is the loop's.
    """
    n = a.size
    waits = np.zeros(n)
    free = [0.0] * servers  # min-heap of server free times
    replace = heapq.heapreplace
    block, chunk = _BLOCK_MIN, _CHUNK_MIN
    calm = True
    i = 0
    while i < n:
        if calm:
            taken, free = _no_wait_prefix(a[i:i + block], s[i:i + block], free)
            i += taken
            if taken == block:
                block = min(2 * block, _BLOCK_MAX)
                continue
            block = _BLOCK_MIN
        chunk = _CHUNK_MIN if calm and taken >= _CALM else min(2 * chunk, _CHUNK_MAX)
        arrivals = a[i:i + chunk].tolist()
        services = s[i:i + chunk].tolist()
        chunk_waits = [0.0] * len(arrivals)
        for k, ai in enumerate(arrivals):
            t = free[0]
            start = t if t > ai else ai
            chunk_waits[k] = start - ai
            replace(free, start + services[k])
        waits[i:i + chunk] = chunk_waits
        i += chunk
        calm = not any(chunk_waits[-_CALM:])
    return waits


def _no_wait_prefix(
    a: np.ndarray, s: np.ndarray, free: list[float]
) -> tuple[int, list[float]]:
    """How many requests at the head of ``a`` find a free server, and the heap after them.

    While none of the block has waited, request k of it waits exactly
    when at least ``len(free)`` of the heap's times and the departures
    ``a + s`` of requests 0..k-1 exceed its arrival: when at most k of
    them are at or before it, that is, when the (k+1)-th smallest of the
    heap and all the block's departures is later than it.  Departures of
    later requests never count, because every departure is strictly
    later than its own arrival; a block where that fails (a zero or
    negligible service time) is left to the loop.  The heap comes back
    as a sorted list, which is a valid heap.
    """
    dep = a + s
    if not (dep > a).all():
        return 0, free
    pool = np.sort(np.concatenate((free, dep)))
    late = pool[:a.size] > a
    first = int(late.argmax())
    taken = first if late[first] else a.size
    if taken < a.size:
        pool = np.sort(np.concatenate((free, dep[:taken])))
    return taken, pool[-len(free):].tolist()


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


def _legs(latency: LatencyModel, rng: np.random.Generator, n: int):
    """Outbound and return one-way legs for ``n`` requests.

    A constant model gives two scalars and draws nothing; any other
    model gives two sampled arrays, the outbound one drawn first.
    """
    if isinstance(latency, ConstantLatency):
        half = latency.mean_rtt / 2.0
        return half, half
    return latency.sample_oneway_batch(rng, n), latency.sample_oneway_batch(rng, n)


def _through_network(
    a: np.ndarray, s: np.ndarray, out: float | np.ndarray, back: float | np.ndarray,
    queue: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> LatencyBreakdown:
    """Send requests created at ``a`` over ``out``, queue them, return over ``back``.

    ``queue(arrivals, services)`` returns the waits of requests handed
    to it in queue-arrival order.  A scalar ``out`` is a constant leg,
    which keeps the creation order; an array ``out`` is stable-sorted by
    queue-arrival time and the waits are mapped back to creation order.
    Every request is labelled site 0.
    """
    a = np.asarray(a, dtype=float)
    s = np.asarray(s, dtype=float)
    if a.ndim != 1 or a.shape != s.shape:
        raise ValueError("arrival_times and service_times must be aligned 1-D arrays")
    at_queue = a + out
    if np.ndim(out) == 0:
        wait = queue(at_queue, s)
        network = np.full(a.size, out + back)
    else:
        order = np.argsort(at_queue, kind="stable")
        wait = np.empty(a.size)
        wait[order] = queue(at_queue[order], s[order])
        network = out + back
    return LatencyBreakdown(
        created=a,
        end_to_end=network + wait + s,
        wait=wait,
        service=s,
        network=network,
        site=np.zeros(a.size, dtype=np.int64),
    )


def simulate_single_queue_system(
    arrival_times: np.ndarray,
    service_times: np.ndarray,
    servers: int,
    latency: LatencyModel,
    rng: np.random.Generator | None = None,
) -> LatencyBreakdown:
    """Simulate a cloud-style deployment: one central queue of ``servers``.

    Network legs shift each request's arrival at the queue; FCFS order at
    the queue follows the shifted arrival times (with a constant-latency
    model the order is unchanged, matching the paper's setup).
    """
    rng = np.random.default_rng(0) if rng is None else rng
    out, back = _legs(latency, rng, np.size(arrival_times))
    return _through_network(
        arrival_times, service_times, out, back, partial(simulate_fcfs_queue, servers=servers)
    )


def _round_robin_waits(
    a: np.ndarray, s: np.ndarray, backends: int, servers_per_backend: int
) -> np.ndarray:
    """Waiting times when request ``i`` joins FCFS backend ``i % backends``."""
    waits = np.empty(a.size)
    for b in range(backends):
        waits[b::backends] = simulate_fcfs_queue(
            a[b::backends], s[b::backends], servers_per_backend
        )
    return waits


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
) -> LatencyBreakdown:
    """Simulate a cloud deployment behind a load balancer.

    The paper's real cloud runs HAProxy in front of ``backends`` server
    groups rather than the idealized central queue; this is the fastsim
    counterpart of :class:`~repro.sim.topology.CloudDeployment` with a
    dispatch policy.  Requests reach the LB after their outbound network
    leg, are dispatched to per-backend FCFS queues in LB-arrival order,
    and return over the second leg.

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
    """
    rng = np.random.default_rng(0) if rng is None else rng
    if policy not in ("round-robin", "jsq"):
        raise ValueError(f"policy must be 'round-robin' or 'jsq', got {policy!r}")
    if backends is None:
        backends = servers
    if backends < 1:
        raise ValueError(f"backends must be >= 1, got {backends}")
    if servers % backends != 0:
        raise ValueError(f"servers ({servers}) must divide evenly among {backends} backends")
    per_backend = servers // backends

    if policy == "round-robin":
        queue = partial(_round_robin_waits, backends=backends, servers_per_backend=per_backend)
    else:
        queue = partial(_jsq_waits, backends=backends, servers_per_backend=per_backend, rng=rng)
    out, back = _legs(latency, rng, np.size(arrival_times))
    return _through_network(arrival_times, service_times, out, back, queue)


def simulate_edge_system(
    site_arrivals: list[np.ndarray],
    site_services: list[np.ndarray],
    servers_per_site: int,
    latency: LatencyModel,
    rng: np.random.Generator | None = None,
) -> LatencyBreakdown:
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
    LatencyBreakdown
        Concatenation over sites, with ``site`` recording the index.
    """
    if len(site_arrivals) != len(site_services) or not site_arrivals:
        raise ValueError("need equal, non-empty per-site arrival/service lists")
    rng = np.random.default_rng(0) if rng is None else rng
    parts = []
    for idx, (a, s) in enumerate(zip(site_arrivals, site_services, strict=True)):
        part = simulate_single_queue_system(a, s, servers_per_site, latency, rng)
        part.site[:] = idx
        parts.append(part)
    return LatencyBreakdown.concat(parts)
