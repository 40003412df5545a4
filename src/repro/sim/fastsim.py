"""Fast FCFS G/G/c simulation via the Kiefer–Wolfowitz recursion.

For large parameter sweeps (Figure 7 needs dozens of (RTT, rate) cells,
each with ≥10⁵ requests for a stable p95) the event-calendar engine is
needlessly general: an FCFS multi-server queue with a fixed request
sequence is fully determined by the recursion

    start_i = max(arrival_i, earliest server free time)

maintained in a size-c min-heap of server free times — O(n log c) with
no event objects.  Blocks of requests are settled in NumPy by a few
fixed-point rounds of that recursion, waits included, and a vector
check keeps only the prefix it proves equal to the per-request Python
loop over the heap; busy periods that do not settle go through the loop
(:func:`_kw_heap`).  Both give the same waits, bit for bit, at every
server count, one included, and the tests pin those waits to the event
engine's.  On top of the single queue this module covers the paper's
actual topologies: k independent edge sites (:func:`simulate_edge_system`),
the cloud central queue (:func:`simulate_single_queue_system`), and the
cloud behind a round-robin or join-shortest-queue load balancer
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
    if servers < 1:
        raise ValueError(f"servers must be >= 1, got {servers}")
    a, s = _checked_queue_input(arrival_times, service_times)
    if a.size == 0:
        return np.empty(0)
    return _kw_heap(a, s, servers)


def _checked_queue_input(
    arrival_times: np.ndarray, service_times: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The inputs of a queue as contiguous float arrays, or ``ValueError``.

    Arrivals must be finite and non-decreasing, service times finite and
    non-negative, and both aligned 1-D arrays; empty input is valid.
    Finiteness is checked first, because NaN passes the order and sign
    comparisons.
    """
    a = np.ascontiguousarray(arrival_times, dtype=float)
    s = np.ascontiguousarray(service_times, dtype=float)
    if a.ndim != 1 or a.shape != s.shape:
        raise ValueError("arrival_times and service_times must be aligned 1-D arrays")
    if a.size:
        if not (np.isfinite(a).all() and np.isfinite(s).all()):
            raise ValueError("arrival_times and service_times must be finite")
        if (a[1:] < a[:-1]).any():
            raise ValueError("arrival_times must be non-decreasing")
        if s.min() < 0:
            raise ValueError("service_times must be non-negative")
    return a, s


# Backoff of the vector phase.  One attempt on a _BLOCK_MIN block costs
# 10-19 us, as much as 40-60 iterations of the heap loop (2-vCPU Xeon,
# c = 8 and 40); past that, a request costs one round 6-9 ns against the
# loop's 210-390 ns.  Blocks double while whole blocks are accepted.  An
# attempt is made only after _CALM requests in a row found a free
# server; one that accepts fewer than _CALM doubles the next scalar
# chunk, and so does a skipped one.  On the Figure 7 grid, _CALM = 32
# beat 64 and 128 (0.48x, 0.51x and 0.53x the loop's time).  _CHUNK_MAX
# also keeps the loop's float lists small, which runs the loop faster
# than one list of the whole array.
_BLOCK_MIN = 256
_BLOCK_MAX = 16_384
_CHUNK_MIN = 64
_CHUNK_MAX = 4_096
_CALM = 32
# Stop rule of the fixed-point rounds.  A busy period settles about one
# link of its chain of waits per round, and a round costs a sort of the
# whole block, so an attempt ends once a round leaves more than _STALL
# of the previous round's unsettled requests, or once round 1 leaves
# more than _CROWD of the block, and after _ROUNDS rounds at most.  Over
# the 312 queues of a Figure 7 unit (seed 7) these values took 0.695x
# the time of the no-wait prefix alone.  Without the _CROWD test it was
# 0.705x, with the edge at rho 0.75-0.88 4-8% slower than the no-wait
# prefix; _ROUNDS = 8 or _STALL = 0.7 gave up on mid-load blocks that
# converge (0.72x).
_ROUNDS = 16
_STALL = 0.9
_CROWD = 0.25


def _kw_heap(a: np.ndarray, s: np.ndarray, servers: int) -> np.ndarray:
    """Kiefer–Wolfowitz recursion over a min-heap of server free times.

    Each step replaces the heap's minimum by a departure no smaller than
    it, so the heap always holds the ``servers`` largest departures so
    far, counting its initial zeros, and request k of a block starts at
    the later of its arrival and the (k+1)-th smallest of the heap and
    the departures of requests 0..k-1.  The recursion alternates two
    phases over the arrays:

    * a vector phase, :func:`_settled_prefix`, which iterates that
      order-statistic form of the recursion over a block and takes the
      longest head of it that :func:`_proven_prefix` proves equal to the
      loop, waits included, then replaces the heap by the ``servers``
      largest of it and their departures;
    * a scalar phase, the heap loop over one chunk of ``tolist()``
      floats, for the stretches the vector phase leaves.

    Both are exact: every wait and departure the vector phase accepts is
    the IEEE result the loop computes, and the heap's multiset, which
    decides every later ``free[0]``, is the loop's.
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
            taken, free = _settled_prefix(a[i:i + block], s[i:i + block], free, waits[i:i + block])
            i += taken
            if taken == block:
                block = min(2 * block, _BLOCK_MAX)
                continue
            block = _BLOCK_MIN
        chunk = _CHUNK_MIN if calm and taken >= _CALM else min(2 * chunk, _CHUNK_MAX)
        chunk_waits = []
        append = chunk_waits.append
        for ai, si in zip(a[i:i + chunk].tolist(), s[i:i + chunk].tolist(), strict=True):
            t = free[0]
            if t > ai:
                append(t - ai)
                replace(free, t + si)
            else:
                append(0.0)
                replace(free, ai + si)
        waits[i:i + chunk] = chunk_waits
        i += chunk
        calm = not any(chunk_waits[-_CALM:])
    return waits


def _settled_prefix(
    a: np.ndarray, s: np.ndarray, free: list[float], waits: np.ndarray
) -> tuple[int, list[float]]:
    """How many requests at the head of ``a`` fixed-point rounds settle, and the heap after them.

    Round 1 guesses that no request waits (departures ``a + s``); each
    round feeds its next guess to the following one until the block is
    proven, the stop rule fires or ``_ROUNDS`` have run.  The proven
    prefix never shrinks from one round to the next, so the last round's
    is the longest.  Its waits are written into ``waits``, and the heap
    comes back as the sorted ``servers`` largest of itself and the
    prefix's departures, which is a valid heap.
    """
    heap = np.array(free)
    d = a + s
    limit = _CROWD * a.size
    for _ in range(_ROUNDS):
        taken, pool, after, unsettled = _proven_prefix(a, s, heap, d)
        if taken == a.size or unsettled > limit:
            break
        limit = _STALL * unsettled
        d = after
    w = waits[:taken]
    np.subtract(pool[:taken], a[:taken], out=w)
    np.maximum(w, 0.0, out=w)
    w += 0.0  # -0.0 (t = -0.0 at an arrival of 0.0) becomes the loop's 0.0
    if taken < a.size:
        pool = np.sort(np.partition(np.concatenate((heap, after[:taken])), taken)[taken:])
    return taken, pool[-heap.size:].tolist()


def _proven_prefix(
    a: np.ndarray, s: np.ndarray, heap: np.ndarray, d: np.ndarray
) -> tuple[int, np.ndarray, np.ndarray, int]:
    """One fixed-point round from the departure guess ``d``, and the prefix it proves.

    With ``pool`` the sorted heap and guesses, request k is guessed to
    find a free server at ``t[k] = pool[k]`` and to depart at
    ``after[k] = max(a[k], t[k]) + s[k]``.  The first ``taken`` requests
    are proven to be the heap loop's, whatever ``d`` is, when each of
    them

    * did not move: ``after[k] == d[k]``;
    * departs strictly after the free time it found: ``d[k] > t[k]``;

    and every guess from the first request that fails either test on is
    above ``pool[taken - 1]``.  By induction on k: if requests 0..k-1
    are the loop's, every guess from k on is above ``pool[k]``, so
    ``pool[k]`` is the (k+1)-th smallest of the heap and their
    departures, the loop's ``free[0]``, and request k starts and departs
    as in the loop.  Returns ``taken``, ``pool``, the next guess and how
    many requests failed a test.  In the next guess, a request whose own
    guess was at or below ``t[k]`` starts from ``pool[k + 1]``: its own
    departure never counts toward its start, and without that a short
    service creeps up by ``s[k]`` a round.
    """
    pool = np.sort(np.concatenate((heap, d)))
    t = pool[:a.size]
    after = np.maximum(a, t)
    after += s
    own = d <= t
    bad = after != d
    bad |= own
    first = int(bad.argmax())
    if not bad[first]:
        return a.size, pool, after, 0
    own = own.nonzero()[0]
    after[own] = np.maximum(a[own], pool[own + 1]) + s[own]
    taken = int(pool[:first].searchsorted(d[first:].min()))
    return taken, pool, after, int(np.count_nonzero(bad))


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
    end_to_end = network + wait
    end_to_end += s
    return LatencyBreakdown(
        created=a,
        end_to_end=end_to_end,
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
    """Waiting times when request ``i`` joins FCFS backend ``i % backends``.

    The whole stream is checked once: each backend's share of a
    decreasing stream can be non-decreasing.
    """
    a, s = _checked_queue_input(a, s)
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
    The input is checked before any tie-break is drawn.
    """
    a, s = _checked_queue_input(a, s)
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
