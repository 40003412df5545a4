"""Tests for the vectorized Kiefer-Wolfowitz fast path."""

import heapq
import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.queueing.distributions import Exponential
from repro.queueing.mm1 import MM1
from repro.queueing.mmk import MMk
from repro.sim import fastsim
from repro.sim.fastsim import (
    simulate_edge_system,
    simulate_fcfs_queue,
    simulate_lb_system,
    simulate_single_queue_system,
)
from repro.sim.geo import Region, simulate_geo_comparison
from repro.sim.network import ConstantLatency, NormalJitterLatency
from repro.sim.runner import run_deployment
from repro.sim.tracing import LatencyBreakdown


def poisson_workload(rate, mu, n, seed):
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(1.0 / rate, n))
    services = rng.exponential(1.0 / mu, n)
    return arrivals, services


def heap_loop_waits(a, s, servers):
    """The Kiefer-Wolfowitz heap loop, one request at a time: the reference."""
    free = [0.0] * servers
    arrivals = np.asarray(a, dtype=float).tolist()
    services = np.asarray(s, dtype=float).tolist()
    waits = [0.0] * len(arrivals)
    for i, ai in enumerate(arrivals):
        t = free[0]
        start = t if t > ai else ai
        waits[i] = start - ai
        heapq.heapreplace(free, start + services[i])
    return np.asarray(waits, dtype=float)


def gg_workload(arrivals, rho, servers, n, seed, mu=13.0):
    """``n`` exponential services at rate ``mu`` behind ``arrivals``
    interarrival times (Poisson, deterministic, or bursty with cv² = 4)
    scaled to utilization ``rho``."""
    rng = np.random.default_rng(seed)
    rate = rho * servers * mu
    gaps = {
        "poisson": lambda: rng.exponential(1.0 / rate, n),
        "deterministic": lambda: np.full(n, 1.0 / rate),
        "bursty": lambda: rng.gamma(0.25, 4.0 / rate, n),
    }[arrivals]()
    return np.cumsum(gaps), rng.exponential(1.0 / mu, n)


def count_loop_steps(monkeypatch):
    """Count the heap loop's ``heapreplace`` calls inside fastsim."""
    calls = 0

    def counting_replace(heap, item):
        nonlocal calls
        calls += 1
        return heapq.heapreplace(heap, item)

    monkeypatch.setattr(fastsim, "heapq", SimpleNamespace(heapreplace=counting_replace))
    return lambda: calls


def loop_from(heap, a, s):
    """The heap loop from the free times ``heap``: the free time each
    request finds and its departure."""
    free = sorted(heap)
    found, departs = [], []
    for ai, si in zip(a, s, strict=True):
        t = free[0]
        end = (t if t > ai else ai) + si
        found.append(t)
        departs.append(end)
        heapq.heapreplace(free, end)
    return found, departs


class TestFcfsQueue:
    def test_empty_input(self):
        assert simulate_fcfs_queue(np.array([]), np.array([]), 1).size == 0

    def test_deterministic_single_server(self):
        a = np.array([0.0, 0.0, 0.0])
        s = np.array([1.0, 1.0, 1.0])
        np.testing.assert_allclose(simulate_fcfs_queue(a, s, 1), [0.0, 1.0, 2.0])

    def test_deterministic_two_servers(self):
        a = np.array([0.0, 0.0, 0.0])
        s = np.array([1.0, 1.0, 1.0])
        np.testing.assert_allclose(simulate_fcfs_queue(a, s, 2), [0.0, 0.0, 1.0])

    def test_matches_mm1_theory(self):
        a, s = poisson_workload(8.0, 13.0, 400_000, seed=1)
        waits = simulate_fcfs_queue(a, s, 1)
        assert waits[50_000:].mean() == pytest.approx(MM1(8.0, 13.0).mean_wait(), rel=0.05)

    def test_matches_mmk_theory(self):
        a, s = poisson_workload(40.0, 13.0, 400_000, seed=2)
        waits = simulate_fcfs_queue(a, s, 5)
        assert waits[50_000:].mean() == pytest.approx(MMk(40.0, 13.0, 5).mean_wait(), rel=0.07)

    def test_matches_mmk_tail_theory(self):
        a, s = poisson_workload(40.0, 13.0, 400_000, seed=3)
        waits = simulate_fcfs_queue(a, s, 5)
        emp_p95 = np.quantile(waits[50_000:], 0.95)
        assert emp_p95 == pytest.approx(MMk(40.0, 13.0, 5).waiting_time_percentile(0.95), rel=0.1)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            simulate_fcfs_queue(np.array([1.0, 0.5]), np.array([1.0, 1.0]), 1)
        with pytest.raises(ValueError):
            simulate_fcfs_queue(np.array([0.0]), np.array([-1.0]), 1)
        with pytest.raises(ValueError):
            simulate_fcfs_queue(np.array([0.0]), np.array([1.0]), 0)
        with pytest.raises(ValueError):
            simulate_fcfs_queue(np.array([0.0, 1.0]), np.array([1.0]), 1)
        # NaN passes the ordering and sign checks, so it needs a check of its own
        for servers in (1, 2):
            for bad in (np.nan, np.inf, -np.inf):
                with pytest.raises(ValueError, match="finite"):
                    simulate_fcfs_queue(np.array([0.0, bad, 2.0]), np.ones(3), servers)
                with pytest.raises(ValueError, match="finite"):
                    simulate_fcfs_queue(np.arange(3.0), np.array([1.0, 1.0, bad]), servers)

    @given(
        n=st.integers(min_value=1, max_value=200),
        servers=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=50, deadline=None)
    def test_waits_nonnegative_and_more_servers_never_hurt(self, n, servers, seed):
        rng = np.random.default_rng(seed)
        a = np.cumsum(rng.exponential(0.1, n))
        s = rng.exponential(0.2, n)
        w1 = simulate_fcfs_queue(a, s, servers)
        w2 = simulate_fcfs_queue(a, s, servers + 1)
        assert np.all(w1 >= 0)
        assert w2.sum() <= w1.sum() + 1e-9

    @given(seed=st.integers(min_value=0, max_value=500))
    @settings(max_examples=30, deadline=None)
    def test_single_server_lindley_equals_heap_path(self, seed):
        """The specialized c=1 recursion must agree with the generic heap."""
        rng = np.random.default_rng(seed)
        n = 300
        a = np.cumsum(rng.exponential(0.1, n))
        s = rng.exponential(0.09, n)
        lindley = simulate_fcfs_queue(a, s, 1)
        np.testing.assert_allclose(lindley, heap_loop_waits(a, s, 1), atol=1e-12)


class TestNoWaitFastForward:
    """The NumPy vector phase leaves every wait the heap loop computes unchanged."""

    @pytest.mark.parametrize("servers", [2, 8, 40])
    @pytest.mark.parametrize("arrivals", ["poisson", "deterministic", "bursty"])
    @pytest.mark.parametrize("rho", [0.1, 0.3, 0.5, 0.7, 0.85, 0.99])
    def test_matches_the_heap_loop_bit_for_bit(self, servers, arrivals, rho):
        a, s = gg_workload(arrivals, rho, servers, 50_000, seed=int(rho * 100) + servers)
        waits = simulate_fcfs_queue(a, s, servers)
        assert waits.tobytes() == heap_loop_waits(a, s, servers).tobytes()

    @pytest.mark.parametrize("servers", [2, 8, 40])
    def test_ties_zero_services_and_negative_arrivals(self, servers):
        rng = np.random.default_rng(servers)
        n = 60_000
        a, s = gg_workload("poisson", 0.6, servers, n, seed=servers)
        cases = {
            # arrival times rounded to a coarse grid: many exact ties
            "tied": (np.floor(a * 20.0) / 20.0, s),
            # a tenth of the requests need no service at all
            "zero-service": (a, np.where(rng.random(n) < 0.1, 0.0, s)),
            # the first half arrives before t = 0, while the initial zeros hold
            "negative": (a - a[n // 2], s),
            # quarter-second lattice, exact in binary: departures land
            # exactly on later arrivals, and some services are zero
            "lattice": (
                np.arange(n) * 0.25,
                rng.integers(0, int(1.4 * servers) + 2, n) * 0.25,
            ),
            # arrivals 1/8 s apart in [2**13, 2**14), where 2**-39 s is one
            # unit in the last place, and each server is needed again one
            # service time later: most services end 4 units early, 1% on
            # time (a tie, no wait) and 1% one unit late (a wait the
            # fast-forward must not mistake for a free server)
            "near-ties": (
                2.0**13 + np.arange(n) * 0.125,
                servers * 0.125
                + rng.choice([-4, 0, 1], n, p=[0.98, 0.01, 0.01]) * 2.0**-39,
            ),
        }
        for name, (arr, srv) in cases.items():
            waits = simulate_fcfs_queue(arr, srv, servers)
            assert waits.tobytes() == heap_loop_waits(arr, srv, servers).tobytes(), name

    @pytest.mark.parametrize("servers", [2, 8, 40])
    def test_short_inputs(self, servers):
        for n in (0, 1, 2, servers, servers + 1):
            for arrivals in ("poisson", "bursty"):
                a, s = gg_workload(arrivals, 0.9, servers, n, seed=n)
                waits = simulate_fcfs_queue(a, s, servers)
                assert waits.tobytes() == heap_loop_waits(a, s, servers).tobytes()

    @pytest.mark.parametrize("workload", ["poisson", "exact-ties"])
    def test_quiet_queue_skips_the_loop(self, workload, monkeypatch):
        """A queue where almost no request waits sends almost none through
        the per-request heap loop: Poisson at c = 40 and rho = 0.3, and a
        D/D/2 queue whose servers free up exactly as the next request
        arrives (a tie is a free server, not a wait)."""
        if workload == "poisson":
            servers = 40
            a, s = gg_workload("poisson", 0.3, servers, 50_000, seed=3)
        else:
            servers = 2
            a, s = np.arange(50_000) * 0.5, np.ones(50_000)
        calls = count_loop_steps(monkeypatch)
        waits = simulate_fcfs_queue(a, s, servers)
        assert calls() < 0.05 * a.size
        assert waits.tobytes() == heap_loop_waits(a, s, servers).tobytes()

    def test_busy_queue_runs_the_loop(self, monkeypatch):
        """At rho = 0.75 with c = 8 a third of the requests wait in long
        busy periods, so the scalar phase takes nearly every request, and
        still computes the heap loop's waits."""
        servers = 8
        a, s = gg_workload("poisson", 0.75, servers, 50_000, seed=1)
        calls = count_loop_steps(monkeypatch)
        waits = simulate_fcfs_queue(a, s, servers)
        assert calls() > 0.9 * a.size
        assert 0.2 < (waits > 0).mean() < 0.5
        assert waits.tobytes() == heap_loop_waits(a, s, servers).tobytes()

    @pytest.mark.parametrize(("servers", "rho"), [(8, 0.4), (40, 0.75)])
    def test_sparse_waits_skip_the_loop(self, servers, rho, monkeypatch):
        """Queues where a few percent of the requests wait are settled by
        the fixed-point rounds, waits included: the loop took 53% and 41%
        of these requests when the vector phase stopped at the first wait."""
        a, s = gg_workload("poisson", rho, servers, 50_000, seed=1)
        calls = count_loop_steps(monkeypatch)
        waits = simulate_fcfs_queue(a, s, servers)
        assert (waits > 0).mean() > 0.01
        assert calls() < 0.1 * a.size
        assert waits.tobytes() == heap_loop_waits(a, s, servers).tobytes()

    def test_absorbed_service_goes_to_the_loop(self):
        """The third request's guessed departure rounds to its own guessed
        start, 2**21, so it did not move in round 1; it really waits until
        2**22 for one of the first two."""
        a = np.array([0.0, 0.0, 2.0**21 - 2.0**-32])
        s = np.array([2.0**22, 2.0**22, 1.5e-10])
        taken, _, _, _ = fastsim._proven_prefix(a, s, np.zeros(2), a + s)
        assert taken == 2
        waits = simulate_fcfs_queue(a, s, 2)
        assert waits.tolist() == [0.0, 0.0, 2.0**21]
        assert waits.tobytes() == heap_loop_waits(a, s, 2).tobytes()


class TestProvenPrefix:
    """The acceptance rule of one fixed-point round, as a pure function of
    ``(a, s, heap, d)``: whatever the guess ``d``, the prefix it accepts
    is the heap loop's."""

    def test_exhaustive_lattice_matches_the_loop(self):
        """Every case on a small lattice: non-decreasing arrivals in
        {0, 1}, services in {0, 1}, any heap of 1 or 2 free times in
        {0, 1, 2} and any guess in {0, ..., 3}, for 1 to 3 requests.
        Ties, zero services and guesses on either side of the truth are
        everywhere; each rule with one of its tests weakened accepts a
        wrong prefix here."""
        cases = whole = part = waited = 0
        for servers, m in itertools.product((1, 2), (1, 2, 3)):
            for a in itertools.combinations_with_replacement((0.0, 1.0), m):
                for s in itertools.product((0.0, 1.0), repeat=m):
                    for heap in itertools.combinations_with_replacement((0.0, 1.0, 2.0), servers):
                        found, departs = loop_from(heap, a, s)
                        for d in itertools.product((0.0, 1.0, 2.0, 3.0), repeat=m):
                            taken, pool, after, _ = fastsim._proven_prefix(
                                np.array(a), np.array(s), np.array(heap), np.array(d)
                            )
                            assert pool[:taken].tolist() == found[:taken], (a, s, heap, d)
                            assert after[:taken].tolist() == departs[:taken], (a, s, heap, d)
                            cases += 1
                            whole += taken == m
                            part += 0 < taken < m
                            waited += sum(t > ai for t, ai in zip(found[:taken], a))
        assert cases == 20_304
        # the sweep proves whole blocks, strict prefixes and waits
        assert whole > 50 and part > 500 and waited > 200

    @pytest.mark.parametrize("servers", [2, 8, 40])
    def test_true_departures_are_accepted_whole(self, servers):
        """Guessing the loop's own departures proves a block with waits and
        no absorbed service in one round."""
        a, s = gg_workload("poisson", 0.9, servers, 2_000, seed=servers)
        found, departs = loop_from([0.0] * servers, a.tolist(), s.tolist())
        assert np.mean(np.array(found) > a) > 0.1
        taken, pool, after, unsettled = fastsim._proven_prefix(
            a, s, np.zeros(servers), np.array(departs)
        )
        assert (taken, unsettled) == (a.size, 0)
        assert after.tobytes() == np.array(departs).tobytes()


class TestSystems:
    def test_single_queue_system_adds_constant_rtt(self):
        a = np.array([0.0, 1.0])
        s = np.array([0.1, 0.1])
        res = simulate_single_queue_system(a, s, 1, ConstantLatency.from_ms(25.0))
        np.testing.assert_allclose(res.network, 0.025)
        np.testing.assert_allclose(res.end_to_end, res.network + res.wait + res.service)

    def test_single_queue_system_with_jitter_reorders_safely(self):
        a, s = poisson_workload(8.0, 13.0, 50_000, seed=4)
        latency = NormalJitterLatency.from_ms(25.0, 2.0)
        res = simulate_single_queue_system(a, s, 1, latency, np.random.default_rng(0))
        assert np.all(res.wait >= 0)
        assert res.network.mean() == pytest.approx(0.025, rel=0.05)

    def test_edge_system_concatenates_sites(self):
        sites_a = [np.array([0.0, 1.0]), np.array([0.5])]
        sites_s = [np.array([0.1, 0.1]), np.array([0.2])]
        res = simulate_edge_system(sites_a, sites_s, 1, ConstantLatency.from_ms(1.0))
        assert len(res) == 3
        np.testing.assert_array_equal(res.created, [0.0, 1.0, 0.5])
        np.testing.assert_array_equal(res.end_to_end, [0.101, 0.101, 0.201])
        np.testing.assert_array_equal(res.wait, [0.0, 0.0, 0.0])
        np.testing.assert_array_equal(res.service, [0.1, 0.1, 0.2])
        np.testing.assert_array_equal(res.network, [0.001, 0.001, 0.001])
        np.testing.assert_array_equal(res.site, [0, 0, 1])
        assert len(res.for_site(0)) == 2

    def test_edge_system_rejects_mismatch(self):
        with pytest.raises(ValueError):
            simulate_edge_system([np.array([0.0])], [], 1, ConstantLatency(0.001))

    def test_after_trims_by_arrival(self):
        a = np.array([0.0, 10.0, 20.0])
        s = np.array([0.1, 0.1, 0.1])
        res = simulate_single_queue_system(a, s, 1, ConstantLatency(0.0))
        assert len(res.after(5.0)) == 2

    def test_edge_vs_cloud_pooling_effect(self):
        """Same aggregate workload: pooled cloud queue waits less than edge."""
        k, rate, mu, n = 5, 10.0, 13.0, 60_000
        rng = np.random.default_rng(5)
        site_a = [np.cumsum(rng.exponential(1.0 / rate, n)) for _ in range(k)]
        site_s = [rng.exponential(1.0 / mu, n) for _ in range(k)]
        edge = simulate_edge_system(site_a, site_s, 1, ConstantLatency(0.0))
        merged = np.concatenate(site_a)
        order = np.argsort(merged, kind="stable")
        cloud = simulate_single_queue_system(
            merged[order], np.concatenate(site_s)[order], k, ConstantLatency(0.0)
        )
        assert cloud.wait.mean() < edge.wait.mean()


class TestOneRecord:
    def test_every_engine_returns_latency_breakdown(self):
        """fastsim, geo and the event engine share one latency record."""
        a = np.array([0.0, 0.5, 1.0])
        s = np.array([0.1, 0.2, 0.1])
        latency = ConstantLatency.from_ms(24.0)
        geo = simulate_geo_comparison(
            [Region("a", weight=1.0, edge_rtt=0.001, cloud_rtt=0.02)],
            10.0, Exponential(0.05), 1, n_per_region_unit=200,
        )
        records = [
            simulate_single_queue_system(a, s, 2, latency),
            simulate_lb_system(a, s, 2, latency, policy="jsq", backends=2),
            simulate_edge_system([a], [s], 1, latency),
            geo.edge,
            geo.cloud,
            run_deployment(
                "edge", sites=1, servers_per_site=1, rate_per_site=5.0,
                service_dist=Exponential(0.05), latency=latency, duration=20.0,
            ),
        ]
        for record in records:
            assert type(record) is LatencyBreakdown
            assert len(record) > 0

    @pytest.mark.parametrize("rtt_ms", [1.0, 24.0, 54.0])
    def test_constant_latency_shortcut_is_exact(self, rtt_ms):
        """A constant model skips the sort, yet matches zero-jitter sampled legs.

        JSQ is left out: sampling the legs moves its tie-break stream.
        """
        a, s = poisson_workload(400.0, 13.0, 20_000, seed=6)

        def central(latency):
            return simulate_single_queue_system(a, s, 40, latency, np.random.default_rng(1))

        def round_robin(latency):
            return simulate_lb_system(
                a, s, 40, latency, np.random.default_rng(1), backends=5
            )

        for run in (central, round_robin):
            constant = run(ConstantLatency.from_ms(rtt_ms))
            sampled = run(NormalJitterLatency.from_ms(rtt_ms, 0.0))
            for column in ("wait", "network", "end_to_end"):
                np.testing.assert_array_equal(
                    getattr(constant, column), getattr(sampled, column)
                )
