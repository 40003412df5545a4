"""Tests for the vectorized Kiefer-Wolfowitz fast path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.queueing.distributions import Exponential
from repro.queueing.mm1 import MM1
from repro.queueing.mmk import MMk
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
        # Force the heap path by asking for 2 servers over a thinned
        # sequence is not equivalent; instead replicate the heap manually.
        import heapq

        free = [0.0]
        expected = np.empty(n)
        for i in range(n):
            t = heapq.heappop(free)
            start = max(t, a[i])
            expected[i] = start - a[i]
            heapq.heappush(free, start + s[i])
        np.testing.assert_allclose(lindley, expected, atol=1e-12)


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
