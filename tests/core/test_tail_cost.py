"""Tests for the analytic tail bounds and the cost model extensions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost import CostModel, compare_slo_costs, min_servers_for_slo
from repro.core.inversion import cutoff_utilization_exact
from repro.core.tail import cutoff_utilization_tail, tail_response_difference
from repro.queueing.mmk import MMk
from repro.sim.fastsim import simulate_fcfs_queue


class TestTailBounds:
    def test_zero_rho_no_difference(self):
        assert tail_response_difference(0.0, 13.0, 1, 5) == 0.0

    def test_difference_positive_and_growing(self):
        d_low = tail_response_difference(0.4, 13.0, 1, 5)
        d_high = tail_response_difference(0.8, 13.0, 1, 5)
        assert 0 < d_low < d_high

    def test_tail_cutoff_below_mean_cutoff(self):
        """The Figure 5 effect, predicted analytically."""
        dn, mu, ke, kc = 0.023, 13.0 / 8.0, 8, 40
        tail = cutoff_utilization_tail(dn, mu, ke, kc, q=0.95)
        mean = cutoff_utilization_exact(dn, mu, ke, kc)
        assert 0 < tail < mean < 1

    def test_cutoff_solves_fixed_point(self):
        dn, mu, ke, kc = 0.023, 13.0 / 8.0, 8, 40
        rho = cutoff_utilization_tail(dn, mu, ke, kc, q=0.95)
        assert tail_response_difference(rho, mu, ke, kc, 0.95) == pytest.approx(
            dn, rel=1e-5
        )

    def test_equal_pools_never_invert(self):
        assert cutoff_utilization_tail(0.01, 13.0, 5, 5) == 1.0

    def test_tiny_delta_always_inverted(self):
        assert cutoff_utilization_tail(1e-9, 13.0, 1, 50) == pytest.approx(0.0, abs=1e-2)

    @given(q=st.floats(min_value=0.5, max_value=0.995))
    @settings(max_examples=40, deadline=None)
    def test_higher_quantiles_invert_earlier(self, q):
        dn, mu, ke, kc = 0.023, 13.0 / 8.0, 8, 40
        hi = cutoff_utilization_tail(dn, mu, ke, kc, q=min(0.999, q + 0.004))
        lo = cutoff_utilization_tail(dn, mu, ke, kc, q=q)
        assert hi <= lo + 1e-6

    def test_matches_simulated_tail_crossover(self):
        """The analytic tail cutoff predicts the simulated p95 crossover."""
        mu, ke, kc, dn = 13.0 / 8.0, 8, 40, 0.023
        predicted = cutoff_utilization_tail(dn, mu, ke, kc, q=0.95)
        rng = np.random.default_rng(3)
        n = 150_000

        def p95_gap(rho):
            lam_site = rho * ke * mu
            edge_w, cloud_w = [], []
            for _ in range(5):
                a = np.cumsum(rng.exponential(1.0 / lam_site, n))
                s = rng.exponential(1.0 / mu, n)
                edge_w.append(simulate_fcfs_queue(a, s, ke) + s)
            a = np.cumsum(rng.exponential(1.0 / (5 * lam_site), 5 * n))
            s = rng.exponential(1.0 / mu, 5 * n)
            cloud = simulate_fcfs_queue(a, s, kc) + s
            edge = np.concatenate(edge_w)
            return np.quantile(edge, 0.95) - np.quantile(cloud, 0.95) - dn

        assert p95_gap(predicted - 0.08) < 0
        assert p95_gap(predicted + 0.08) > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            tail_response_difference(1.0, 13.0, 1, 5)
        with pytest.raises(ValueError):
            tail_response_difference(0.5, 13.0, 1, 5, q=1.0)
        with pytest.raises(ValueError):
            cutoff_utilization_tail(0.0, 13.0, 1, 5)


class TestMinServersForSlo:
    def test_meets_slo_and_is_minimal(self):
        lam, mu, slo = 40.0, 13.0, 0.5
        c = min_servers_for_slo(lam, mu, slo, q=0.95)
        assert MMk(lam, mu, c).response_time_percentile(0.95) <= slo
        if c > 1 and lam / ((c - 1) * mu) < 1.0:
            assert MMk(lam, mu, c - 1).response_time_percentile(0.95) > slo

    def test_zero_load_needs_one(self):
        assert min_servers_for_slo(0.0, 13.0, 1.0) == 1

    def test_infeasible_slo_rejected(self):
        # p95 of Exp(13) alone is ~230 ms; a 10 ms SLO is impossible.
        with pytest.raises(ValueError):
            min_servers_for_slo(1.0, 13.0, 0.010)

    @given(lam=st.floats(min_value=1.0, max_value=200.0))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_load(self, lam):
        mu, slo = 13.0, 0.6
        assert min_servers_for_slo(lam + 20.0, mu, slo) >= min_servers_for_slo(
            lam, mu, slo
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            min_servers_for_slo(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            min_servers_for_slo(1.0, 13.0, 1.0, q=0.0)


class TestCompareSloCosts:
    def test_edge_needs_more_servers_for_same_slo(self):
        edge, cloud = compare_slo_costs(
            total_rate=40.0, service_rate=13.0, sites=5,
            edge_rtt=0.001, cloud_rtt=0.024, latency_slo=0.5,
        )
        assert edge.servers >= cloud.servers  # no pooling at the edge
        assert edge.achieved_latency <= 0.5
        assert cloud.achieved_latency <= 0.5

    def test_edge_costs_more_at_loose_slo(self):
        edge, cloud = compare_slo_costs(
            total_rate=40.0, service_rate=13.0, sites=5,
            edge_rtt=0.001, cloud_rtt=0.024, latency_slo=0.8,
        )
        assert edge.hourly_cost > cloud.hourly_cost

    def test_tight_slo_only_edge_feasible(self):
        # SLO below the cloud RTT: the cloud cannot play.
        with pytest.raises(ValueError, match="only an edge deployment"):
            compare_slo_costs(
                total_rate=10.0, service_rate=13.0, sites=5,
                edge_rtt=0.001, cloud_rtt=0.080, latency_slo=0.070,
            )

    def test_impossible_slo_rejected(self):
        with pytest.raises(ValueError, match="infeasible everywhere"):
            compare_slo_costs(
                total_rate=10.0, service_rate=13.0, sites=5,
                edge_rtt=0.010, cloud_rtt=0.024, latency_slo=0.005,
            )

    def test_custom_cost_model(self):
        cm = CostModel(cloud_server_hourly=1.0, edge_server_hourly=1.0,
                       site_overhead_hourly=0.0)
        edge, cloud = compare_slo_costs(
            total_rate=40.0, service_rate=13.0, sites=5,
            edge_rtt=0.001, cloud_rtt=0.024, latency_slo=0.8, cost_model=cm,
        )
        # With equal unit prices the gap is purely the pooling penalty.
        assert edge.hourly_cost == edge.servers * 1.0
        assert cloud.hourly_cost == cloud.servers * 1.0

    def test_cost_model_validation(self):
        with pytest.raises(ValueError):
            CostModel(cloud_server_hourly=0.0)
        with pytest.raises(ValueError):
            CostModel(site_overhead_hourly=-1.0)

    def test_args_validation(self):
        with pytest.raises(ValueError):
            compare_slo_costs(
                total_rate=0.0, service_rate=13.0, sites=5,
                edge_rtt=0.001, cloud_rtt=0.024, latency_slo=0.5,
            )
        with pytest.raises(ValueError):
            compare_slo_costs(
                total_rate=10.0, service_rate=13.0, sites=0,
                edge_rtt=0.001, cloud_rtt=0.024, latency_slo=0.5,
            )
        with pytest.raises(ValueError):
            compare_slo_costs(
                total_rate=10.0, service_rate=13.0, sites=5,
                edge_rtt=0.030, cloud_rtt=0.024, latency_slo=0.5,
            )

    def test_str_renders(self):
        edge, _ = compare_slo_costs(
            total_rate=40.0, service_rate=13.0, sites=5,
            edge_rtt=0.001, cloud_rtt=0.024, latency_slo=0.5,
        )
        assert "edge" in str(edge) and "/h" in str(edge)
