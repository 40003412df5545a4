"""Tests for hierarchical offloading and the predictive autoscaler."""

from itertools import count

import numpy as np
import pytest

from repro.mitigation.offload import HybridDeployment
from repro.mitigation.predictive import PredictiveAutoscaler
from repro.queueing.distributions import Exponential
from repro.sim.client import OpenLoopSource
from repro.sim.engine import Simulation
from repro.sim.network import ConstantLatency
from repro.sim.runner import run_deployment
from repro.sim.topology import EdgeDeployment, EdgeSite

MU = 13.0
SERVICE = Exponential(1.0 / MU)
EDGE_LAT = ConstantLatency.from_ms(1.0)
CLOUD_LAT = ConstantLatency.from_ms(25.0)


def run_hybrid(rate_per_site=11.0, threshold=1.0, sites=5, duration=1500.0, seed=0):
    sim = Simulation(seed)
    hybrid = HybridDeployment(
        sim,
        sites=sites,
        servers_per_site=1,
        cloud_servers=sites,
        edge_latency=EDGE_LAT,
        cloud_latency=CLOUD_LAT,
        service_dist=SERVICE,
        offload_threshold=threshold,
    )
    for i in range(sites):
        OpenLoopSource(
            sim, hybrid, Exponential(1.0 / rate_per_site), site=f"site-{i}",
            stop_time=duration,
        )
    sim.run()
    return hybrid, hybrid.log.breakdown().after(duration * 0.2)


class TestHybridDeployment:
    def test_beats_pure_edge_at_high_load(self):
        hybrid, bd = run_hybrid(rate_per_site=11.0, seed=1)
        pure_edge = run_deployment(
            "edge", sites=5, servers_per_site=1, rate_per_site=11.0,
            service_dist=SERVICE, latency=EDGE_LAT, duration=1500.0, seed=1,
        )
        assert bd.end_to_end.mean() < pure_edge.end_to_end.mean()
        assert hybrid.offload_fraction > 0.1

    def test_beats_pure_cloud_at_low_load(self):
        _, bd = run_hybrid(rate_per_site=3.0, seed=2)
        pure_cloud = run_deployment(
            "cloud", sites=5, servers_per_site=1, rate_per_site=3.0,
            service_dist=SERVICE, latency=CLOUD_LAT, duration=1500.0, seed=2,
        )
        assert bd.end_to_end.mean() < pure_cloud.end_to_end.mean()

    def test_no_offload_when_idle(self):
        hybrid, _ = run_hybrid(rate_per_site=0.5, threshold=3.0, seed=3, duration=400.0)
        assert hybrid.offload_fraction < 0.05

    def test_huge_threshold_means_pure_edge(self):
        hybrid, _ = run_hybrid(rate_per_site=8.0, threshold=1e9, seed=4, duration=400.0)
        assert hybrid.offloaded == 0

    def test_offloaded_requests_marked_cloud(self):
        hybrid, bd = run_hybrid(rate_per_site=11.0, seed=5, duration=500.0)
        assert "cloud" in bd.sites
        assert len(bd.for_site("cloud")) == pytest.approx(
            hybrid.offloaded, rel=0.3
        )

    def test_unknown_site_rejected(self):
        sim = Simulation(0)
        hybrid = HybridDeployment(
            sim, sites=2, servers_per_site=1, cloud_servers=2,
            edge_latency=EDGE_LAT, cloud_latency=CLOUD_LAT, service_dist=SERVICE,
        )
        from repro.sim.request import Request

        sim.schedule(0.0, hybrid.submit, Request(0, site="nowhere", created=0.0))
        with pytest.raises(KeyError):
            sim.run()

    def test_validation(self):
        sim = Simulation(0)
        with pytest.raises(ValueError):
            HybridDeployment(
                sim, sites=0, servers_per_site=1, cloud_servers=1,
                edge_latency=EDGE_LAT, cloud_latency=CLOUD_LAT, service_dist=SERVICE,
            )
        with pytest.raises(ValueError):
            HybridDeployment(
                sim, sites=1, servers_per_site=1, cloud_servers=1,
                edge_latency=EDGE_LAT, cloud_latency=CLOUD_LAT, service_dist=SERVICE,
                offload_threshold=0.0,
            )

    def test_offload_fraction_zero_before_use(self):
        sim = Simulation(0)
        hybrid = HybridDeployment(
            sim, sites=1, servers_per_site=1, cloud_servers=1,
            edge_latency=EDGE_LAT, cloud_latency=CLOUD_LAT, service_dist=SERVICE,
        )
        assert hybrid.offload_fraction == 0.0


def run_predictive(rate=11.0, duration=800.0, seed=7, **kwargs):
    sim = Simulation(seed)
    site = EdgeSite(sim, "s0", 1, EDGE_LAT, SERVICE)
    edge = EdgeDeployment(sim, [site])
    OpenLoopSource(sim, edge, Exponential(1.0 / rate), site="s0", stop_time=duration)
    scaler = PredictiveAutoscaler(
        sim, [site.station], MU, interval=20.0, stop_time=duration, **kwargs
    )
    sim.run()
    return edge, site, scaler


class TestPredictiveAutoscaler:
    def test_scales_up_under_load(self):
        _, site, scaler = run_predictive()
        assert scaler.scale_events > 0
        assert site.station.servers >= 1

    def test_headroom_provisions_more(self):
        _, site_lo, _ = run_predictive(headroom_sigmas=0.0, seed=8)
        _, site_hi, _ = run_predictive(headroom_sigmas=4.0, seed=8)
        assert site_hi.station.servers >= site_lo.station.servers

    def test_improves_latency_vs_fixed_single_server(self):
        edge, _, _ = run_predictive(rate=11.0, seed=9)
        fixed = run_deployment(
            "edge", sites=1, servers_per_site=1, rate_per_site=11.0,
            service_dist=SERVICE, latency=EDGE_LAT, duration=800.0, seed=9,
        )
        scaled = edge.log.breakdown().after(160.0).end_to_end.mean()
        assert scaled < fixed.end_to_end.mean()

    def test_respects_bounds(self):
        _, site, _ = run_predictive(max_servers=2, seed=10)
        assert site.station.servers <= 2

    def test_validation(self):
        sim = Simulation(0)
        from repro.sim.station import Station

        st_ = Station(sim, 1, SERVICE)
        with pytest.raises(ValueError):
            PredictiveAutoscaler(sim, [], MU)
        with pytest.raises(ValueError):
            PredictiveAutoscaler(sim, [st_], 0.0)
        with pytest.raises(ValueError):
            PredictiveAutoscaler(sim, [st_], MU, alpha=0.0)
        with pytest.raises(ValueError):
            PredictiveAutoscaler(sim, [st_], MU, headroom_sigmas=-1.0)
        with pytest.raises(ValueError):
            PredictiveAutoscaler(sim, [st_], MU, interval=0.0)
        with pytest.raises(ValueError):
            PredictiveAutoscaler(sim, [st_], MU, min_servers=3, max_servers=2)


class TestBoundedStation:
    def test_drops_when_full(self):
        from repro.queueing.distributions import Deterministic
        from repro.sim.request import Request
        from repro.sim.station import Station

        sim = Simulation(0)
        st_ = Station(sim, 1, Deterministic(10.0), queue_capacity=1)
        outcomes = []
        st_.on_refuse = lambda r, outcome: outcomes.append(outcome)
        for i in range(4):
            sim.schedule(0.0, st_.arrive, Request(i, created=0.0))
        sim.run(until=1.0)
        # One in service, one queued, two dropped.
        assert st_.drops == 2
        assert outcomes == ["dropped", "dropped"]
        assert st_.loss_rate == pytest.approx(0.5)

    def test_mm1k_loss_matches_theory(self):
        """M/M/1/K blocking: P_K = (1-rho) rho^K / (1 - rho^(K+1))."""
        from repro.sim.request import Request
        from repro.sim.station import Station

        rho, mu, K = 0.8, 10.0, 4  # capacity K = servers + queue slots
        sim = Simulation(42)
        st_ = Station(sim, 1, Exponential(1.0 / mu), queue_capacity=K - 1)
        rng = sim.spawn_rng()

        ids = count()

        def gen():
            if sim.now < 4000.0:
                st_.arrive(Request(next(ids), created=sim.now))
                sim.schedule(rng.exponential(1.0 / (rho * mu)), gen)

        sim.schedule(0.0, gen)
        sim.run(until=4000.0)
        expected = (1 - rho) * rho**K / (1 - rho ** (K + 1))
        assert st_.loss_rate == pytest.approx(expected, rel=0.1)

    def test_unbounded_never_drops(self):
        from repro.sim.request import Request
        from repro.sim.station import Station

        sim = Simulation(0)
        st_ = Station(sim, 1, Exponential(0.1))
        for i in range(100):
            sim.schedule(0.0, st_.arrive, Request(i, created=0.0))
        sim.run()
        assert st_.drops == 0
        assert st_.loss_rate == 0.0

    def test_negative_capacity_rejected(self):
        from repro.sim.station import Station

        with pytest.raises(ValueError):
            Station(Simulation(0), 1, SERVICE, queue_capacity=-1)
