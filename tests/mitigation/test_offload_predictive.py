"""Tests for hierarchical offloading and bounded stations."""

from itertools import count

import numpy as np
import pytest

from repro.mitigation.offload import HybridDeployment
from repro.queueing.distributions import Exponential
from repro.sim.client import OpenLoopSource
from repro.sim.engine import Simulation
from repro.sim.network import ConstantLatency, LossyLatency
from repro.sim.runner import run_deployment

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

    def test_lossy_link_loses_requests_on_the_way_out(self):
        sim = Simulation(7)
        hybrid = HybridDeployment(
            sim, sites=1, servers_per_site=2, cloud_servers=4,
            edge_latency=LossyLatency(ConstantLatency(0.001), loss_prob=0.5),
            cloud_latency=ConstantLatency(0.02), service_dist=Exponential(0.05),
        )
        OpenLoopSource(sim, hybrid, Exponential(0.1), site="site-0", stop_time=100.0)
        sim.run()
        arrivals = sum(st.arrivals for st in hybrid.stations)
        # Nothing is refused, so every served response is either logged
        # or lost on the way back; the rest of ``lost`` never arrived.
        lost_back = sum(st.completions for st in hybrid.stations) - len(hybrid.log)
        lost_out = hybrid.lost - lost_back
        assert lost_out > 0
        assert arrivals + lost_out == hybrid.submitted

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
