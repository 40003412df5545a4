"""Tests for the closed-loop client model and the cloud's network legs."""

import numpy as np
import pytest

from repro.mitigation.offload import HybridDeployment
from repro.queueing.distributions import Deterministic, Exponential
from repro.sim.client import ClosedLoopSource, OpenLoopSource
from repro.sim.engine import Simulation
from repro.sim.network import ConstantLatency
from repro.sim.topology import CloudDeployment, EdgeDeployment, EdgeSite

MU = 13.0
SERVICE = Exponential(1.0 / MU)


def run_closed(users, think_mean, duration=600.0, servers=1, seed=0):
    sim = Simulation(seed)
    cloud = CloudDeployment(
        sim, servers=servers, latency=ConstantLatency(0.001), service_dist=SERVICE
    )
    src = ClosedLoopSource(
        sim, cloud, users=users, think=Exponential(think_mean), stop_time=duration
    )
    sim.run()
    return cloud, src


class TestClosedLoopSource:
    def test_concurrency_never_exceeds_population(self):
        cloud, src = run_closed(users=4, think_mean=0.01, duration=200.0)
        st = cloud.stations[0]
        # With 4 users, at most 4 requests can ever be in the station.
        assert st.arrivals == len(cloud.log)
        bd = cloud.log.breakdown()
        # Queue wait is bounded: at most 3 requests ahead of you.
        assert bd.wait.max() < 10 * (4 / MU)

    def test_interactive_law(self):
        """Closed-system throughput: X = N / (E[T] + E[Z])."""
        cloud, src = run_closed(users=10, think_mean=0.5, duration=2000.0, servers=4)
        bd = cloud.log.breakdown()
        duration = bd.created.max() - bd.created.min()
        throughput = len(bd) / duration
        expected = 10.0 / (bd.end_to_end.mean() + 0.5)
        assert throughput == pytest.approx(expected, rel=0.05)

    def test_self_throttles_under_congestion(self):
        """Closed loop saturates gracefully where open loop diverges."""
        # Open loop at rho=1.3 on one server: waits grow with the run.
        sim = Simulation(1)
        open_cloud = CloudDeployment(
            sim, servers=1, latency=ConstantLatency(0.001), service_dist=SERVICE
        )
        OpenLoopSource(sim, open_cloud, Exponential(1.0 / 17.0), stop_time=400.0)
        sim.run()
        open_wait = open_cloud.log.breakdown().after(200.0).wait.mean()
        # Closed loop with enough users to saturate: bounded waits.
        closed_cloud, _ = run_closed(users=8, think_mean=0.01, duration=400.0)
        closed_wait = closed_cloud.log.breakdown().after(200.0).wait.mean()
        assert closed_wait < open_wait / 3

    def test_works_on_edge_deployment(self):
        sim = Simulation(2)
        edge = EdgeDeployment(
            sim, [EdgeSite(sim, "s0", 1, ConstantLatency(0.001), SERVICE)]
        )
        src = ClosedLoopSource(
            sim, edge, users=3, think=Exponential(0.1), site="s0", stop_time=200.0
        )
        sim.run()
        assert len(edge.log) == src.generated
        assert len(edge.log) > 100

    def test_works_on_hybrid_deployment(self):
        sim = Simulation(4)
        hybrid = HybridDeployment(
            sim, sites=1, servers_per_site=1, cloud_servers=2,
            edge_latency=ConstantLatency(0.001), cloud_latency=ConstantLatency(0.02),
            service_dist=SERVICE,
        )
        src = ClosedLoopSource(
            sim, hybrid, users=4, think=Exponential(0.05), site="site-0", stop_time=200.0
        )
        sim.run()
        assert hybrid.offloaded > 0  # both tiers answered the loop
        assert src.generated == len(hybrid.log)
        assert src.outstanding == 0

    def test_chains_existing_hook(self):
        sim = Simulation(3)
        cloud = CloudDeployment(
            sim, servers=1, latency=ConstantLatency(0.0), service_dist=SERVICE
        )
        seen = []
        cloud.on_complete = seen.append
        ClosedLoopSource(sim, cloud, users=2, think=Deterministic(0.05), stop_time=50.0)
        sim.run()
        assert len(seen) == len(cloud.log)

    def test_validation(self):
        sim = Simulation(0)
        cloud = CloudDeployment(sim, servers=1, latency=ConstantLatency(0.0))
        with pytest.raises(ValueError):
            ClosedLoopSource(sim, cloud, users=0, think=Deterministic(0.1))
        with pytest.raises(TypeError):
            ClosedLoopSource(sim, object(), users=1, think=Deterministic(0.1))


class TestLbOverhead:
    """The cloud path has no separate balancer hop: its network time is
    the client RTT, whatever the dispatch policy."""

    def test_adds_to_network_time(self):
        from repro.sim.loadbalancer import RoundRobin
        from repro.sim.request import Request

        for policy, backends in ((None, None), (RoundRobin(), 1)):
            sim = Simulation(0)
            cloud = CloudDeployment(
                sim, servers=1, latency=ConstantLatency(0.020),
                service_dist=Deterministic(0.01), policy=policy, backends=backends,
            )
            req = Request(0, created=0.0)
            sim.schedule(0.0, cloud.submit, req)
            sim.run()
            # one-way 10ms + return 10ms, nothing added by a balancer.
            assert req.network_time == pytest.approx(0.020)

    def test_negative_rejected(self):
        sim = Simulation(0)
        with pytest.raises(TypeError):
            CloudDeployment(
                sim, servers=1, latency=ConstantLatency(0.0), lb_overhead=0.001
            )


class TestClosedLoopDropConservation:
    """Regression: bounded-queue drops must not leak virtual users.

    Before drops were routed through ``on_complete``, a dropped request
    silently removed its virtual user from the population — a long run
    against a small queue would bleed the closed loop down to zero
    concurrency.
    """

    def _run(self, queue_capacity, duration=300.0):
        sim = Simulation(5)
        site = EdgeSite(
            sim, "s0", 1, ConstantLatency(0.001), Deterministic(0.5),
            queue_capacity=queue_capacity,
        )
        edge = EdgeDeployment(sim, [site])
        src = ClosedLoopSource(
            sim, edge, users=8, think=Exponential(0.1), site="s0",
            stop_time=duration,
        )
        sim.run()
        return edge, src

    def test_population_survives_drops(self):
        edge, src = self._run(queue_capacity=2)
        assert edge.dropped > 0  # the bounded queue actually shed load
        # Every user got a response (served or dropped) for every
        # request it issued: nobody is stuck waiting.
        assert src.outstanding == 0
        assert src.failed_responses == edge.dropped
        assert src.generated == len(edge.log) + edge.dropped

    def test_dropped_requests_marked_and_kept_out_of_latency_log(self):
        edge, src = self._run(queue_capacity=1)
        assert edge.dropped > 0
        # The latency log only holds served requests (no NaN rows).
        bd = edge.log.breakdown()
        assert len(bd) == src.generated - edge.dropped
        assert np.isfinite(bd.end_to_end).all()

    def test_unbounded_queue_unchanged(self):
        edge, src = self._run(queue_capacity=None)
        assert edge.dropped == 0
        assert src.failed_responses == 0
        assert src.outstanding == 0
