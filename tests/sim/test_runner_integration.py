"""Integration tests: full-engine runs validated against queueing theory.

These are the simulator's ground-truth anchors (DESIGN.md §5): the DES
and the fast path must both agree with exact M/M/1 / M/M/k results, and
the two simulation paths must agree with each other.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.parallel.seeding import derive_seed
from repro.queueing.distributions import Exponential
from repro.queueing.mm1 import MM1
from repro.queueing.mmk import MMk
from repro.sim import runner
from repro.sim.loadbalancer import JoinShortestQueue
from repro.sim.network import ConstantLatency
from repro.sim.runner import run_comparison, run_deployment
from repro.workload.trace import RequestTrace

MU = 13.0
SERVICE = Exponential(1.0 / MU)
EDGE_LAT = ConstantLatency.from_ms(1.0)
CLOUD_LAT = ConstantLatency.from_ms(25.0)


@pytest.fixture(scope="module")
def edge_run():
    return run_deployment(
        "edge",
        sites=5,
        servers_per_site=1,
        rate_per_site=8.0,
        service_dist=SERVICE,
        latency=EDGE_LAT,
        duration=3000.0,
        seed=11,
    )


@pytest.fixture(scope="module")
def cloud_run():
    return run_deployment(
        "cloud",
        sites=5,
        servers_per_site=1,
        rate_per_site=8.0,
        service_dist=SERVICE,
        latency=CLOUD_LAT,
        duration=3000.0,
        seed=12,
    )


class TestAgainstTheory:
    def test_edge_site_wait_matches_mm1(self, edge_run):
        # Each site is M/M/1 at lambda=8, mu=13.
        expected = MM1(8.0, MU).mean_wait()
        assert edge_run.wait.mean() == pytest.approx(expected, rel=0.08)

    def test_cloud_wait_matches_mmk(self, cloud_run):
        # Cloud sees 40 req/s over 5 pooled servers.
        expected = MMk(40.0, MU, 5).mean_wait()
        assert cloud_run.wait.mean() == pytest.approx(expected, rel=0.08)

    def test_edge_network_time_is_configured_rtt(self, edge_run):
        assert edge_run.network.mean() == pytest.approx(0.001, rel=1e-6)

    def test_cloud_response_matches_mmk(self, cloud_run):
        expected = MMk(40.0, MU, 5).mean_response()
        server_time = cloud_run.wait + cloud_run.service
        assert server_time.mean() == pytest.approx(expected, rel=0.08)

    def test_cloud_wait_matches_mmk_near_saturation(self):
        """The open-loop path, replicated, at rho = 0.9 against exact M/M/k.

        The per-run mean wait is noisy this close to saturation, so the
        claim is on the replication mean: within 3 standard errors of
        Erlang-C.
        """
        rate = 0.9 * MU  # per site; 5 sites pool into 5 servers
        waits = [
            run_deployment(
                "cloud",
                sites=5,
                servers_per_site=1,
                rate_per_site=rate,
                service_dist=SERVICE,
                latency=CLOUD_LAT,
                duration=400.0,
                warmup_fraction=0.1,
                seed=derive_seed(2021, r),
            ).wait.mean()
            for r in range(8)
        ]
        expected = MMk(5 * rate, MU, 5).mean_wait()
        se = np.std(waits, ddof=1) / np.sqrt(len(waits))
        assert abs(np.mean(waits) - expected) < 3 * se

    def test_decomposition_identity(self, edge_run, cloud_run):
        for bd in (edge_run, cloud_run):
            np.testing.assert_allclose(
                bd.end_to_end, bd.network + bd.wait + bd.service, atol=1e-9
            )


class TestInversionEmergesInSimulation:
    def test_performance_inversion_at_high_utilization(self):
        """Paper §4.2: at high rho the 1 ms edge loses to a 25 ms cloud."""
        edge, cloud = run_comparison(
            sites=5,
            servers_per_site=1,
            rate_per_site=11.0,  # rho = 0.846
            service_dist=SERVICE,
            edge_latency=EDGE_LAT,
            cloud_latency=CLOUD_LAT,
            duration=3000.0,
            seed=21,
        )
        assert edge.end_to_end.mean() > cloud.end_to_end.mean()

    def test_edge_wins_at_low_utilization(self):
        edge, cloud = run_comparison(
            sites=5,
            servers_per_site=1,
            rate_per_site=2.0,  # rho = 0.154
            service_dist=SERVICE,
            edge_latency=EDGE_LAT,
            cloud_latency=CLOUD_LAT,
            duration=2000.0,
            seed=22,
        )
        assert edge.end_to_end.mean() < cloud.end_to_end.mean()


class TestLoadBalancedCloud:
    def test_jsq_worse_than_central_queue_but_close(self):
        kwargs = {
            "sites": 5,
            "servers_per_site": 1,
            "rate_per_site": 10.0,
            "service_dist": SERVICE,
            "latency": CLOUD_LAT,
            "duration": 2500.0,
        }
        central = run_deployment("cloud", seed=31, **kwargs)
        jsq = run_deployment(
            "cloud", seed=31, policy=JoinShortestQueue(), backends=5, **kwargs
        )
        assert jsq.wait.mean() >= central.wait.mean() * 0.95
        # JSQ stays within a small constant factor of the pooled ideal.
        assert jsq.wait.mean() < central.wait.mean() * 3.0


class TestSkewedRates:
    def test_site_rates_apply_per_site(self):
        bd = run_deployment(
            "edge",
            sites=2,
            servers_per_site=1,
            rate_per_site=0.0,
            site_rates=[10.0, 2.0],
            service_dist=SERVICE,
            latency=EDGE_LAT,
            duration=1500.0,
            seed=41,
        )
        hot = bd.for_site("site-0")
        cold = bd.for_site("site-1")
        assert len(hot) > 3 * len(cold)
        assert hot.wait.mean() > cold.wait.mean()

    def test_zero_rate_site_is_skipped(self):
        bd = run_deployment(
            "edge",
            sites=2,
            servers_per_site=1,
            rate_per_site=0.0,
            site_rates=[5.0, 0.0],
            service_dist=SERVICE,
            latency=EDGE_LAT,
            duration=500.0,
            seed=42,
        )
        assert len(bd.for_site("site-1")) == 0

    def test_bad_site_rates_rejected(self):
        with pytest.raises(ValueError):
            run_deployment(
                "edge",
                sites=2,
                servers_per_site=1,
                rate_per_site=1.0,
                site_rates=[1.0],
                service_dist=SERVICE,
                latency=EDGE_LAT,
                duration=10.0,
            )


class TestArgumentValidation:
    def test_bad_kind(self):
        with pytest.raises(ValueError):
            run_deployment(
                "fog",
                sites=1,
                servers_per_site=1,
                rate_per_site=1.0,
                service_dist=SERVICE,
                latency=EDGE_LAT,
                duration=10.0,
            )

    def test_bad_duration_and_warmup(self):
        common = {
            "sites": 1, "servers_per_site": 1, "rate_per_site": 1.0,
            "service_dist": SERVICE, "latency": EDGE_LAT,
        }
        with pytest.raises(ValueError):
            run_deployment("edge", duration=0.0, **common)
        with pytest.raises(ValueError):
            run_deployment("edge", duration=10.0, warmup_fraction=1.0, **common)

    def test_bad_traces(self):
        common = {
            "servers_per_site": 1, "rate_per_site": 1.0,
            "service_dist": SERVICE, "latency": EDGE_LAT, "duration": 10.0,
        }
        trace = RequestTrace(np.array([0.5, 1.0]), np.array([0.1, 0.1]))
        with pytest.raises(ValueError, match="length"):
            run_deployment("edge", sites=2, traces=[trace], **common)
        with pytest.raises(ValueError, match="site_rates"):
            run_deployment(
                "edge", sites=2, traces=[trace, trace], site_rates=[1.0, 1.0], **common
            )


class TestFinishedTopologyIsFreed:
    @pytest.mark.parametrize("kind", ["edge", "cloud"])
    def test_deployment_unreachable_without_cyclic_gc(self, kind, monkeypatch):
        """Only the breakdown outlives run_deployment: the deployment and
        its RequestLog buffer are freed by reference counting alone, not
        left in a cycle for the next full collection."""
        base = runner.EdgeDeployment if kind == "edge" else runner.CloudDeployment
        built = []

        class Tracked(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(weakref.ref(self))

        monkeypatch.setattr(runner, base.__name__, Tracked)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            bd = run_deployment(
                kind,
                sites=3,
                servers_per_site=2,
                rate_per_site=8.0,
                service_dist=SERVICE,
                latency=EDGE_LAT,
                duration=100.0,
                seed=43,
            )
            assert len(bd) > 0
            assert len(built) == 1
            assert built[0]() is None, f"{kind} deployment outlived run_deployment"
        finally:
            if was_enabled:
                gc.enable()
