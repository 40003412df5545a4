"""Tests for deployments, sources and request tracing."""

import math

import numpy as np
import pytest

from repro.mitigation.admission import OccupancyAdmission
from repro.queueing.distributions import Deterministic, Exponential
from repro.sim.client import OpenLoopSource, TraceSource
from repro.sim.engine import EventBudgetExceeded, Simulation
from repro.sim.loadbalancer import RoundRobin
from repro.sim.network import ConstantLatency
from repro.sim.request import Request
from repro.sim.topology import CloudDeployment, EdgeDeployment, EdgeSite
from repro.sim.tracing import RequestLog


def build_edge(sim, n_sites=2, servers=1, rtt_ms=1.0, service=0.1):
    return EdgeDeployment(
        sim,
        [
            EdgeSite(sim, f"site-{i}", servers, ConstantLatency.from_ms(rtt_ms), Deterministic(service))
            for i in range(n_sites)
        ],
    )


class TestEdgeDeployment:
    def test_lifecycle_timestamps_decompose(self):
        sim = Simulation(0)
        edge = build_edge(sim, n_sites=1, rtt_ms=10.0, service=0.5)
        req = Request(0, site="site-0", created=0.0)
        sim.schedule(0.0, edge.submit, req)
        sim.run()
        assert req.is_complete
        assert req.network_time == pytest.approx(0.010)
        assert req.service_time == pytest.approx(0.5)
        assert req.wait == pytest.approx(0.0)
        assert req.end_to_end == pytest.approx(0.510)
        # Equation 1: T = n + w + s.
        assert req.end_to_end == pytest.approx(req.network_time + req.wait + req.service_time)

    def test_sites_have_independent_queues(self):
        sim = Simulation(0)
        edge = build_edge(sim, n_sites=2, service=1.0)
        reqs = [Request(i, site=f"site-{i % 2}", created=0.0) for i in range(4)]
        for r in reqs:
            sim.schedule(0.0, edge.submit, r)
        sim.run()
        # Each site got 2 requests; per-site queues serialize only locally.
        waits = sorted(r.wait for r in reqs)
        assert waits == pytest.approx([0.0, 0.0, 1.0, 1.0])

    def test_unknown_site_rejected(self):
        sim = Simulation(0)
        edge = build_edge(sim)
        req = Request(0, site="nowhere", created=0.0)
        sim.schedule(0.0, edge.submit, req)
        with pytest.raises(KeyError):
            sim.run()

    def test_duplicate_site_names_rejected(self):
        sim = Simulation(0)
        sites = [
            EdgeSite(sim, "dup", 1, ConstantLatency(0.001)),
            EdgeSite(sim, "dup", 1, ConstantLatency(0.001)),
        ]
        with pytest.raises(ValueError):
            EdgeDeployment(sim, sites)

    def test_router_redirects_and_counts(self):
        sim = Simulation(0)
        edge = build_edge(sim, n_sites=2, service=0.1)

        class AlwaysOther:
            def route(self, deployment, request, home):
                other = next(s for s in deployment.sites if s is not home)
                return other, 0.005

        edge.router = AlwaysOther()
        req = Request(0, site="site-0", created=0.0)
        sim.schedule(0.0, edge.submit, req)
        sim.run()
        assert req.redirects == 1
        assert req.site == "site-1"
        # Extra one-way hop shows up in the network component.
        assert req.network_time == pytest.approx(0.001 + 0.005)


class TestCloudDeployment:
    def test_central_queue_pools_servers(self):
        sim = Simulation(0)
        cloud = CloudDeployment(
            sim, servers=2, latency=ConstantLatency(0.0), service_dist=Deterministic(1.0)
        )
        reqs = [Request(i, created=0.0) for i in range(2)]
        for r in reqs:
            sim.schedule(0.0, cloud.submit, r)
        sim.run()
        assert all(r.wait == 0.0 for r in reqs)

    def test_policy_requires_backends(self):
        sim = Simulation(0)
        with pytest.raises(ValueError):
            CloudDeployment(
                sim, servers=4, latency=ConstantLatency(0.0), policy=RoundRobin()
            )

    def test_uneven_backends_rejected(self):
        sim = Simulation(0)
        with pytest.raises(ValueError):
            CloudDeployment(
                sim, servers=5, latency=ConstantLatency(0.0), policy=RoundRobin(), backends=2
            )

    def test_dispatched_cloud_can_queue_while_pool_idle(self):
        """Per-backend queues are strictly worse than the central queue."""
        sim = Simulation(0)
        cloud = CloudDeployment(
            sim,
            servers=2,
            latency=ConstantLatency(0.0),
            service_dist=Deterministic(1.0),
            policy=RoundRobin(),
            backends=2,
        )
        reqs = [Request(i, created=0.0) for i in range(3)]
        for r in reqs:
            sim.schedule(0.0, cloud.submit, r)
        sim.run()
        # Round robin sends requests 0 and 2 to backend 0: request 2 waits
        # even though backend 1 is idle after t=1.
        assert reqs[2].wait == pytest.approx(1.0)

    def test_log_collects_all(self):
        sim = Simulation(0)
        cloud = CloudDeployment(
            sim, servers=1, latency=ConstantLatency(0.002), service_dist=Deterministic(0.1)
        )
        for i in range(5):
            sim.schedule(0.1 * i, cloud.submit, Request(i, created=0.1 * i))
        sim.run()
        assert len(cloud.log) == 5
        bd = cloud.log.breakdown()
        assert len(bd) == 5
        np.testing.assert_allclose(bd.network, 0.002)


class TestRefusalPipeline:
    """Station refusals return over the wire to ``on_complete`` on every
    deployment, counted by outcome."""

    @pytest.mark.parametrize(
        "control, outcome",
        [({"queue_capacity": 0}, "dropped"), ({"admission": OccupancyAdmission(1)}, "rejected")],
        ids=["dropped", "rejected"],
    )
    @pytest.mark.parametrize("kind", ["edge", "cloud"])
    def test_refusal_reaches_on_complete(self, kind, control, outcome):
        sim = Simulation(0)
        latency = ConstantLatency(0.010)
        if kind == "edge":
            deployment = EdgeDeployment(
                sim, [EdgeSite(sim, "site-0", 1, latency, Deterministic(1.0), **control)]
            )
        else:
            deployment = CloudDeployment(sim, 1, latency, Deterministic(1.0), **control)
        seen = []
        deployment.on_complete = lambda r: seen.append((r.rid, r.outcome, r.completed))
        for rid in range(2):
            sim.schedule(0.0, deployment.submit, Request(rid, site="site-0", created=0.0))
        sim.run()
        # r1 is refused on arrival (t = 5 ms) and answered 5 ms later;
        # r0 is served and answered at 1.01 s.
        assert seen == [(1, outcome, pytest.approx(0.010)), (0, None, pytest.approx(1.010))]
        assert deployment.refusal_counts.as_dict() == {
            "rejected": 0, "dropped": 0, "shed": 0, outcome: 1
        }
        assert len(deployment.log) == 1


class TestOpenLoopSource:
    def test_rate_approximately_achieved(self):
        sim = Simulation(3)
        cloud = CloudDeployment(
            sim, servers=50, latency=ConstantLatency(0.0), service_dist=Deterministic(0.01)
        )
        src = OpenLoopSource(sim, cloud, Exponential(1.0 / 20.0), stop_time=100.0)
        sim.run()
        assert src.generated == pytest.approx(2000, rel=0.1)

    def test_stop_time_respected(self):
        sim = Simulation(0)
        cloud = CloudDeployment(
            sim, servers=1, latency=ConstantLatency(0.0), service_dist=Deterministic(0.001)
        )
        OpenLoopSource(sim, cloud, Deterministic(1.0), stop_time=5.5)
        sim.run()
        assert all(r.created <= 5.5 for r in cloud.log.requests)


class TestTraceSource:
    def test_replays_exact_times_and_services(self):
        sim = Simulation(0)
        cloud = CloudDeployment(sim, servers=1, latency=ConstantLatency(0.0))
        TraceSource(sim, cloud, [0.5, 1.5], [0.1, 0.2])
        sim.run()
        bd = cloud.log.breakdown()
        assert sorted(bd.created) == [0.5, 1.5]
        assert sorted(bd.service) == [0.1, 0.2]

    def test_rejects_decreasing_times(self):
        sim = Simulation(0)
        cloud = CloudDeployment(sim, servers=1, latency=ConstantLatency(0.0))
        with pytest.raises(ValueError):
            TraceSource(sim, cloud, [1.0, 0.5])

    def test_rejects_mismatched_lengths(self):
        sim = Simulation(0)
        cloud = CloudDeployment(sim, servers=1, latency=ConstantLatency(0.0))
        with pytest.raises(ValueError):
            TraceSource(sim, cloud, [1.0, 2.0], [0.1])

    def test_rejects_negative_service(self):
        sim = Simulation(0)
        cloud = CloudDeployment(sim, servers=1, latency=ConstantLatency(0.0))
        with pytest.raises(ValueError):
            TraceSource(sim, cloud, [1.0], [-0.1])

    @pytest.mark.parametrize(
        "times, services",
        [
            ([0.0, math.inf], [0.1, 0.1]),
            ([0.0, math.nan], [0.1, 0.1]),
            ([0.0, 1.0], [0.1, math.nan]),
            ([0.0, 1.0], [0.1, math.inf]),
        ],
        ids=["inf-arrival", "nan-arrival", "nan-service", "inf-service"],
    )
    def test_rejects_non_finite_input(self, times, services):
        sim = Simulation(0)
        cloud = CloudDeployment(sim, servers=1, latency=ConstantLatency(0.0))
        with pytest.raises(ValueError, match="must be finite"):
            TraceSource(sim, cloud, times, services)

    def test_rejects_trace_starting_in_the_past(self):
        sim = Simulation(0)
        cloud = CloudDeployment(sim, servers=1, latency=ConstantLatency(0.0))
        sim.run(until=2.0)
        with pytest.raises(ValueError, match="starts in the past"):
            TraceSource(sim, cloud, [1.0, 3.0])

    def test_response_leg_is_an_event(self):
        # Each replayed request costs exactly four events: the source
        # firing, the arrival after the outbound leg, the service end and
        # the completion after the return leg.  Eliding the return-leg
        # event would drain the run within 3 * n events.
        n = 50

        def run(max_events):
            sim = Simulation(0)
            edge = build_edge(sim, n_sites=1)
            TraceSource(sim, edge, np.arange(n) * 0.5, site="site-0")
            sim.run(max_events=max_events)
            return edge

        assert len(run(4 * n).log) == n
        with pytest.raises(EventBudgetExceeded):
            run(4 * n - 1)

    def test_lazy_scheduling_keeps_calendar_small(self):
        # Regression: the source used to push the whole trace into the
        # event calendar up front (O(n) heap entries); now only the next
        # trace event is ever pending.
        sim = Simulation(0)
        cloud = CloudDeployment(
            sim, servers=4, latency=ConstantLatency(0.0),
            service_dist=Deterministic(0.001),
        )
        n = 50_000
        src = TraceSource(sim, cloud, np.linspace(1.0, 100.0, n))
        assert sim.pending_events == 1  # just the first trace event
        assert src.remaining == n
        sim.run(until=50.0)
        assert sim.pending_events < 20  # next event + in-flight work only
        assert 0 < src.remaining < n
        assert src.generated == n - src.remaining
        sim.run()
        assert src.remaining == 0 and src.generated == n
        assert len(cloud.log) == n

    def test_generated_counts_fired_events_only(self):
        sim = Simulation(0)
        cloud = CloudDeployment(sim, servers=1, latency=ConstantLatency(0.0))
        src = TraceSource(sim, cloud, [0.5, 1.5, 2.5], [0.1, 0.1, 0.1])
        sim.run(until=1.0)
        assert src.generated == 1 and src.remaining == 2


class TestBreakdown:
    def test_after_filters_by_creation_time(self):
        sim = Simulation(0)
        cloud = CloudDeployment(
            sim, servers=1, latency=ConstantLatency(0.0), service_dist=Deterministic(0.01)
        )
        TraceSource(sim, cloud, [0.0, 1.0, 2.0, 3.0])
        sim.run()
        bd = cloud.log.breakdown()
        assert len(bd.after(1.5)) == 2

    def test_for_site_filters(self):
        sim = Simulation(0)
        edge = build_edge(sim, n_sites=2)
        for i in range(4):
            sim.schedule(0.0, edge.submit, Request(i, site=f"site-{i % 2}", created=0.0))
        sim.run()
        bd = edge.log.breakdown()
        assert len(bd.for_site("site-0")) == 2
        assert bd.sites == ["site-0", "site-1"]

    def test_incomplete_request_rejected_by_log(self):
        log = RequestLog()
        with pytest.raises(ValueError):
            log.add(Request(0, created=0.0))


def completed_request(rng, rid):
    created = float(rng.uniform(0.0, 100.0))
    r = Request(
        rid,
        site=f"site-{rid % 3}",
        created=created,
        service_time=None if rid % 7 == 0 else float(rng.exponential(0.1)),
        priority=rid % 4,
    )
    r.arrived = created + float(rng.exponential(0.01))
    r.service_start = r.arrived + float(rng.exponential(0.2))
    r.service_end = r.service_start + float(rng.exponential(0.1))
    r.completed = r.service_end + float(rng.exponential(0.01))
    r.degraded = rid % 5 == 0
    return r


class TestRequestLog:
    def test_round_trips_every_field_and_breakdown_is_exact(self):
        rng = np.random.default_rng(11)
        originals = [completed_request(rng, rid) for rid in range(1000)]
        log = RequestLog()
        for r in originals:
            log.add(r)
        assert len(log) == 1000
        fields = (
            "rid", "site", "created", "arrived", "service_start", "service_end",
            "completed", "service_time", "priority", "degraded",
        )
        for view, r in zip(log.requests, originals):
            assert [getattr(view, f) for f in fields] == [getattr(r, f) for f in fields]
        bd = log.breakdown()
        # Bit for bit: the columns are the Request properties themselves.
        assert bd.created.tolist() == [r.created for r in originals]
        assert bd.end_to_end.tolist() == [r.end_to_end for r in originals]
        assert bd.wait.tolist() == [r.wait for r in originals]
        assert bd.network.tolist() == [r.network_time for r in originals]
        assert bd.site.tolist() == [r.site for r in originals]
        service = bd.service.tolist()
        assert [s for s in service if not math.isnan(s)] == [
            r.service_time for r in originals if r.service_time is not None
        ]
        assert [math.isnan(s) for s in service] == [r.service_time is None for r in originals]

    def test_failed_add_leaves_log_unchanged(self):
        rng = np.random.default_rng(3)
        good = [completed_request(rng, rid) for rid in range(10)]
        log = RequestLog()
        for r in good:
            log.add(r)
        bad = completed_request(rng, 10)
        bad.priority = "urgent"  # not a number: the row cannot be stored
        with pytest.raises((TypeError, ValueError)):
            log.add(bad)
        assert len(log) == 10
        assert log.breakdown().end_to_end.tolist() == [r.end_to_end for r in good]
        assert [v.rid for v in log.requests] == list(range(10))
        log.add(completed_request(rng, 11))  # no half row left behind
        assert log.breakdown().end_to_end.size == 11
        assert [v.rid for v in log.requests] == [*range(10), 11]
