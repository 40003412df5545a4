"""Tests for server-side overload control: disciplines, brownout, counters."""

import pytest

from repro.mitigation.admission import AdaptiveAdmission, StaticConcurrencyLimit
from repro.queueing.distributions import Deterministic, Exponential
from repro.sim.client import OpenLoopSource
from repro.sim.engine import Simulation
from repro.sim.network import ConstantLatency
from repro.sim.overload import (
    AdaptiveLIFODiscipline,
    BrownoutController,
    CoDelDiscipline,
    FIFODiscipline,
)
from repro.sim.request import Request
from repro.sim.station import Station
from repro.sim.topology import EdgeDeployment, EdgeSite


def make_request(rid, service=None, priority=0):
    return Request(rid, created=0.0, service_time=service, priority=priority)


class TestDisciplinePlumbing:
    def test_default_is_fifo(self):
        sim = Simulation(0)
        st = Station(sim, 1, Deterministic(1.0))
        assert isinstance(st.discipline, FIFODiscipline)

    def test_discipline_cannot_be_shared(self):
        sim = Simulation(0)
        d = FIFODiscipline()
        Station(sim, 1, Deterministic(1.0), discipline=d)
        with pytest.raises(ValueError):
            Station(sim, 1, Deterministic(1.0), discipline=d)

    def test_rebinding_same_station_is_idempotent(self):
        sim = Simulation(0)
        d = FIFODiscipline()
        st = Station(sim, 1, Deterministic(1.0), discipline=d)
        d.bind(st)  # no error

    def test_cancel_removes_from_custom_discipline(self):
        sim = Simulation(0)
        st = Station(sim, 1, Deterministic(1.0), discipline=CoDelDiscipline(target=10.0))
        waiting = make_request(1)
        sim.schedule(0.0, st.arrive, make_request(0))
        sim.schedule(0.0, st.arrive, waiting)
        sim.run(until=0.5)
        assert st.cancel(waiting)
        assert st.queue_length == 0
        sim.run()
        assert st.completions == 1


class TestStationReadsTheWaitingLine:
    @pytest.mark.parametrize(
        "make_discipline",
        [
            FIFODiscipline,
            lambda: AdaptiveLIFODiscipline(pressure_threshold=4),
            lambda: CoDelDiscipline(target=0.2, interval=0.4),
        ],
        ids=["fifo", "adaptive-lifo", "codel"],
    )
    def test_queue_length_tracks_the_discipline(self, make_discipline):
        # The station reads the discipline's deque directly; an
        # overloaded run paused at many points must agree with the
        # discipline's own len() every time, through LIFO pops and the
        # sheds CoDel makes inside pop().
        sim = Simulation(5)
        site = EdgeSite(
            sim, "s0", 1, ConstantLatency(0.001), Exponential(0.1),
            discipline=make_discipline(),
        )
        edge = EdgeDeployment(sim, [site])
        OpenLoopSource(sim, edge, Exponential(0.08), site="s0", stop_time=60.0)
        st = site.station
        lengths = []
        for step in range(1, 161):
            sim.run(until=0.5 * step)
            assert st.queue_length == len(st.discipline)
            assert st.in_system == st.busy + len(st.discipline)
            lengths.append(st.queue_length)
        assert max(lengths) > 4  # the line really built up
        sim.run()
        assert st.queue_length == len(st.discipline) == 0
        if isinstance(st.discipline, CoDelDiscipline):
            assert st.shed > 0


class TestAdaptiveLIFO:
    def test_fifo_below_threshold(self):
        sim = Simulation(0)
        st = Station(
            sim, 1, Deterministic(1.0), discipline=AdaptiveLIFODiscipline(pressure_threshold=8)
        )
        done = []
        st.on_departure = lambda r: done.append(r.rid)
        for rid in range(3):
            sim.schedule(0.0, st.arrive, make_request(rid))
        sim.run()
        assert done == [0, 1, 2]
        assert st.discipline.lifo_pops == 0

    def test_newest_first_above_threshold(self):
        sim = Simulation(0)
        st = Station(
            sim, 1, Deterministic(1.0), discipline=AdaptiveLIFODiscipline(pressure_threshold=2)
        )
        done = []
        st.on_departure = lambda r: done.append(r.rid)
        for rid in range(4):
            sim.schedule(0.0, st.arrive, make_request(rid))
        sim.run()
        # r0 in service; backlog [1,2,3] exceeds threshold -> r3 jumps the
        # line; remaining backlog of 2 is served FIFO.
        assert done == [0, 3, 1, 2]
        assert st.discipline.lifo_pops == 1

    def test_pure_lifo_with_zero_threshold(self):
        sim = Simulation(0)
        st = Station(
            sim, 1, Deterministic(1.0), discipline=AdaptiveLIFODiscipline(pressure_threshold=0)
        )
        done = []
        st.on_departure = lambda r: done.append(r.rid)
        for rid in range(3):
            sim.schedule(0.0, st.arrive, make_request(rid))
        sim.run()
        assert done == [0, 2, 1]

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveLIFODiscipline(pressure_threshold=-1)


class TestCoDel:
    def test_no_shedding_when_sojourn_below_target(self):
        sim = Simulation(0)
        st = Station(sim, 2, Deterministic(0.05), discipline=CoDelDiscipline(target=1.0))
        for rid in range(10):
            sim.schedule(0.01 * rid, st.arrive, make_request(rid))
        sim.run()
        assert st.shed == 0
        assert st.completions == 10

    def test_sheds_stale_requests_under_sustained_overload(self):
        sim = Simulation(0)
        st = Station(
            sim, 1, Deterministic(1.0),
            discipline=CoDelDiscipline(target=0.1, interval=0.2),
        )
        refused = []
        st.on_refuse = lambda r, outcome: refused.append((r.rid, outcome))
        for rid in range(5):
            sim.schedule(0.0, st.arrive, make_request(rid))
        sim.run()
        # r0 served at once.  r1 pops at t=1 stale but inside the tolerated
        # interval.  r2 confirms sustained excess and is shed; r3 serves
        # between paced drops; r4 is shed by the escalating drop law.
        assert refused == [(2, "shed"), (4, "shed")]
        assert st.shed == 2
        assert st.completions == 3
        assert st.arrivals == st.completions + st.shed

    def test_transient_burst_tolerated(self):
        sim = Simulation(0)
        st = Station(
            sim, 1, Deterministic(0.3),
            discipline=CoDelDiscipline(target=0.1, interval=10.0),
        )
        for rid in range(4):
            sim.schedule(0.0, st.arrive, make_request(rid))
        sim.run()
        # Sojourns exceed target but the excursion never outlasts the
        # interval-long grace period.
        assert st.shed == 0
        assert st.completions == 4

    def test_interval_defaults_to_twice_target(self):
        d = CoDelDiscipline(target=0.25)
        assert d.interval == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            CoDelDiscipline(target=0.0)
        with pytest.raises(ValueError):
            CoDelDiscipline(target=0.1, interval=0.0)


class TestBrownout:
    def test_idle_station_serves_full_quality(self):
        sim = Simulation(0)
        st = Station(
            sim, 1, Deterministic(1.0),
            brownout=BrownoutController(degraded_scale=0.5, target_wait=1.0, full_wait=4.0),
        )
        req = make_request(0)
        sim.schedule(0.0, st.arrive, req)
        sim.run()
        assert not req.degraded
        assert req.service_time == pytest.approx(1.0)
        assert st.degraded == 0

    def test_degrades_under_pressure_and_scales_service(self):
        sim = Simulation(0)
        st = Station(
            sim, 1, Deterministic(1.0),
            brownout=BrownoutController(degraded_scale=0.5, target_wait=1.0, full_wait=4.0),
        )
        done = []
        st.on_departure = lambda r: done.append(r)
        for rid in range(7):
            sim.schedule(0.0, st.arrive, make_request(rid))
        sim.run()
        degraded = [r for r in done if r.degraded]
        assert degraded  # the deep backlog pushed the dimmer to 1
        assert all(r.service_time == pytest.approx(0.5) for r in degraded)
        assert st.degraded == len(degraded)
        assert 0.0 < st.degraded_fraction <= 1.0

    def test_controller_cannot_be_shared(self):
        sim = Simulation(0)
        b = BrownoutController(target_wait=1.0)
        Station(sim, 1, Deterministic(1.0), brownout=b)
        with pytest.raises(ValueError):
            Station(sim, 1, Deterministic(1.0), brownout=b)

    def test_dimmer_ramp(self):
        sim = Simulation(0)
        b = BrownoutController(degraded_scale=0.4, target_wait=1.0, full_wait=3.0)
        st = Station(sim, 1, Deterministic(1.0), brownout=b)
        assert b.dimmer(st) == 0.0
        sim.schedule(0.0, st.arrive, make_request(0))
        for rid in range(1, 5):
            sim.schedule(0.0, st.arrive, make_request(rid, service=1.0))
        sim.run(until=0.5)
        # 4 queued seconds + 0.5 residual -> midway up the ramp.
        assert 0.0 < b.dimmer(st) <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            BrownoutController(degraded_scale=1.5)
        with pytest.raises(ValueError):
            BrownoutController(target_wait=-1.0)
        with pytest.raises(ValueError):
            BrownoutController(target_wait=2.0, full_wait=1.0)


class TestRefusalTaxonomy:
    def test_rejected_dropped_shed_are_distinct(self):
        sim = Simulation(0)
        st = Station(
            sim, 1, Deterministic(1.0),
            queue_capacity=1,
            admission=AdaptiveAdmission(StaticConcurrencyLimit(4.0)),
        )
        # 1 serving + 1 queued fills capacity; next two arrivals drop
        # (admission still open at in_system=2); arrivals past the
        # concurrency limit would be rejected.
        for rid in range(4):
            sim.schedule(0.0, st.arrive, make_request(rid))
        sim.run(until=0.5)
        assert st.drops == 2
        assert st.rejected == 0
        assert st.shed == 0
        assert st.dropped == st.drops  # alias stays in sync

    def test_refusal_rate_counts_all_three(self):
        sim = Simulation(0)
        st = Station(sim, 1, Deterministic(1.0), queue_capacity=0)
        for rid in range(4):
            sim.schedule(0.0, st.arrive, make_request(rid))
        sim.run(until=0.5)
        assert st.refusal_rate == pytest.approx(3 / 4)
        assert st.loss_rate == pytest.approx(3 / 4)

    def test_conservation_under_mixed_refusals(self):
        sim = Simulation(7)
        st = Station(
            sim, 2, Deterministic(0.4),
            queue_capacity=4,
            discipline=CoDelDiscipline(target=0.2, interval=0.4),
        )
        for rid in range(50):
            sim.schedule(0.05 * rid, st.arrive, make_request(rid))
        sim.run()
        assert st.arrivals == st.completions + st.drops + st.shed + st.rejected
        assert st.busy == 0 and st.queue_length == 0

    def test_pressure_signal(self):
        sim = Simulation(0)
        st = Station(sim, 2, Deterministic(1.0))
        assert st.pressure() == 0.0
        for rid in range(6):
            sim.schedule(0.0, st.arrive, make_request(rid))
        sim.run(until=0.5)
        assert st.pressure() == pytest.approx(3.0)  # 6 in system / 2 servers


class TestDeploymentOutcomes:
    def _run_site(self, **station_kw):
        sim = Simulation(0)
        site = EdgeSite(
            sim, "s0", 1, ConstantLatency.from_ms(2.0), Deterministic(1.0), **station_kw
        )
        edge = EdgeDeployment(sim, [site])
        outcomes = []
        edge.on_complete = lambda r: outcomes.append(r.outcome)
        for rid in range(4):
            sim.schedule(0.0, edge.submit, Request(rid, site="s0", created=0.0))
        sim.run()
        return edge, outcomes

    def test_shed_surfaces_with_outcome(self):
        edge, outcomes = self._run_site(
            discipline=CoDelDiscipline(target=0.1, interval=0.2)
        )
        assert edge.shed == outcomes.count("shed") > 0
        assert edge.dropped == 0 and edge.rejected == 0

    def test_rejected_surfaces_with_outcome(self):
        edge, outcomes = self._run_site(
            admission=AdaptiveAdmission(StaticConcurrencyLimit(2.0))
        )
        assert edge.rejected == outcomes.count("rejected") == 2
        assert edge.dropped == 0 and edge.shed == 0

    def test_closed_population_conserved(self):
        edge, outcomes = self._run_site(queue_capacity=1)
        # Every submitted request resolves exactly once through on_complete.
        assert len(outcomes) == 4
        # 1 serving + 1 queued; the other two drop.
        assert outcomes.count("dropped") == edge.dropped == 2


class TestPriorityRequests:
    def test_priority_stamped_and_defaulted(self):
        assert Request(0).priority == 0
        assert Request(0, priority=2).priority == 2
        assert Request(0, priority=1.0).priority == 1  # coerced to int

    def test_open_loop_source_priority_mix(self):
        from repro.queueing.distributions import Exponential
        from repro.sim.client import OpenLoopSource

        sim = Simulation(3)
        seen = []

        class Sink:
            def submit(self, request):
                seen.append(request.priority)

        OpenLoopSource(
            sim, Sink(), Exponential(0.01), stop_time=5.0,
            priority=lambda rng: int(rng.integers(3)),
        )
        sim.run()
        assert set(seen) == {0, 1, 2}
