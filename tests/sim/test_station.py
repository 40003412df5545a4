"""Tests for the FCFS multi-server station."""

import pytest

from repro.queueing.distributions import Deterministic, Exponential
from repro.sim.engine import Simulation
from repro.sim.request import Request
from repro.sim.station import Station


def make_request(rid, service=None):
    return Request(rid, created=0.0, service_time=service)


class TestFcfsSemantics:
    def test_single_server_serializes(self):
        sim = Simulation(0)
        st = Station(sim, 1, Deterministic(1.0))
        done = []
        st.on_departure = lambda r: done.append((r.rid, sim.now))
        for rid in range(3):
            sim.schedule(0.0, st.arrive, make_request(rid))
        sim.run()
        assert done == [(0, 1.0), (1, 2.0), (2, 3.0)]

    def test_fcfs_order_preserved(self):
        sim = Simulation(0)
        st = Station(sim, 1)
        done = []
        st.on_departure = lambda r: done.append(r.rid)
        # Second arrival has a *shorter* job but must still go second.
        sim.schedule(0.0, st.arrive, make_request(0, service=5.0))
        sim.schedule(0.1, st.arrive, make_request(1, service=0.1))
        sim.schedule(0.2, st.arrive, make_request(2, service=0.1))
        sim.run()
        assert done == [0, 1, 2]

    def test_parallel_servers_overlap(self):
        sim = Simulation(0)
        st = Station(sim, 2, Deterministic(1.0))
        done = []
        st.on_departure = lambda r: done.append((r.rid, sim.now))
        for rid in range(3):
            sim.schedule(0.0, st.arrive, make_request(rid))
        sim.run()
        # Two run together; the third starts when the first finishes.
        assert done == [(0, 1.0), (1, 1.0), (2, 2.0)]

    def test_timestamps_recorded(self):
        sim = Simulation(0)
        st = Station(sim, 1, Deterministic(2.0))
        req = make_request(0)
        sim.schedule(1.0, st.arrive, req)
        sim.run()
        assert req.arrived == 1.0
        assert req.service_start == 1.0
        assert req.service_end == 3.0
        assert req.wait == 0.0

    def test_wait_measured_for_queued_request(self):
        sim = Simulation(0)
        st = Station(sim, 1, Deterministic(2.0))
        first, second = make_request(0), make_request(1)
        sim.schedule(0.0, st.arrive, first)
        sim.schedule(0.5, st.arrive, second)
        sim.run()
        assert second.wait == pytest.approx(1.5)

    def test_preassigned_service_time_used(self):
        sim = Simulation(0)
        st = Station(sim, 1, Deterministic(99.0))
        req = make_request(0, service=0.25)
        sim.schedule(0.0, st.arrive, req)
        sim.run()
        assert req.service_end == pytest.approx(0.25)

    def test_missing_service_time_and_dist_raises(self):
        sim = Simulation(0)
        st = Station(sim, 1)  # no distribution
        sim.schedule(0.0, st.arrive, make_request(0))
        with pytest.raises(ValueError):
            sim.run()


class TestAccounting:
    def test_counts(self):
        sim = Simulation(0)
        st = Station(sim, 1, Deterministic(1.0))
        for rid in range(4):
            sim.schedule(float(rid), st.arrive, make_request(rid))
        sim.run()
        assert st.arrivals == 4
        assert st.completions == 4
        assert st.busy == 0
        assert st.queue_length == 0

    def test_utilization_integral(self):
        sim = Simulation(0)
        st = Station(sim, 1, Deterministic(1.0))
        sim.schedule(0.0, st.arrive, make_request(0))
        sim.run(until=4.0)
        # Busy for 1s of 4s.
        assert st.utilization() == pytest.approx(0.25)

    def test_mean_queue_length_integral(self):
        sim = Simulation(0)
        st = Station(sim, 1, Deterministic(2.0))
        sim.schedule(0.0, st.arrive, make_request(0))
        sim.schedule(0.0, st.arrive, make_request(1))
        sim.run(until=4.0)
        # Second request queued during [0, 2) of a 4s horizon.
        assert st.mean_queue_length() == pytest.approx(0.5)

    def test_cancel_keeps_waited_time_in_queue_integral(self):
        sim = Simulation(0)
        st = Station(sim, 1, Deterministic(10.0))
        waiting = make_request(1)
        sim.schedule(0.0, st.arrive, make_request(0))
        sim.schedule(0.0, st.arrive, waiting)
        sim.schedule(4.0, st.cancel, waiting)
        sim.run(until=5.0)
        # The cancelled request waited during [0, 4) of a 5s horizon.
        assert st.cancelled_waiting == 1
        assert st.queue_time() == pytest.approx(4.0)
        assert st.mean_queue_length() == pytest.approx(0.8)
        assert not st.cancel(waiting)  # already gone: no second removal

    def test_poisson_utilization_matches_rho(self):
        sim = Simulation(42)
        st = Station(sim, 1, Exponential(1.0 / 13.0))
        rng = sim.spawn_rng()

        def generate():
            if sim.now < 500.0:
                st.arrive(make_request(0))
                sim.schedule(rng.exponential(1.0 / 8.0), generate)

        sim.schedule(0.0, generate)
        sim.run(until=500.0)
        assert st.utilization() == pytest.approx(8.0 / 13.0, rel=0.05)


class TestDynamicCapacity:
    def test_scale_up_starts_queued_work(self):
        sim = Simulation(0)
        st = Station(sim, 1, Deterministic(10.0))
        done = []
        st.on_departure = lambda r: done.append((r.rid, sim.now))
        sim.schedule(0.0, st.arrive, make_request(0))
        sim.schedule(0.0, st.arrive, make_request(1))
        sim.schedule(1.0, st.set_servers, 2)
        sim.run()
        # Second request starts at t=1 when the new server appears.
        assert (1, 11.0) in done

    def test_scale_down_drains_gracefully(self):
        sim = Simulation(0)
        st = Station(sim, 2, Deterministic(1.0))
        sim.schedule(0.0, st.arrive, make_request(0))
        sim.schedule(0.0, st.arrive, make_request(1))
        sim.schedule(0.1, st.set_servers, 1)
        sim.run()
        assert st.completions == 2  # both in-flight jobs finish

    def test_invalid_capacity(self):
        sim = Simulation(0)
        st = Station(sim, 1)
        with pytest.raises(ValueError):
            st.set_servers(0)
        with pytest.raises(ValueError):
            Station(sim, 0)

    def test_shrink_mid_overload_strands_nothing(self):
        # Regression: shrinking while the queue is deep must neither lose
        # queued requests nor double-count busy servers when the
        # over-capacity in-flight work drains.
        sim = Simulation(0)
        st = Station(sim, 4, Deterministic(1.0))
        busy_seen = []
        st.on_departure = lambda r: busy_seen.append(st.busy)
        for rid in range(12):
            sim.schedule(0.0, st.arrive, make_request(rid))
        sim.schedule(0.5, st.set_servers, 1)
        sim.run()
        assert st.completions == 12
        assert st.busy == 0 and st.queue_length == 0
        assert st.arrivals == st.completions
        # Once the initial 4 in-flight drain past the new limit, the
        # station never runs more than 1 server again.
        assert all(b <= 1 for b in busy_seen[4:])

    def test_shrink_then_grow_mid_overload(self):
        sim = Simulation(0)
        st = Station(sim, 4, Deterministic(1.0))
        for rid in range(12):
            sim.schedule(0.0, st.arrive, make_request(rid))
        sim.schedule(0.5, st.set_servers, 1)
        sim.schedule(2.5, st.set_servers, 3)
        sim.run()
        assert st.completions == 12
        assert st.busy == 0 and st.queue_length == 0

    def test_shrink_with_custom_discipline_and_capacity(self):
        from repro.sim.overload import AdaptiveLIFODiscipline

        sim = Simulation(0)
        st = Station(
            sim, 3, Deterministic(1.0),
            queue_capacity=6,
            discipline=AdaptiveLIFODiscipline(pressure_threshold=2),
        )
        for rid in range(12):
            sim.schedule(0.0, st.arrive, make_request(rid))
        sim.schedule(0.5, st.set_servers, 1)
        sim.run()
        assert st.arrivals == st.completions + st.drops
        assert st.busy == 0 and st.queue_length == 0


class TestBacklogWork:
    def test_counts_queued_known_service_times(self):
        sim = Simulation(0)
        st = Station(sim, 1, Deterministic(1.0))
        sim.schedule(0.0, st.arrive, make_request(0, service=1.0))
        sim.schedule(0.0, st.arrive, make_request(1, service=3.0))
        sim.run(until=0.5)
        # One in service (residual approx 0.5 * mean = 0.5) + 3.0 queued.
        assert st.backlog_work() == pytest.approx(3.5)

    def test_empty_station_has_no_backlog(self):
        sim = Simulation(0)
        st = Station(sim, 1, Deterministic(1.0))
        assert st.backlog_work() == 0.0
