"""Tests for admission control."""

from itertools import count

import numpy as np
import pytest

from repro.mitigation.admission import (
    AdaptiveAdmission,
    AIMDConcurrencyLimit,
    GradientConcurrencyLimit,
    OccupancyAdmission,
    StaticConcurrencyLimit,
)
from repro.queueing.distributions import Deterministic, Exponential
from repro.sim.engine import Simulation
from repro.sim.request import Request
from repro.sim.station import Station

MU = 13.0


def drive(station, sim, rate, duration, rng):
    ids = count()

    def gen():
        if sim.now < duration:
            station.arrive(Request(next(ids), created=sim.now))
            sim.schedule(rng.exponential(1.0 / rate), gen)

    sim.schedule(0.0, gen)
    sim.run(until=duration)


class TestOccupancyAdmission:
    def test_rejects_when_full(self):
        sim = Simulation(0)
        st = Station(sim, 1, Deterministic(10.0), admission=OccupancyAdmission(limit=2.0))
        for i in range(5):
            sim.schedule(0.0, st.arrive, Request(i, created=0.0))
        sim.run(until=1.0)
        # 1 in service + 1 queued = in_system 2 = limit -> rest rejected.
        assert st.rejected == 3
        assert st.refusal_rate == pytest.approx(0.6)

    def test_bounds_latency_during_overload(self):
        sim = Simulation(1)
        done = []
        st = Station(
            sim, 1, Exponential(1.0 / MU),
            on_departure=lambda r: done.append(r.service_start - r.arrived),
            admission=OccupancyAdmission(limit=4.0),
        )
        drive(st, sim, rate=30.0, duration=300.0, rng=sim.spawn_rng())  # rho=2.3
        waits = np.array(done)
        assert st.refusal_rate > 0.4  # sheds most of the overload
        # Waits bounded by ~limit services each.
        assert waits.max() < 10 * (4.0 / MU)

    def test_admits_everything_when_idle(self):
        sim = Simulation(2)
        st = Station(sim, 4, Exponential(1.0 / MU), admission=OccupancyAdmission(limit=2.0))
        drive(st, sim, rate=2.0, duration=200.0, rng=sim.spawn_rng())
        assert st.refusal_rate < 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            OccupancyAdmission(limit=0.0)

    def test_rate_zero_before_traffic(self):
        sim = Simulation(0)
        st = Station(sim, 1, Exponential(1.0), admission=OccupancyAdmission(1.0))
        assert st.refusal_rate == 0.0


class TestAIMDConcurrencyLimit:
    def test_fast_responses_grow_limit(self):
        limit = AIMDConcurrencyLimit(latency_target=1.0, initial=4.0, max_limit=16.0)
        for i in range(200):
            limit.on_response(0.5, True, float(i))
        assert limit.limit == pytest.approx(16.0)

    def test_slow_response_backs_off_multiplicatively(self):
        limit = AIMDConcurrencyLimit(latency_target=1.0, initial=10.0, backoff=0.5)
        limit.on_response(2.0, True, 0.0)
        assert limit.limit == pytest.approx(5.0)
        assert limit.decreases == 1

    def test_failure_counts_as_congestion(self):
        limit = AIMDConcurrencyLimit(latency_target=1.0, initial=10.0, backoff=0.5)
        limit.on_response(None, False, 0.0)
        assert limit.limit == pytest.approx(5.0)

    def test_cooldown_coalesces_decrease_bursts(self):
        limit = AIMDConcurrencyLimit(
            latency_target=1.0, initial=10.0, backoff=0.5, cooldown=1.0
        )
        # Three congestion signals inside one cooldown = one decrease.
        limit.on_response(None, False, 0.0)
        limit.on_response(None, False, 0.2)
        limit.on_response(None, False, 0.9)
        assert limit.limit == pytest.approx(5.0)
        limit.on_response(None, False, 1.5)  # cooldown elapsed
        assert limit.limit == pytest.approx(2.5)

    def test_never_below_min_limit(self):
        limit = AIMDConcurrencyLimit(latency_target=1.0, min_limit=2.0, initial=2.0)
        for i in range(20):
            limit.on_response(None, False, float(10 * i))
        assert limit.limit == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            AIMDConcurrencyLimit(latency_target=0.0)
        with pytest.raises(ValueError):
            AIMDConcurrencyLimit(latency_target=1.0, backoff=1.0)
        with pytest.raises(ValueError):
            AIMDConcurrencyLimit(latency_target=1.0, min_limit=8.0, max_limit=4.0)
        with pytest.raises(ValueError):
            AIMDConcurrencyLimit(latency_target=1.0, initial=999.0)


class TestGradientConcurrencyLimit:
    def test_limit_probes_up_at_baseline_latency(self):
        limit = GradientConcurrencyLimit(initial=4.0, max_limit=64.0)
        for i in range(500):
            limit.on_response(0.6, True, float(i))
        assert limit.limit > 30.0  # sqrt allowance keeps probing upward

    def test_sustained_inflation_pulls_limit_down(self):
        limit = GradientConcurrencyLimit(initial=32.0, max_limit=64.0)
        for i in range(100):
            limit.on_response(0.6, True, float(i))  # establish baseline
        high = limit.limit
        for i in range(300):
            limit.on_response(3.0, True, float(100 + i))  # 5x the baseline
        assert limit.limit < high / 2

    def test_baseline_tracks_sustained_minimum_not_single_sample(self):
        limit = GradientConcurrencyLimit(initial=8.0, smoothing=0.1)
        for i in range(100):
            limit.on_response(0.6, True, float(i))
        # One lucky fast response must not redefine "no-load".
        limit.on_response(0.01, True, 100.0)
        assert limit.baseline > 0.1

    def test_failures_back_off(self):
        limit = GradientConcurrencyLimit(initial=16.0, backoff=0.5)
        limit.on_response(None, False, 0.0)
        assert limit.limit == pytest.approx(8.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            GradientConcurrencyLimit(tolerance=0.5)
        with pytest.raises(ValueError):
            GradientConcurrencyLimit(smoothing=0.0)
        with pytest.raises(ValueError):
            GradientConcurrencyLimit(cooldown=0.0)


class TestAdaptiveAdmission:
    def test_admits_below_limit_and_rejects_above(self):
        sim = Simulation(0)
        policy = AdaptiveAdmission(StaticConcurrencyLimit(2.0))
        st = Station(sim, 1, Deterministic(10.0), admission=policy)
        for i in range(5):
            sim.schedule(0.0, st.arrive, Request(i, created=0.0))
        sim.run(until=1.0)
        assert st.rejected == 3
        assert policy.admitted == 2
        assert policy.rejection_rate == pytest.approx(0.6)

    def test_priority_shares_shed_low_classes_first(self):
        sim = Simulation(0)
        policy = AdaptiveAdmission(
            StaticConcurrencyLimit(8.0), priority_shares={0: 1.0, 1: 0.5}
        )
        st = Station(sim, 1, Deterministic(10.0), admission=policy)
        # Fill to in_system=4: class 1 (share 0.5 -> effective 4) now
        # refused while class 0 still admitted.
        for i in range(4):
            sim.schedule(0.0, st.arrive, Request(i, created=0.0))
        sim.schedule(0.1, st.arrive, Request(10, created=0.1, priority=1))
        sim.schedule(0.1, st.arrive, Request(11, created=0.1, priority=0))
        sim.run(until=1.0)
        assert policy.rejected_by_class == {1: 1}
        assert st.rejected == 1

    def test_unknown_priority_gets_smallest_share(self):
        sim = Simulation(0)
        policy = AdaptiveAdmission(
            StaticConcurrencyLimit(8.0), priority_shares={0: 1.0, 1: 0.25}
        )
        st = Station(sim, 1, Deterministic(10.0), admission=policy)
        for i in range(2):
            sim.schedule(0.0, st.arrive, Request(i, created=0.0))
        sim.schedule(0.1, st.arrive, Request(10, created=0.1, priority=9))
        sim.run(until=1.0)
        # in_system=2 >= 0.25 * 8 -> the unlisted class is refused.
        assert policy.rejected_by_class == {9: 1}

    def test_station_feeds_latency_back_to_limit(self):
        sim = Simulation(0)
        limit = AIMDConcurrencyLimit(latency_target=5.0, initial=4.0, max_limit=8.0)
        st = Station(
            sim, 1, Deterministic(1.0), admission=AdaptiveAdmission(limit)
        )
        sim.schedule(0.0, st.arrive, Request(0, created=0.0))
        sim.run()
        assert limit.limit > 4.0  # one fast completion grew the limit

    def test_station_feeds_drops_back_as_congestion(self):
        sim = Simulation(0)
        limit = AIMDConcurrencyLimit(latency_target=5.0, initial=8.0, backoff=0.5)
        st = Station(
            sim, 1, Deterministic(10.0), queue_capacity=0,
            admission=AdaptiveAdmission(limit),
        )
        for i in range(2):
            sim.schedule(0.0, st.arrive, Request(i, created=0.0))
        sim.run(until=1.0)
        assert st.drops == 1
        assert limit.limit == pytest.approx(4.0)

    def test_bounds_latency_during_overload(self):
        sim = Simulation(5)
        done = []
        st = Station(
            sim, 1, Exponential(1.0 / MU),
            on_departure=lambda r: done.append(r.service_end - r.arrived),
            admission=AdaptiveAdmission(
                AIMDConcurrencyLimit(latency_target=4.0 / MU, max_limit=64.0)
            ),
        )

        ids = count(100)

        def gen():
            if sim.now < 300.0:
                st.arrive(Request(next(ids), created=sim.now))
                sim.schedule(sim_rng.exponential(1.0 / 30.0), gen)

        sim_rng = sim.spawn_rng()
        sim.schedule(0.0, gen)
        sim.run(until=300.0)
        waits = np.array(done)
        assert st.refusal_rate > 0.4  # sheds most of the 2.3x overload
        assert np.quantile(waits, 0.95) < 20 * (4.0 / MU)

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveAdmission(StaticConcurrencyLimit(4.0), priority_shares={})
        with pytest.raises(ValueError):
            AdaptiveAdmission(StaticConcurrencyLimit(4.0), priority_shares={0: 0.0})
        with pytest.raises(ValueError):
            StaticConcurrencyLimit(0.5)
