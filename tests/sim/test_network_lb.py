"""Tests for network latency models and dispatch policies."""

import numpy as np
import pytest

from repro.queueing.distributions import Deterministic
from repro.sim.engine import Simulation
from repro.sim.loadbalancer import (
    JoinShortestQueue,
    RandomDispatch,
    RoundRobin,
)
from repro.sim.network import ConstantLatency, LognormalLatency, NormalJitterLatency
from repro.sim.request import Request
from repro.sim.station import Station

RNG = np.random.default_rng(0)


class TestConstantLatency:
    def test_oneway_is_half_rtt(self):
        m = ConstantLatency.from_ms(25.0)
        assert m.sample_oneway(RNG) == pytest.approx(0.0125)
        assert m.mean_rtt_ms == pytest.approx(25.0)

    def test_zero_allowed(self):
        assert ConstantLatency(0.0).sample_oneway(RNG) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ConstantLatency(-1.0)


class TestNormalJitterLatency:
    def test_mean_close_to_target(self):
        m = NormalJitterLatency.from_ms(25.0, 1.0)
        xs = np.array([m.sample_oneway(RNG) for _ in range(20_000)])
        assert 2 * xs.mean() == pytest.approx(0.025, rel=0.02)

    def test_floor_respected(self):
        m = NormalJitterLatency.from_ms(25.0, 10.0)
        xs = np.array([m.sample_oneway(RNG) for _ in range(10_000)])
        assert xs.min() >= m.floor

    def test_invalid_floor(self):
        with pytest.raises(ValueError):
            NormalJitterLatency(0.025, 0.001, floor=0.02)


class TestLognormalLatency:
    def test_mean_close_to_target(self):
        m = LognormalLatency.from_ms(54.0, cv2=0.25)
        xs = np.array([m.sample_oneway(RNG) for _ in range(50_000)])
        assert 2 * xs.mean() == pytest.approx(0.054, rel=0.03)

    def test_has_heavier_tail_than_normal(self):
        ln = LognormalLatency.from_ms(54.0, cv2=1.0)
        xs = np.array([ln.sample_oneway(RNG) for _ in range(50_000)])
        assert xs.max() > 3 * xs.mean()

    def test_invalid(self):
        with pytest.raises(ValueError):
            LognormalLatency(0.054, cv2=0.0)


def stations_with_occupancy(occupancies):
    """Build stations and pre-load them with the given in-system counts."""
    sim = Simulation(0)
    stations = []
    for i, n in enumerate(occupancies):
        st = Station(sim, 1, Deterministic(100.0), name=f"s{i}")
        stations.append(st)
        for rid in range(n):
            sim.schedule(0.0, st.arrive, Request(rid, created=0.0))
    sim.run(until=0.0)
    return stations


class TestPolicies:
    def test_round_robin_cycles(self):
        stations = stations_with_occupancy([0, 0, 0])
        rr = RoundRobin()
        picks = [rr.choose(stations, RNG).name for _ in range(6)]
        assert picks == ["s0", "s1", "s2", "s0", "s1", "s2"]

    def test_random_covers_all(self):
        stations = stations_with_occupancy([0, 0, 0])
        policy = RandomDispatch()
        picks = {policy.choose(stations, RNG).name for _ in range(200)}
        assert picks == {"s0", "s1", "s2"}

    def test_jsq_picks_emptiest(self):
        stations = stations_with_occupancy([3, 1, 2])
        assert JoinShortestQueue().choose(stations, RNG).name == "s1"

    def test_jsq_breaks_ties_randomly(self):
        stations = stations_with_occupancy([1, 1, 5])
        picks = {JoinShortestQueue().choose(stations, RNG).name for _ in range(100)}
        assert picks == {"s0", "s1"}

    def test_empty_backends_rejected(self):
        for policy in (RoundRobin(), RandomDispatch(), JoinShortestQueue()):
            with pytest.raises(ValueError):
                policy.choose([], RNG)


class TestHealthAwareness:
    def test_jsq_never_picks_failed_station(self):
        stations = stations_with_occupancy([0, 3, 3])
        stations[0].fail()  # emptiest, but down
        picks = {JoinShortestQueue().choose(stations, RNG).name for _ in range(50)}
        assert "s0" not in picks

    def test_all_failed_falls_back_to_full_set(self):
        stations = stations_with_occupancy([1, 2])
        for st in stations:
            st.fail()
        # Degenerate case: nothing healthy; pick among them all anyway.
        assert JoinShortestQueue().choose(stations, RNG).name == "s0"

    def test_repair_restores_eligibility(self):
        stations = stations_with_occupancy([0, 3])
        stations[0].fail()
        stations[0].repair()
        assert JoinShortestQueue().choose(stations, RNG).name == "s0"

