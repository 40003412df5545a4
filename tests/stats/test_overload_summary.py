"""Tests for the overload/goodput summary."""

import pytest

from repro.queueing.distributions import Deterministic
from repro.sim.engine import Simulation
from repro.sim.overload import CoDelDiscipline
from repro.sim.request import Request
from repro.sim.station import Station
from repro.stats.overload import OverloadSummary, summarize_overload


class TestFromCounters:
    def test_basic_accounting(self):
        s = summarize_overload(
            duration=10.0, offered=100, served=80,
            rejected=5, dropped=10, shed=5, degraded=20,
        )
        assert s.refused == 20
        assert s.goodput == pytest.approx(8.0)
        assert s.refusal_rate == pytest.approx(0.2)
        assert s.degraded_fraction == pytest.approx(0.25)
        assert s.latency is None

    def test_latency_sample_summarized(self):
        s = summarize_overload(
            duration=1.0, offered=4, served=4, latencies=[0.1, 0.2, 0.3, 0.4]
        )
        assert s.latency is not None
        assert s.latency.mean == pytest.approx(0.25)

    def test_empty_latency_sample_is_none(self):
        s = summarize_overload(duration=1.0, offered=1, served=1, latencies=[])
        assert s.latency is None

    def test_zero_offered_has_zero_rates(self):
        s = summarize_overload(duration=1.0, offered=0, served=0, rejected=3)
        assert s.refusal_rate == 0.0
        assert s.degraded_fraction == 0.0

    def test_str_mentions_taxonomy(self):
        s = summarize_overload(
            duration=10.0, offered=100, served=80,
            rejected=5, dropped=10, shed=5, degraded=20,
            latencies=[0.5] * 4,
        )
        text = str(s)
        for fragment in ("rej=5", "drop=10", "shed=5", "degraded=25.0%", "p95="):
            assert fragment in text

    def test_validation(self):
        with pytest.raises(ValueError):
            summarize_overload(duration=0.0, offered=1, served=1)
        with pytest.raises(ValueError):
            summarize_overload(duration=1.0)  # no stations, no counters
        with pytest.raises(ValueError):
            summarize_overload(duration=1.0, offered=5, served=-1)


class TestFromStations:
    def _overloaded_station(self):
        sim = Simulation(0)
        st = Station(
            sim, 1, Deterministic(1.0),
            queue_capacity=2,
            discipline=CoDelDiscipline(target=0.1, interval=0.2),
        )
        for rid in range(8):
            sim.schedule(0.2 * rid, st.arrive, Request(rid, created=0.2 * rid))
        sim.run()
        return st

    def test_sums_station_counters(self):
        st = self._overloaded_station()
        s = summarize_overload(duration=10.0, stations=[st])
        assert s.offered == st.arrivals
        assert s.served == st.completions
        assert s.dropped == st.drops
        assert s.shed == st.shed
        assert s.offered == s.served + s.refused  # conservation

    def test_explicit_counters_add_on_top(self):
        st = self._overloaded_station()
        base = summarize_overload(duration=10.0, stations=[st])
        merged = summarize_overload(
            duration=10.0, stations=[st], offered=7, rejected=7
        )
        assert merged.offered == base.offered + 7
        assert merged.rejected == base.rejected + 7

    def test_multiple_stations_merge(self):
        a, b = self._overloaded_station(), self._overloaded_station()
        s = summarize_overload(duration=10.0, stations=[a, b])
        assert s.offered == a.arrivals + b.arrivals
        assert s.shed == a.shed + b.shed

    def test_is_frozen(self):
        s = summarize_overload(duration=1.0, offered=1, served=1)
        assert isinstance(s, OverloadSummary)
        with pytest.raises(AttributeError):
            s.served = 5
