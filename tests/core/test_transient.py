"""Tests for the quasi-stationary transient prediction."""

import numpy as np
import pytest

from repro.core.transient import predict_windowed_series, quasi_stationary_latency
from repro.queueing.mmk import MMk
from repro.sim.fastsim import simulate_single_queue_system
from repro.sim.network import ConstantLatency
from repro.workload.arrivals import NonHomogeneousPoisson
from repro.workload.trace import RequestTrace

MU = 13.0


class TestQuasiStationaryPoint:
    def test_below_saturation_is_exact_mmc(self):
        assert quasi_stationary_latency(8.0, MU, 1) == pytest.approx(
            MMk(8.0, MU, 1).mean_response(), rel=1e-4
        )

    def test_zero_rate_is_service_time(self):
        assert quasi_stationary_latency(0.0, MU, 2, rtt=0.01) == pytest.approx(
            0.01 + 1.0 / MU
        )

    def test_rtt_added(self):
        base = quasi_stationary_latency(8.0, MU, 1)
        assert quasi_stationary_latency(8.0, MU, 1, rtt=0.025) == pytest.approx(
            base + 0.025
        )

    def test_saturated_window_finite(self):
        over = quasi_stationary_latency(30.0, MU, 1)
        assert np.isfinite(over)
        # Deep in overload the system sits near its capacity bound.
        assert over > quasi_stationary_latency(12.0, MU, 1)

    def test_latency_monotone_in_rate_through_saturation(self):
        vals = [
            quasi_stationary_latency(r, MU, 1)
            for r in (2.0, 6.0, 10.0, 12.0, 13.0, 16.0, 30.0)
        ]
        assert vals == sorted(vals)

    def test_validation(self):
        with pytest.raises(ValueError):
            quasi_stationary_latency(-1.0, MU, 1)
        with pytest.raises(ValueError):
            quasi_stationary_latency(1.0, MU, 0)
        with pytest.raises(ValueError):
            quasi_stationary_latency(1.0, MU, 1, rtt=-0.1)


class TestPredictedSeries:
    def test_tracks_simulated_series_under_slow_modulation(self):
        """Quasi-stationary prediction vs simulation for a slow diurnal ramp."""
        period, horizon = 4000.0, 8000.0

        def rate(t):
            return 7.0 + 4.0 * np.sin(2 * np.pi * t / period)

        proc = NonHomogeneousPoisson(rate, max_rate=11.5, mean_rate=7.0)
        rng = np.random.default_rng(3)
        trace = proc.generate(rng, horizon=horizon)
        services = rng.exponential(1.0 / MU, len(trace))
        sim = simulate_single_queue_system(
            trace.arrival_times, services, 1, ConstantLatency(0.0)
        )
        window = 400.0
        starts, predicted = predict_windowed_series(trace, MU, 1, window, horizon=horizon)
        # Simulated windowed means.
        from repro.stats.timeseries import windowed_mean

        _, simulated = windowed_mean(sim.created, sim.end_to_end, window, horizon=horizon)
        valid = ~np.isnan(simulated)
        # Correlation between predicted and simulated series is strong.
        corr = np.corrcoef(predicted[valid], simulated[valid])[0, 1]
        assert corr > 0.8
        # And the level is right on average.
        assert predicted[valid].mean() == pytest.approx(
            simulated[valid].mean(), rel=0.25
        )

    def test_shapes_align(self):
        trace = RequestTrace(np.sort(np.random.default_rng(0).uniform(0, 100, 500)))
        starts, pred = predict_windowed_series(trace, MU, 1, 10.0, horizon=100.0)
        assert starts.shape == pred.shape
        assert np.all(np.isfinite(pred))
