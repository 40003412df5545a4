"""Tests for the GI/G/k heavy-traffic tail approximations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.queueing.mmk import MMk
from repro.queueing.tails import gg_response_percentile, gg_wait_percentile, gg_wait_tail
from repro.sim.fastsim import simulate_fcfs_queue


class TestExactForMMk:
    @given(
        k=st.integers(min_value=1, max_value=10),
        rho=st.floats(min_value=0.2, max_value=0.95),
    )
    @settings(max_examples=60, deadline=None)
    def test_tail_matches_mmk_closed_form(self, k, rho):
        mu = 13.0
        lam = rho * k * mu
        q = MMk(lam, mu, k)
        ts = np.linspace(0.0, 0.5, 20)
        approx = gg_wait_tail(ts, lam, mu, k, 1.0, 1.0)
        exact = 1.0 - q.waiting_time_cdf(ts)
        np.testing.assert_allclose(approx, exact, atol=1e-9)

    @given(
        k=st.integers(min_value=1, max_value=10),
        rho=st.floats(min_value=0.2, max_value=0.95),
        p=st.floats(min_value=0.05, max_value=0.99),
    )
    @settings(max_examples=60, deadline=None)
    def test_percentile_matches_mmk(self, k, rho, p):
        mu = 13.0
        lam = rho * k * mu
        exact = MMk(lam, mu, k).waiting_time_percentile(p)
        approx = gg_wait_percentile(p, lam, mu, k, 1.0, 1.0)
        assert approx == pytest.approx(exact, abs=1e-9)


class TestGeneralService:
    def test_tail_is_valid_survival_function(self):
        ts = np.linspace(-0.1, 1.0, 50)
        s = gg_wait_tail(ts, 9.0, 13.0, 1, 2.0, 0.25)
        assert np.all(s >= 0) and np.all(s <= 1)
        assert np.all(np.diff(s[ts >= 0]) <= 1e-12)
        assert s[0] == 1.0  # negative t

    def test_burstier_arrivals_heavier_tail(self):
        t = 0.3
        base = float(gg_wait_tail(t, 9.0, 13.0, 1, 1.0, 1.0))
        bursty = float(gg_wait_tail(t, 9.0, 13.0, 1, 4.0, 1.0))
        assert bursty > base

    def test_approximation_tracks_simulation_high_rho(self):
        """Heavy-traffic regime: p95 within ~15% of a GI/G/1 simulation."""
        rng = np.random.default_rng(5)
        n = 400_000
        lam, mu, cv2 = 11.0, 13.0, 0.25  # rho = 0.846, Erlang-4 service
        arrivals = np.cumsum(rng.exponential(1.0 / lam, n))
        services = rng.gamma(4.0, 1.0 / (4.0 * mu), n)
        waits = simulate_fcfs_queue(arrivals, services, 1)[50_000:]
        emp = np.quantile(waits, 0.95)
        approx = gg_wait_percentile(0.95, lam, mu, 1, 1.0, cv2)
        assert approx == pytest.approx(emp, rel=0.15)

    def test_zero_load_never_waits(self):
        assert gg_wait_percentile(0.99, 0.0, 13.0, 4) == 0.0
        assert float(gg_wait_tail(0.1, 0.0, 13.0, 4)) == 0.0

    def test_atom_at_zero(self):
        # At rho=0.3 on 4 servers P(wait) is small: median wait is 0.
        assert gg_wait_percentile(0.5, 0.3 * 4 * 13.0, 13.0, 4) == 0.0


class TestResponsePercentile:
    def test_adds_mean_service(self):
        lam, mu, k = 40.0, 13.0, 5
        w = gg_wait_percentile(0.95, lam, mu, k)
        assert gg_response_percentile(0.95, lam, mu, k) == pytest.approx(w + 1.0 / mu)

    def test_validation(self):
        with pytest.raises(ValueError):
            gg_wait_percentile(1.0, 5.0, 13.0, 1)
        with pytest.raises(ValueError):
            gg_response_percentile(0.0, 5.0, 13.0, 1)
