"""Tests for workload characterization."""

import numpy as np
import pytest

from repro.queueing.distributions import Exponential, HyperExponential
from repro.workload.arrivals import MMPPArrivals
from repro.workload.characterize import (
    characterize,
    index_of_dispersion,
    spatial_skew_profile,
)
from repro.workload.trace import RequestTrace
from tests.workload.test_arrivals_service import renewal_trace


class TestCharacterize:
    def test_poisson_profile(self):
        trace = renewal_trace(Exponential(1.0 / 10.0), np.random.default_rng(0), 5000.0)
        p = characterize(trace, window=60.0)
        assert p.mean_rate == pytest.approx(10.0, rel=0.05)
        assert p.interarrival_cv2 == pytest.approx(1.0, rel=0.1)
        assert p.dispersion == pytest.approx(1.0, abs=0.3)
        assert p.suggests_poisson()
        assert p.service_cv2 is None and p.mean_service is None

    def test_bursty_profile_flagged(self):
        trace = MMPPArrivals(3.0, 40.0, 120.0, 30.0).generate(
            np.random.default_rng(1), horizon=20_000.0
        )
        p = characterize(trace, window=60.0)
        assert p.dispersion > 3.0
        assert p.peak_to_mean > 1.5
        assert not p.suggests_poisson()

    def test_renewal_burstiness_captured_by_cv2(self):
        trace = renewal_trace(
            HyperExponential.balanced(1.0 / 10.0, 4.0), np.random.default_rng(2), 8000.0
        )
        p = characterize(trace)
        assert p.interarrival_cv2 == pytest.approx(4.0, rel=0.25)

    def test_service_statistics(self):
        rng = np.random.default_rng(3)
        times = np.cumsum(rng.exponential(0.1, 5000))
        services = rng.gamma(4.0, 0.025, 5000)  # mean 0.1, cv2 0.25
        p = characterize(RequestTrace(times, services))
        assert p.mean_service == pytest.approx(0.1, rel=0.05)
        assert p.service_cv2 == pytest.approx(0.25, rel=0.15)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            characterize(RequestTrace(np.array([0.0, 1.0])))


class TestIndexOfDispersion:
    def test_poisson_near_one(self):
        trace = renewal_trace(Exponential(1.0 / 20.0), np.random.default_rng(4), 10_000.0)
        assert index_of_dispersion(trace, 30.0) == pytest.approx(1.0, abs=0.25)

    def test_deterministic_near_zero(self):
        trace = RequestTrace(np.arange(0.0, 1000.0, 0.1))
        assert index_of_dispersion(trace, 10.0) < 0.05

    def test_validation(self):
        trace = RequestTrace(np.array([0.0, 1.0, 2.0]))
        with pytest.raises(ValueError):
            index_of_dispersion(trace, 0.0)
        with pytest.raises(ValueError):
            index_of_dispersion(RequestTrace(np.array([1.0])), 10.0)


class TestSpatialSkewProfile:
    def make_sites(self, rates, seed=5):
        rng = np.random.default_rng(seed)
        return [
            RequestTrace(np.cumsum(rng.exponential(1.0 / r, 2000))) for r in rates
        ]

    def test_balanced_sites(self):
        prof = spatial_skew_profile(self.make_sites([10.0] * 4))
        assert prof["site_cv"] < 0.05
        assert prof["skew_wait_factor"] == pytest.approx(1.0, abs=0.2)

    def test_skewed_sites_flagged(self):
        prof = spatial_skew_profile(self.make_sites([20.0, 5.0, 5.0, 2.0]))
        assert prof["site_cv"] > 0.5
        assert prof["max_over_mean"] > 1.5
        assert prof["skew_wait_factor"] > 1.5

    def test_validation(self):
        with pytest.raises(ValueError):
            spatial_skew_profile([])
