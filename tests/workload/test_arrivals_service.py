"""Tests for arrival processes and service models."""

import numpy as np
import pytest

from repro.queueing.distributions import Exponential
from repro.workload.arrivals import MMPPArrivals
from repro.workload.service import DNNInferenceModel
from repro.workload.trace import RequestTrace


def renewal_trace(gap, rng, horizon):
    """Arrivals over ``[0, horizon)`` whose gaps are i.i.d. draws of ``gap``.

    Draws the mean count plus a margin in one block, and another block
    while the gaps fall short of ``horizon``; then cumulates and cuts.
    """
    rate = 1.0 / gap.mean
    count = int(rate * horizon + 6.0 * np.sqrt(rate * horizon) + 16)
    gaps = gap.sample(rng, count)
    while gaps.sum() < horizon:
        gaps = np.concatenate([gaps, gap.sample(rng, count)])
    times = np.cumsum(gaps)
    return RequestTrace(times[times < horizon])


class TestMMPP:
    def test_mean_rate_is_dwell_weighted(self):
        p = MMPPArrivals(base_rate=5.0, burst_rate=50.0, base_dwell=90.0, burst_dwell=10.0)
        assert p.rate == pytest.approx(0.9 * 5.0 + 0.1 * 50.0)
        t = p.generate(np.random.default_rng(0), horizon=20_000.0)
        assert t.mean_rate == pytest.approx(p.rate, rel=0.1)

    def test_burstier_than_poisson(self):
        p = MMPPArrivals(base_rate=5.0, burst_rate=50.0, base_dwell=60.0, burst_dwell=20.0)
        t = p.generate(np.random.default_rng(1), horizon=20_000.0)
        assert t.interarrival_cv2() > 1.5

    def test_fixed_count_mode(self):
        p = MMPPArrivals(5.0, 20.0, 30.0, 10.0)
        t = p.generate(np.random.default_rng(2), n=500)
        assert len(t) == 500

    def test_validation(self):
        with pytest.raises(ValueError):
            MMPPArrivals(0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            MMPPArrivals(1.0, 1.0, 0.0, 1.0)

    def test_requires_exactly_one_mode(self):
        p = MMPPArrivals(5.0, 20.0, 30.0, 10.0)
        with pytest.raises(ValueError):
            p.generate(np.random.default_rng(0))


class TestMergeTraces:
    def test_superposition_rate_adds(self):
        rng = np.random.default_rng(3)
        parts = [renewal_trace(Exponential(1.0 / 5.0), rng, 1000.0) for _ in range(4)]
        merged = RequestTrace.merge(parts)
        assert merged.mean_rate == pytest.approx(20.0, rel=0.05)


class TestDNNInferenceModel:
    def test_paper_calibration(self):
        m = DNNInferenceModel()  # defaults: 13 req/s, 8 concurrency lanes
        assert m.mean_service_time == pytest.approx(8.0 / 13.0)
        assert m.core_service_rate == pytest.approx(13.0 / 8.0)
        assert m.servers_for_machines(5) == 40

    def test_utilization(self):
        m = DNNInferenceModel()
        # Paper: 8 req/s on one machine -> rho = 8/13 = 0.615.
        assert m.utilization(8.0) == pytest.approx(8.0 / 13.0)
        assert m.utilization(80.0, machines=10) == pytest.approx(8.0 / 13.0)

    def test_max_stable_rate(self):
        m = DNNInferenceModel()
        assert m.max_stable_rate() == pytest.approx(13.0)
        assert m.max_stable_rate(machines=2, headroom=0.5) == pytest.approx(13.0)

    def test_service_dist_moments(self):
        m = DNNInferenceModel(cv2=0.25)
        d = m.service_dist()
        assert d.mean == pytest.approx(m.mean_service_time)
        assert d.cv2 == pytest.approx(0.25)

    def test_saturation_semantics(self):
        """A machine saturates at exactly saturation_rate regardless of cores."""
        for cores in (1, 2, 4, 8):
            m = DNNInferenceModel(cores=cores)
            mu_total = m.core_service_rate * cores
            assert mu_total == pytest.approx(13.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            DNNInferenceModel(saturation_rate=0.0)
        with pytest.raises(ValueError):
            DNNInferenceModel(cores=0)
        with pytest.raises(ValueError):
            DNNInferenceModel(cv2=-1.0)
        with pytest.raises(ValueError):
            DNNInferenceModel().utilization(-1.0)
        with pytest.raises(ValueError):
            DNNInferenceModel().max_stable_rate(headroom=1.0)
        with pytest.raises(ValueError):
            DNNInferenceModel().servers_for_machines(0)

