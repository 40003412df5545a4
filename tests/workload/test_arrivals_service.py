"""Tests for arrival processes and service models."""

import numpy as np
import pytest

from repro.workload.arrivals import (
    DeterministicArrivals,
    GammaRenewalArrivals,
    HyperExpArrivals,
    MMPPArrivals,
    PoissonArrivals,
)
from repro.workload.service import DNNInferenceModel, ImageClassifierService
from repro.workload.trace import RequestTrace


class TestPoissonArrivals:
    def test_rate_achieved(self):
        t = PoissonArrivals(20.0).generate(np.random.default_rng(0), horizon=2000.0)
        assert t.mean_rate == pytest.approx(20.0, rel=0.03)

    def test_cv2_is_one(self):
        t = PoissonArrivals(20.0).generate(np.random.default_rng(1), horizon=5000.0)
        assert t.interarrival_cv2() == pytest.approx(1.0, rel=0.05)

    def test_fixed_count_mode(self):
        t = PoissonArrivals(5.0).generate(np.random.default_rng(2), n=1234)
        assert len(t) == 1234

    def test_horizon_respected(self):
        t = PoissonArrivals(50.0).generate(np.random.default_rng(3), horizon=10.0)
        assert t.arrival_times.max() < 10.0

    def test_exactly_one_mode_required(self):
        p = PoissonArrivals(1.0)
        with pytest.raises(ValueError):
            p.generate(np.random.default_rng(0))
        with pytest.raises(ValueError):
            p.generate(np.random.default_rng(0), horizon=1.0, n=10)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            PoissonArrivals(0.0)


class TestShapedArrivals:
    def test_deterministic_cv2_zero(self):
        t = DeterministicArrivals(10.0).generate(np.random.default_rng(0), horizon=100.0)
        assert t.interarrival_cv2() == pytest.approx(0.0, abs=1e-12)

    def test_gamma_renewal_cv2(self):
        t = GammaRenewalArrivals(10.0, 0.25).generate(np.random.default_rng(1), horizon=5000.0)
        assert t.interarrival_cv2() == pytest.approx(0.25, rel=0.1)

    def test_gamma_renewal_range_check(self):
        with pytest.raises(ValueError):
            GammaRenewalArrivals(10.0, 1.5)

    def test_hyperexp_cv2(self):
        t = HyperExpArrivals(10.0, 4.0).generate(np.random.default_rng(2), horizon=8000.0)
        assert t.interarrival_cv2() == pytest.approx(4.0, rel=0.2)

    def test_hyperexp_range_check(self):
        with pytest.raises(ValueError):
            HyperExpArrivals(10.0, 0.9)

    def test_interarrival_dist_mean(self):
        p = HyperExpArrivals(8.0, 2.0)
        assert p.interarrival().mean == pytest.approx(1.0 / 8.0)
        assert p.cv2 == pytest.approx(2.0)


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
        parts = [PoissonArrivals(5.0).generate(rng, horizon=1000.0) for _ in range(4)]
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


class TestImageClassifierService:
    def test_affine_model_roundtrip(self):
        svc = ImageClassifierService(base=0.02, per_mpix=0.1)
        sizes = np.array([0.5, 1.0, 4.0])
        times = svc.service_time_for_size(sizes)
        np.testing.assert_allclose(svc.size_for_service_time(times), sizes)

    def test_below_base_maps_to_zero_size(self):
        svc = ImageClassifierService(base=0.05, per_mpix=0.1)
        assert svc.size_for_service_time(0.01) == 0.0

    def test_sample_mean(self):
        svc = ImageClassifierService()
        times = svc.sample_service_times(np.random.default_rng(0), 100_000)
        assert times.mean() == pytest.approx(svc.mean_service_time, rel=0.03)
        assert times.min() >= svc.base

    def test_validation(self):
        with pytest.raises(ValueError):
            ImageClassifierService(per_mpix=0.0)
        with pytest.raises(ValueError):
            ImageClassifierService().service_time_for_size(-1.0)
        with pytest.raises(ValueError):
            ImageClassifierService().size_for_service_time(-1.0)
