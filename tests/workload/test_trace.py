"""Tests for the RequestTrace container."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload.trace import RequestTrace


def make_trace(n=100, rate=10.0, seed=0, with_services=True):
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.exponential(1.0 / rate, n))
    services = rng.exponential(0.05, n) if with_services else None
    return RequestTrace(times, services)


class TestConstruction:
    def test_basic(self):
        t = RequestTrace(np.array([0.0, 1.0, 2.0]))
        assert len(t) == 3
        assert t.duration == 2.0
        assert t.mean_rate == pytest.approx(1.0)

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            RequestTrace(np.array([1.0, 0.5]))

    def test_rejects_negative_service(self):
        with pytest.raises(ValueError):
            RequestTrace(np.array([0.0]), np.array([-1.0]))

    def test_rejects_misaligned_services(self):
        with pytest.raises(ValueError):
            RequestTrace(np.array([0.0, 1.0]), np.array([0.1]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_arrival(self, bad):
        with pytest.raises(ValueError, match="arrival_times must be finite"):
            RequestTrace(np.array([0.0, bad]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_service(self, bad):
        with pytest.raises(ValueError, match="service_times must be finite"):
            RequestTrace(np.array([0.0, 1.0]), np.array([0.1, bad]))

    def test_empty_trace(self):
        t = RequestTrace(np.empty(0))
        assert len(t) == 0
        assert t.duration == 0.0
        assert t.mean_rate == 0.0


class TestOperations:
    def test_slice_half_open(self):
        t = RequestTrace(np.array([0.0, 1.0, 2.0, 3.0]))
        s = t.slice(1.0, 3.0)
        np.testing.assert_allclose(s.arrival_times, [1.0, 2.0])

    def test_slice_keeps_services_aligned(self):
        t = RequestTrace(np.array([0.0, 1.0, 2.0]), np.array([0.1, 0.2, 0.3]))
        s = t.slice(0.5, 2.5)
        np.testing.assert_allclose(s.service_times, [0.2, 0.3])

    def test_slice_invalid(self):
        with pytest.raises(ValueError):
            make_trace().slice(2.0, 1.0)

    def test_shifted(self):
        t = RequestTrace(np.array([1.0, 2.0]))
        np.testing.assert_allclose(t.shifted(10.0).arrival_times, [11.0, 12.0])

    def test_interarrival_cv2_poisson_near_one(self):
        t = make_trace(n=100_000, seed=1)
        assert t.interarrival_cv2() == pytest.approx(1.0, rel=0.05)

    def test_interarrival_cv2_needs_three(self):
        with pytest.raises(ValueError):
            RequestTrace(np.array([0.0, 1.0])).interarrival_cv2()

    def test_windowed_rates(self):
        t = RequestTrace(np.array([0.1, 0.2, 1.5, 2.5, 2.6, 2.7]))
        starts, rates = t.windowed_rates(1.0, horizon=3.0)
        np.testing.assert_allclose(starts, [0.0, 1.0, 2.0])
        np.testing.assert_allclose(rates, [2.0, 1.0, 3.0])

    def test_windowed_rates_invalid_window(self):
        with pytest.raises(ValueError):
            make_trace().windowed_rates(0.0)


class TestMergeSplit:
    def test_merge_sorts(self):
        a = RequestTrace(np.array([0.0, 2.0]), np.array([1.0, 2.0]))
        b = RequestTrace(np.array([1.0, 3.0]), np.array([3.0, 4.0]))
        m = RequestTrace.merge([a, b])
        np.testing.assert_allclose(m.arrival_times, [0.0, 1.0, 2.0, 3.0])
        np.testing.assert_allclose(m.service_times, [1.0, 3.0, 2.0, 4.0])

    def test_merge_rejects_mixed_service_presence(self):
        a = RequestTrace(np.array([0.0]), np.array([1.0]))
        b = RequestTrace(np.array([1.0]))
        with pytest.raises(ValueError):
            RequestTrace.merge([a, b])

    def test_merge_empty_list_rejected(self):
        with pytest.raises(ValueError):
            RequestTrace.merge([])

    def test_split_partitions_everything(self):
        t = make_trace(n=5000, seed=2)
        parts = t.split_by_weights([0.5, 0.3, 0.2], np.random.default_rng(0))
        assert sum(len(p) for p in parts) == len(t)

    def test_split_respects_weights(self):
        t = make_trace(n=50_000, seed=3)
        parts = t.split_by_weights([0.8, 0.2], np.random.default_rng(1))
        assert len(parts[0]) / len(t) == pytest.approx(0.8, abs=0.02)

    def test_split_rejects_bad_weights(self):
        t = make_trace()
        with pytest.raises(ValueError):
            t.split_by_weights([0.0, 0.0], np.random.default_rng(0))
        with pytest.raises(ValueError):
            t.split_by_weights([-1.0, 2.0], np.random.default_rng(0))

    @given(seed=st.integers(min_value=0, max_value=200), k=st.integers(min_value=1, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_split_then_merge_is_identity_as_multiset(self, seed, k):
        t = make_trace(n=300, seed=seed)
        parts = t.split_by_weights(np.ones(k), np.random.default_rng(seed))
        merged = RequestTrace.merge(parts)
        np.testing.assert_allclose(np.sort(merged.arrival_times), t.arrival_times)
        np.testing.assert_allclose(
            np.sort(merged.service_times), np.sort(t.service_times)
        )
