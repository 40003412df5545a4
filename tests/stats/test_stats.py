"""Tests for the measurement utilities."""

from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.summary import quantiles, summarize
from repro.stats.timeseries import windowed_mean


class TestSummarize:
    def test_basic_fields(self):
        s = summarize(np.array([1.0, 2.0, 3.0, 4.0]))
        assert s.count == 4
        assert s.mean == pytest.approx(2.5)
        assert s.p50 == pytest.approx(2.5)
        assert s.min == 1.0 and s.max == 4.0
        assert s.iqr == pytest.approx(s.p75 - s.p25)

    def test_quantile_ordering(self):
        rng = np.random.default_rng(0)
        s = summarize(rng.exponential(1.0, 10_000))
        assert s.p25 <= s.p50 <= s.p75 <= s.p95 <= s.p99 <= s.max

    def test_cv2(self):
        rng = np.random.default_rng(1)
        s = summarize(rng.exponential(2.0, 200_000))
        assert s.cv2 == pytest.approx(1.0, rel=0.05)

    def test_as_ms(self):
        s = summarize(np.array([0.5]))
        assert s.as_ms()["mean"] == pytest.approx(500.0)

    def test_str_renders(self):
        assert "p95" in str(summarize(np.array([0.1, 0.2])))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            summarize(np.array([]))
        with pytest.raises(ValueError):
            summarize(np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            summarize(np.array([1.0, np.nan]))


class TestQuantiles:
    """The one-sort quantiles carry ``np.quantile``'s bits, for the five
    quantiles of a summary and the two of a telemetry record."""

    QS = ((0.25, 0.5, 0.75, 0.95, 0.99), (0.5, 0.95))

    def assert_numpy_bits(self, x):
        for qs in self.QS:
            assert np.asarray(quantiles(x, qs)).tobytes() == np.quantile(x, qs).tobytes()

    def test_small_samples(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 3, 4, 5):
            for _ in range(400):
                self.assert_numpy_bits(rng.exponential(1.0, n))

    def test_random_sizes(self):
        rng = np.random.default_rng(1)
        sizes = np.unique(np.geomspace(6, 300_000, 40).astype(int))
        for n in [*sizes, *rng.integers(6, 2_000, 200)]:
            self.assert_numpy_bits(rng.lognormal(-3.0, 1.0, n))

    def test_tied_and_constant_samples(self):
        rng = np.random.default_rng(2)
        for n in (*range(1, 40), 1_000, 45_001, 100_000):
            self.assert_numpy_bits(np.round(rng.exponential(0.05, n), 2))
            self.assert_numpy_bits(np.round(rng.exponential(1.0, n)))
            self.assert_numpy_bits(np.full(n, rng.random()))
            self.assert_numpy_bits(np.zeros(n))
            self.assert_numpy_bits(np.full(n, -0.0))

    def test_summary_and_buffer_inputs(self):
        rng = np.random.default_rng(3)
        x = rng.exponential(0.1, 45_000)
        s = summarize(x)
        got = [s.p25, s.p50, s.p75, s.p95, s.p99]
        assert np.asarray(got).tobytes() == np.quantile(x, self.QS[0]).tobytes()
        # telemetry keeps its latencies in an array('d')
        buffer = array("d", x.tolist())
        assert quantiles(buffer[7:], self.QS[1]) == quantiles(x[7:], self.QS[1])


class TestWindowedSeries:
    def test_windowed_mean(self):
        t = np.array([0.5, 0.6, 1.5])
        v = np.array([1.0, 3.0, 10.0])
        starts, means = windowed_mean(t, v, 1.0, horizon=3.0)
        np.testing.assert_allclose(starts, [0.0, 1.0, 2.0])
        assert means[0] == pytest.approx(2.0)
        assert means[1] == pytest.approx(10.0)
        assert np.isnan(means[2])

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            windowed_mean(np.array([1.0]), np.array([1.0, 2.0]), 1.0)

    def test_bad_params_rejected(self):
        t = v = np.array([1.0])
        with pytest.raises(ValueError):
            windowed_mean(t, v, 0.0)

    @given(seed=st.integers(min_value=0, max_value=100))
    @settings(max_examples=30)
    def test_mean_of_window_means_consistent(self, seed):
        rng = np.random.default_rng(seed)
        t = np.sort(rng.uniform(0, 10, 500))
        v = rng.exponential(1.0, 500)
        _, means = windowed_mean(t, v, 10.0, horizon=10.0)
        assert means[0] == pytest.approx(v.mean())

