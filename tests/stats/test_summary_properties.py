"""Property-based tests for LatencySummary."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.stats.summary import summarize

positive_samples = arrays(
    dtype=np.float64,
    shape=st.integers(min_value=1, max_value=500),
    elements=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)


class TestSummaryProperties:
    @given(xs=positive_samples)
    @settings(max_examples=100)
    def test_quantiles_bracketed_by_min_max(self, xs):
        s = summarize(xs)
        assert s.min <= s.p25 <= s.p50 <= s.p75 <= s.p95 <= s.p99 <= s.max
        # Summation rounding can put the mean of a constant array a few
        # ulps outside [min, max]; allow that much.
        eps = 1e-9 * max(1.0, abs(s.max))
        assert s.min - eps <= s.mean <= s.max + eps
        assert s.count == xs.size

    @given(xs=positive_samples, scale=st.floats(min_value=0.01, max_value=1000.0))
    @settings(max_examples=60)
    def test_scaling_equivariance(self, xs, scale):
        a, b = summarize(xs), summarize(xs * scale)
        # atol scaled to the magnitude: np.std of a constant array is a
        # rounding artifact (~1e-13 * mean), not a real dispersion.
        atol = 1e-9 * max(1.0, abs(b.mean))
        assert np.isclose(b.mean, a.mean * scale, rtol=1e-9, atol=atol)
        assert np.isclose(b.p95, a.p95 * scale, rtol=1e-9, atol=atol)
        assert np.isclose(b.std, a.std * scale, rtol=1e-6, atol=atol)

    @given(xs=positive_samples)
    @settings(max_examples=60)
    def test_cv2_scale_invariant(self, xs):
        s1 = summarize(xs)
        s2 = summarize(xs * 7.0)
        assert np.isclose(s1.cv2, s2.cv2, rtol=1e-6, atol=1e-9)

    def test_constant_sample(self):
        s = summarize(np.full(10, 3.0))
        assert s.std == 0.0 and s.cv2 == 0.0 and s.iqr == 0.0

