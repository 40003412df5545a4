"""Tests for repro.queueing.distributions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.queueing.distributions import (
    Deterministic,
    Erlang,
    Exponential,
    HyperExponential,
    LogNormal,
    Uniform,
    fit_two_moments,
)

RNG = np.random.default_rng(42)


class TestDeterministic:
    def test_moments(self):
        d = Deterministic(2.5)
        assert d.mean == 2.5
        assert d.variance == 0.0
        assert d.cv2 == 0.0

    def test_sample_scalar_and_vector(self):
        d = Deterministic(1.5)
        assert d.sample(RNG) == 1.5
        np.testing.assert_array_equal(d.sample(RNG, 4), np.full(4, 1.5))

    def test_zero_value_allowed(self):
        d = Deterministic(0.0)
        assert d.cv2 == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Deterministic(-1.0)


class TestExponential:
    def test_moments(self):
        d = Exponential(0.5)
        assert d.mean == 0.5
        assert d.variance == 0.25
        assert d.cv2 == pytest.approx(1.0)
        assert d.rate == pytest.approx(2.0)

    def test_sample_mean_converges(self):
        d = Exponential(2.0)
        xs = d.sample(np.random.default_rng(1), 200_000)
        assert xs.mean() == pytest.approx(2.0, rel=0.02)

    def test_invalid(self):
        with pytest.raises(ValueError):
            Exponential(0.0)


class TestErlang:
    def test_cv2_is_inverse_shape(self):
        for k in (1, 2, 4, 10):
            assert Erlang(k, 1.0).cv2 == pytest.approx(1.0 / k)

    def test_sample_moments(self):
        d = Erlang(4, 2.0)
        xs = d.sample(np.random.default_rng(2), 200_000)
        assert xs.mean() == pytest.approx(2.0, rel=0.02)
        assert xs.var() == pytest.approx(d.variance, rel=0.05)

    def test_shape_one_is_exponential(self):
        assert Erlang(1, 3.0).cv2 == pytest.approx(Exponential(3.0).cv2)

    def test_invalid(self):
        with pytest.raises(ValueError):
            Erlang(0, 1.0)


class TestHyperExponential:
    def test_balanced_fit_matches_target_moments(self):
        for cv2 in (1.5, 2.0, 4.0, 10.0):
            d = HyperExponential.balanced(3.0, cv2)
            assert d.mean == pytest.approx(3.0)
            assert d.cv2 == pytest.approx(cv2)

    def test_sample_moments(self):
        d = HyperExponential.balanced(1.0, 4.0)
        xs = d.sample(np.random.default_rng(3), 500_000)
        assert xs.mean() == pytest.approx(1.0, rel=0.03)
        assert xs.var() == pytest.approx(4.0, rel=0.1)

    def test_scalar_sample(self):
        d = HyperExponential.balanced(1.0, 2.0)
        assert isinstance(d.sample(np.random.default_rng(0)), float)

    def test_rejects_low_cv2(self):
        with pytest.raises(ValueError):
            HyperExponential.balanced(1.0, 0.5)

    def test_rejects_bad_probs(self):
        with pytest.raises(ValueError):
            HyperExponential([0.5, 0.4], [1.0, 2.0])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            HyperExponential([1.0], [1.0, 2.0])


class TestLogNormal:
    def test_moments(self):
        d = LogNormal(2.0, 0.7)
        assert d.mean == pytest.approx(2.0)
        assert d.cv2 == pytest.approx(0.7)

    def test_sample_moments(self):
        d = LogNormal(1.0, 1.2)
        xs = d.sample(np.random.default_rng(4), 500_000)
        assert xs.mean() == pytest.approx(1.0, rel=0.03)
        assert xs.var() == pytest.approx(1.2, rel=0.1)

    def test_invalid(self):
        with pytest.raises(ValueError):
            LogNormal(1.0, 0.0)


class TestUniform:
    def test_moments(self):
        d = Uniform(1.0, 3.0)
        assert d.mean == 2.0
        assert d.variance == pytest.approx(4.0 / 12.0)

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            Uniform(3.0, 1.0)


class TestFitTwoMoments:
    def test_dispatch(self):
        assert isinstance(fit_two_moments(1.0, 0.0), Deterministic)
        assert isinstance(fit_two_moments(1.0, 0.25), Erlang)
        assert isinstance(fit_two_moments(1.0, 1.0), Exponential)
        assert isinstance(fit_two_moments(1.0, 3.0), HyperExponential)

    @given(
        mean=st.floats(min_value=0.01, max_value=100.0),
        cv2=st.floats(min_value=0.0, max_value=20.0),
    )
    @settings(max_examples=200)
    def test_mean_always_preserved(self, mean, cv2):
        d = fit_two_moments(mean, cv2)
        assert math.isclose(d.mean, mean, rel_tol=1e-9)

    @given(cv2=st.floats(min_value=1.0, max_value=50.0))
    @settings(max_examples=100)
    def test_cv2_exact_for_hyperexponential_range(self, cv2):
        d = fit_two_moments(2.0, cv2)
        assert math.isclose(d.cv2, cv2, rel_tol=1e-7)

    @given(shape=st.integers(min_value=1, max_value=40))
    def test_cv2_exact_at_erlang_points(self, shape):
        d = fit_two_moments(1.0, 1.0 / shape)
        assert math.isclose(d.cv2, 1.0 / shape, rel_tol=1e-9)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            fit_two_moments(0.0, 1.0)
        with pytest.raises(ValueError):
            fit_two_moments(1.0, -0.5)


class TestSamplesAreNonNegative:
    @pytest.mark.parametrize(
        "dist",
        [
            Deterministic(1.0),
            Exponential(1.0),
            Erlang(3, 1.0),
            HyperExponential.balanced(1.0, 4.0),
            LogNormal(1.0, 1.0),
            Uniform(0.0, 2.0),
        ],
        ids=lambda d: type(d).__name__,
    )
    def test_nonnegative(self, dist):
        xs = np.asarray(dist.sample(np.random.default_rng(7), 10_000))
        assert np.all(xs >= 0)
