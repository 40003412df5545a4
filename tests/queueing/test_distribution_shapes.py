"""Goodness-of-fit checks: samplers actually draw from the claimed laws.

Moment tests (elsewhere) can pass for the wrong distribution; these
Kolmogorov–Smirnov checks pin the sampled *shapes* against the
theoretical CDFs.
"""

import numpy as np
import pytest
from scipy import stats as sps

from repro.queueing.distributions import (
    Erlang,
    Exponential,
    HyperExponential,
    LogNormal,
    Uniform,
)

N = 50_000
ALPHA = 1e-3  # reject only on overwhelming evidence (avoids flaky CI)


def ks_pvalue(samples, cdf):
    return sps.kstest(samples, cdf).pvalue


class TestShapes:
    def test_exponential(self):
        d = Exponential(0.4)
        xs = d.sample(np.random.default_rng(1), N)
        assert ks_pvalue(xs, sps.expon(scale=0.4).cdf) > ALPHA

    def test_erlang(self):
        d = Erlang(4, 2.0)
        xs = d.sample(np.random.default_rng(2), N)
        assert ks_pvalue(xs, sps.gamma(a=4, scale=0.5).cdf) > ALPHA

    def test_lognormal(self):
        d = LogNormal(1.5, 0.8)
        xs = d.sample(np.random.default_rng(3), N)
        assert ks_pvalue(xs, sps.lognorm(s=np.sqrt(d.sigma2), scale=np.exp(d.mu)).cdf) > ALPHA

    def test_uniform(self):
        d = Uniform(0.5, 2.5)
        xs = d.sample(np.random.default_rng(4), N)
        assert ks_pvalue(xs, sps.uniform(loc=0.5, scale=2.0).cdf) > ALPHA

    def test_hyperexponential_mixture_cdf(self):
        d = HyperExponential.balanced(1.0, 4.0)
        xs = d.sample(np.random.default_rng(6), N)

        def cdf(t):
            t = np.asarray(t)
            return sum(
                p * (1.0 - np.exp(-np.maximum(t, 0) / m))
                for p, m in zip(d.probs, d.means, strict=True)
            )

        assert ks_pvalue(xs, cdf) > ALPHA

    def test_wrong_distribution_rejected(self):
        """Sanity: the KS machinery does reject a wrong null."""
        xs = Exponential(1.0).sample(np.random.default_rng(7), N)
        assert ks_pvalue(xs, sps.expon(scale=2.0).cdf) < ALPHA
