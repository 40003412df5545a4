"""Tests for the G/G/1 and G/G/k approximations."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.queueing.base import StabilityError
from repro.queueing.ggk import allen_cunneen_wait, bolch_prob_wait, kingman_wait
from repro.queueing.mm1 import MM1
from repro.queueing.mmk import MMk, erlang_c


class TestKingman:
    @given(
        rho=st.floats(min_value=0.05, max_value=0.95),
        mu=st.floats(min_value=0.1, max_value=50.0),
    )
    @settings(max_examples=100)
    def test_exact_for_mm1(self, rho, mu):
        lam = rho * mu
        assert math.isclose(
            kingman_wait(lam, mu, 1.0, 1.0), MM1(lam, mu).mean_wait(), rel_tol=1e-9
        )

    def test_md1_is_half_mm1(self):
        # Deterministic service (cs2=0) halves the M/M/1 wait (Kingman form
        # coincides with Pollaczek-Khinchine for M/G/1).
        lam, mu = 8.0, 10.0
        assert kingman_wait(lam, mu, 1.0, 0.0) == pytest.approx(
            0.5 * MM1(lam, mu).mean_wait()
        )

    @given(
        rho=st.floats(min_value=0.1, max_value=0.9),
        ca2=st.floats(min_value=0.0, max_value=10.0),
        cs2=st.floats(min_value=0.0, max_value=10.0),
    )
    @settings(max_examples=150)
    def test_linear_in_variability(self, rho, ca2, cs2):
        mu = 1.0
        lam = rho * mu
        base = kingman_wait(lam, mu, 1.0, 1.0)
        w = kingman_wait(lam, mu, ca2, cs2)
        # abs_tol covers denormal CoVs (hypothesis probes 5e-324) where
        # the product underflows to 0 in one order and not the other.
        assert math.isclose(w, base * (ca2 + cs2) / 2.0, rel_tol=1e-9, abs_tol=1e-300)

    def test_unstable_rejected(self):
        with pytest.raises(StabilityError):
            kingman_wait(10.0, 10.0, 1.0, 1.0)

    def test_negative_cv2_rejected(self):
        with pytest.raises(ValueError):
            kingman_wait(5.0, 10.0, -1.0, 1.0)


class TestBolchProbWait:
    def test_two_branches(self):
        # Paper Equation 16.
        assert bolch_prob_wait(3, 0.8) == pytest.approx((0.8**3 + 0.8) / 2.0)
        assert bolch_prob_wait(3, 0.5) == pytest.approx(0.5 ** ((3 + 1) / 2.0))

    def test_single_server_high_rho_close_to_rho(self):
        # For k=1 the exact probability of waiting is rho; Bolch's high-rho
        # branch is exact there.
        assert bolch_prob_wait(1, 0.9) == pytest.approx(0.9)

    @given(
        k=st.integers(min_value=1, max_value=30),
        rho=st.floats(min_value=0.0, max_value=0.99),
    )
    @settings(max_examples=200)
    def test_is_probability(self, k, rho):
        assert 0.0 <= bolch_prob_wait(k, rho) <= 1.0

    @given(k=st.integers(min_value=1, max_value=20))
    @settings(max_examples=50)
    def test_reasonable_vs_erlang_c_at_high_rho(self, k):
        """Bolch's form approximates Erlang C within coarse bounds at rho>0.7."""
        rho = 0.85
        approx = bolch_prob_wait(k, rho)
        exact = erlang_c(k, rho * k)
        assert abs(approx - exact) < 0.25

    def test_invalid(self):
        with pytest.raises(ValueError):
            bolch_prob_wait(0, 0.5)
        with pytest.raises(ValueError):
            bolch_prob_wait(2, 1.5)


class TestAllenCunneen:
    @given(
        k=st.integers(min_value=1, max_value=20),
        rho=st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=150)
    def test_exact_for_mmk_with_erlang_ps(self, k, rho):
        mu = 13.0
        lam = rho * k * mu
        approx = allen_cunneen_wait(lam, mu, k, 1.0, 1.0, prob_wait="erlang")
        exact = MMk(lam, mu, k).mean_wait()
        assert math.isclose(approx, exact, rel_tol=1e-9)

    def test_k1_reduces_to_kingman(self):
        lam, mu = 9.0, 13.0
        ac = allen_cunneen_wait(lam, mu, 1, 2.0, 0.5, prob_wait="erlang")
        # For k=1 with exact Ps = rho, AC equals Kingman's formula.
        assert ac == pytest.approx(kingman_wait(lam, mu, 2.0, 0.5))

    def test_bolch_close_to_erlang_at_high_rho(self):
        lam, mu, k = 0.85 * 5 * 13.0, 13.0, 5
        w_b = allen_cunneen_wait(lam, mu, k, 1.0, 1.0, prob_wait="bolch")
        w_e = allen_cunneen_wait(lam, mu, k, 1.0, 1.0, prob_wait="erlang")
        assert w_b == pytest.approx(w_e, rel=0.30)

    @given(
        rho=st.floats(min_value=0.1, max_value=0.9),
        ca2=st.floats(min_value=0.0, max_value=8.0),
    )
    @settings(max_examples=100)
    def test_wait_increases_with_burstiness(self, rho, ca2):
        mu, k = 13.0, 5
        lam = rho * k * mu
        w_lo = allen_cunneen_wait(lam, mu, k, ca2, 1.0)
        w_hi = allen_cunneen_wait(lam, mu, k, ca2 + 1.0, 1.0)
        assert w_hi >= w_lo

    def test_invalid_method(self):
        with pytest.raises(ValueError):
            allen_cunneen_wait(5.0, 13.0, 1, 1.0, 1.0, prob_wait="nope")


class TestModelObjects:
    @given(
        rho=st.floats(min_value=0.75, max_value=0.95),
        k=st.integers(min_value=2, max_value=10),
    )
    @settings(max_examples=80)
    def test_paper_pooling_claim_under_ac(self, rho, k):
        """Lemma 3.2's premise: pooled G/G/k wait < per-site G/G/1 wait.

        Checked in the high-utilization regime where the paper applies
        Allen-Cunneen (rho > 0.7).
        """
        mu = 13.0
        edge = kingman_wait(rho * mu, mu, 1.5, 0.8)
        cloud = allen_cunneen_wait(rho * k * mu, mu, k, 1.5, 0.8)
        assert cloud < edge
