"""Tests for capacity planning (§5) and the paper scenarios."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.capacity import (
    cloud_peak_capacity,
    edge_peak_capacity,
    min_edge_servers,
    proportional_allocation,
    provisioning_penalty,
)
from repro.core.scenarios import (
    DISTANT_CLOUD,
    NEARBY_CLOUD,
    PAPER_SCENARIOS,
    TRANSCONTINENTAL_CLOUD,
    TYPICAL_CLOUD,
    Scenario,
)


class TestTwoSigmaCapacity:
    def test_formulas(self):
        assert cloud_peak_capacity(100.0) == pytest.approx(120.0)
        assert edge_peak_capacity(100.0, 4) == pytest.approx(140.0)

    def test_k1_edge_equals_cloud(self):
        assert edge_peak_capacity(50.0, 1) == pytest.approx(cloud_peak_capacity(50.0))

    @given(
        lam=st.floats(min_value=0.1, max_value=1e5),
        k=st.integers(min_value=2, max_value=500),
    )
    @settings(max_examples=150)
    def test_paper_claim_edge_needs_more(self, lam, k):
        """Section 5.2: C_edge > C_cloud for any k > 1."""
        assert edge_peak_capacity(lam, k) > cloud_peak_capacity(lam)
        assert provisioning_penalty(lam, k) > 1.0

    @given(lam=st.floats(min_value=1.0, max_value=1e4))
    @settings(max_examples=50)
    def test_penalty_grows_with_k(self, lam):
        assert provisioning_penalty(lam, 16) > provisioning_penalty(lam, 4)

    def test_penalty_shrinks_with_scale(self):
        """Relative penalty vanishes as lambda grows (2σ term is O(√λ))."""
        assert provisioning_penalty(1e6, 10) < provisioning_penalty(100.0, 10)

    def test_zero_load(self):
        assert cloud_peak_capacity(0.0) == 0.0
        assert provisioning_penalty(0.0, 5) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            cloud_peak_capacity(-1.0)
        with pytest.raises(ValueError):
            edge_peak_capacity(1.0, 0)


class TestMinEdgeServers:
    def test_returns_stable_and_sufficient(self):
        unit = 0.077  # seconds per formula unit (~ one mean service time)
        k_i = min_edge_servers(0.030, 8.0, 13.0, 5, 40.0, time_unit=unit)
        assert k_i >= 1
        # Stability at the returned allocation.
        assert 8.0 / (k_i * 13.0) < 1.0

    def test_monotone_in_site_load(self):
        unit = 0.077
        low = min_edge_servers(0.030, 5.0, 13.0, 5, 40.0, time_unit=unit)
        high = min_edge_servers(0.030, 30.0, 13.0, 5, 40.0, time_unit=unit)
        assert high >= low

    def test_zero_load_site_needs_one(self):
        assert min_edge_servers(0.030, 0.0, 13.0, 5, 40.0) == 1

    def test_bigger_delta_n_needs_fewer(self):
        unit = 0.077
        near = min_edge_servers(0.014, 10.0, 13.0, 5, 50.0, time_unit=unit)
        far = min_edge_servers(0.079, 10.0, 13.0, 5, 50.0, time_unit=unit)
        assert far <= near

    def test_unstable_cloud_rejected(self):
        with pytest.raises(ValueError):
            min_edge_servers(0.030, 8.0, 13.0, 5, 100.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            min_edge_servers(0.0, 8.0, 13.0, 5, 40.0)
        with pytest.raises(ValueError):
            min_edge_servers(0.030, -1.0, 13.0, 5, 40.0)


class TestProportionalAllocation:
    def test_balanced(self):
        assert proportional_allocation([1.0, 1.0, 1.0, 1.0], 8) == [2, 2, 2, 2]

    def test_sums_to_total(self):
        alloc = proportional_allocation([0.5, 0.3, 0.2], 10)
        assert sum(alloc) == 10
        assert alloc[0] >= alloc[1] >= alloc[2]

    def test_loaded_sites_get_at_least_one(self):
        alloc = proportional_allocation([0.97, 0.01, 0.01, 0.01], 4)
        assert min(alloc) >= 1
        assert sum(alloc) == 4

    def test_zero_weight_site_gets_zero(self):
        alloc = proportional_allocation([0.7, 0.3, 0.0], 10)
        assert alloc[2] == 0

    @given(
        k=st.integers(min_value=1, max_value=10),
        total=st.integers(min_value=10, max_value=100),
        seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=100)
    def test_invariants(self, k, total, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        w = rng.random(k) + 0.01
        alloc = proportional_allocation(list(w), total)
        assert sum(alloc) == total
        assert all(a >= 1 for a in alloc)

    def test_validation(self):
        with pytest.raises(ValueError):
            proportional_allocation([], 5)
        with pytest.raises(ValueError):
            proportional_allocation([0.0, 0.0], 5)
        with pytest.raises(ValueError):
            proportional_allocation([1.0, 1.0, 1.0], 2)


class TestSquareRootStaffing:
    def test_basic_formula(self):
        from repro.core.capacity import square_root_staffing

        # a = 100, beta = 2: 100 + 20 = 120.
        assert square_root_staffing(100.0, 1.0, beta=2.0) == 120

    def test_probability_of_wait_stays_bounded_across_scales(self):
        """Halfin-Whitt: fixed beta keeps Erlang-C P(wait) ~ stable."""
        from repro.core.capacity import square_root_staffing
        from repro.queueing.mmk import erlang_c

        waits = []
        for lam in (20.0, 200.0, 2000.0):
            c = square_root_staffing(lam, 1.0, beta=1.0)
            waits.append(erlang_c(c, lam))
        # All within a modest band (they converge to a constant).
        assert max(waits) - min(waits) < 0.25
        assert all(0.05 < w < 0.6 for w in waits)

    def test_pooling_efficiency(self):
        """One pooled system staffs less than k sites for the same beta."""
        from repro.core.capacity import square_root_staffing

        lam, mu, k = 100.0, 1.0, 10
        pooled = square_root_staffing(lam, mu, beta=2.0)
        split = k * square_root_staffing(lam / k, mu, beta=2.0)
        assert pooled < split

    def test_edge_cases_and_validation(self):
        from repro.core.capacity import square_root_staffing

        assert square_root_staffing(0.0, 1.0) == 1
        with pytest.raises(ValueError):
            square_root_staffing(-1.0, 1.0)
        with pytest.raises(ValueError):
            square_root_staffing(1.0, 0.0)
        with pytest.raises(ValueError):
            square_root_staffing(1.0, 1.0, beta=-0.5)


class TestScenario:
    def test_paper_constants(self):
        assert NEARBY_CLOUD.cloud_rtt_ms == 15.0
        assert TYPICAL_CLOUD.cloud_rtt_ms == 24.0
        assert DISTANT_CLOUD.cloud_rtt_ms == 54.0
        assert TRANSCONTINENTAL_CLOUD.cloud_rtt_ms == 80.0
        assert [s.cloud_rtt_ms for s in PAPER_SCENARIOS] == sorted(
            s.cloud_rtt_ms for s in PAPER_SCENARIOS
        )

    def test_delta_n(self):
        assert TYPICAL_CLOUD.delta_n == pytest.approx(0.023)

    def test_derived_fleet_shape(self):
        s = TYPICAL_CLOUD
        assert s.cloud_machines == 5
        assert s.cloud_servers == 5 * s.service.cores
        s2 = s.with_machines(2)
        assert s2.cloud_machines == 10
        assert s2.edge_servers_per_site == 2 * s.service.cores

    def test_utilization_roundtrip(self):
        s = TYPICAL_CLOUD
        assert s.utilization(8.0) == pytest.approx(8.0 / 13.0)
        assert s.rate_for_utilization(0.5) == pytest.approx(6.5)
        with pytest.raises(ValueError):
            s.rate_for_utilization(1.0)

    def test_latency_models(self):
        assert TYPICAL_CLOUD.cloud_latency().mean_rtt_ms == pytest.approx(24.0)
        assert TYPICAL_CLOUD.edge_latency().mean_rtt_ms == pytest.approx(1.0)

    def test_with_sites(self):
        assert TYPICAL_CLOUD.with_sites(8).cloud_machines == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            Scenario(name="bad", cloud_rtt_ms=1.0, edge_rtt_ms=1.0)
        with pytest.raises(ValueError, match="RTTs must be finite, got cloud_rtt_ms=nan"):
            Scenario(name="bad", cloud_rtt_ms=float("nan"))
        with pytest.raises(ValueError, match="RTTs must be finite, got cloud_rtt_ms=inf"):
            Scenario(name="bad", cloud_rtt_ms=float("inf"))
        with pytest.raises(ValueError, match="RTTs must be finite.*edge_rtt_ms=nan"):
            Scenario(name="bad", cloud_rtt_ms=24.0, edge_rtt_ms=float("nan"))
        with pytest.raises(ValueError):
            Scenario(name="bad", cloud_rtt_ms=10.0, sites=0)
