"""Tests for the multi-region geographic comparison."""

import numpy as np
import pytest

from repro.queueing.distributions import Exponential
from repro.sim.geo import Region, simulate_geo_comparison

MU = 13.0
SERVICE = Exponential(1.0 / MU)


def three_regions():
    return [
        Region("metro", weight=0.5, edge_rtt=0.001, cloud_rtt=0.012),
        Region("suburban", weight=0.3, edge_rtt=0.001, cloud_rtt=0.030),
        Region("remote", weight=0.2, edge_rtt=0.002, cloud_rtt=0.090),
    ]


class TestRegion:
    def test_validation(self):
        with pytest.raises(ValueError):
            Region("bad", weight=-1.0, edge_rtt=0.001, cloud_rtt=0.02)
        with pytest.raises(ValueError):
            Region("bad", weight=1.0, edge_rtt=-0.001, cloud_rtt=0.02)
        with pytest.raises(ValueError):
            Region("bad", weight=1.0, edge_rtt=0.02, cloud_rtt=0.01)


class TestGeoComparison:
    @pytest.fixture(scope="class")
    def moderate(self):
        # Total 30 req/s over weights .5/.3/.2 -> per-region rho of
        # 15/13, ... wait: one server per site at mu=13 would overload
        # the metro region, so use 2 servers/site.
        return simulate_geo_comparison(
            three_regions(), total_rate=30.0, service=SERVICE,
            servers_per_site=2, n_per_region_unit=40_000, seed=1,
        )

    def test_all_regions_present(self, moderate):
        means = moderate.region_means()
        assert [name for name, _, _ in means] == ["metro", "suburban", "remote"]
        assert set(np.unique(moderate.cloud.site)) == {0, 1, 2}

    def test_demand_split_respects_weights(self, moderate):
        counts = np.array([len(moderate.edge.for_site(i)) for i in range(3)])
        fractions = counts / counts.sum()
        np.testing.assert_allclose(fractions, [0.5, 0.3, 0.2], atol=0.03)

    def test_cloud_network_time_is_regional(self, moderate):
        for i, region in enumerate(moderate.regions):
            rtts = moderate.cloud.for_site(i).network
            np.testing.assert_allclose(rtts, region.cloud_rtt)

    def test_metro_inverts_first(self):
        """Corollary 3.1.3's regional story: at high utilization the
        region nearest a cloud DC inverts while the remote region's edge
        still wins."""
        result = simulate_geo_comparison(
            three_regions(), total_rate=42.0, service=SERVICE,
            servers_per_site=2, n_per_region_unit=60_000, seed=2,
        )
        # All regions share one pooled cloud, so the cloud wait is tiny;
        # per-site edge waits are substantial at rho ~0.8 (metro).
        inverted = result.inverted_regions()
        assert "metro" in inverted
        assert "remote" not in inverted

    def test_no_inversion_anywhere_at_light_load(self):
        result = simulate_geo_comparison(
            three_regions(), total_rate=8.0, service=SERVICE,
            servers_per_site=2, n_per_region_unit=20_000, seed=3,
        )
        assert result.inverted_regions() == []

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_geo_comparison([], 10.0, SERVICE, 1)
        with pytest.raises(ValueError):
            simulate_geo_comparison(three_regions(), 0.0, SERVICE, 1)
        with pytest.raises(ValueError):
            simulate_geo_comparison(three_regions(), 10.0, SERVICE, 0)
        zero_w = [
            Region("a", weight=0.0, edge_rtt=0.001, cloud_rtt=0.02),
            Region("b", weight=0.0, edge_rtt=0.001, cloud_rtt=0.02),
        ]
        with pytest.raises(ValueError):
            simulate_geo_comparison(zero_w, 10.0, SERVICE, 1)

    def test_rejects_a_zero_weight_region(self):
        """A region without demand gets no workload to simulate."""
        regions = [
            Region("a", weight=1.0, edge_rtt=0.001, cloud_rtt=0.02),
            Region("b", weight=0.0, edge_rtt=0.001, cloud_rtt=0.05),
        ]
        with pytest.raises(ValueError, match="'b'"):
            simulate_geo_comparison(regions, 10.0, SERVICE, 2, n_per_region_unit=1_000)

    @pytest.mark.parametrize("fraction", [-0.5, 1.0, 1.5])
    def test_rejects_warmup_fraction_outside_unit_interval(self, fraction):
        with pytest.raises(ValueError, match="warmup_fraction"):
            simulate_geo_comparison(
                three_regions(), 10.0, SERVICE, 2,
                n_per_region_unit=1_000, warmup_fraction=fraction,
            )
