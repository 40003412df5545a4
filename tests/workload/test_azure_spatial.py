"""Tests for the synthetic Azure workload and spatial skew models."""

import numpy as np
import pytest

from repro.workload.azure import (
    AzureTraceConfig,
    generate_azure_workload,
    group_functions_into_sites,
)
from repro.workload.spatial import HotspotGrid, zipf_weights
from repro.workload.trace import RequestTrace

SMALL = AzureTraceConfig(n_functions=20, duration=1800.0, total_rate=30.0)


@pytest.fixture(scope="module")
def workload():
    return generate_azure_workload(SMALL, np.random.default_rng(7))


class TestAzureGenerator:
    def test_one_trace_per_function(self, workload):
        assert len(workload) == 20
        assert sorted(f.function_id for f in workload) == list(range(20))

    def test_total_rate_approximate(self, workload):
        total = sum(len(f) for f in workload)
        assert total / SMALL.duration == pytest.approx(SMALL.total_rate, rel=0.35)

    def test_traces_have_service_times(self, workload):
        for f in workload:
            if len(f) > 0:
                assert f.trace.service_times is not None
                assert np.all(f.trace.service_times > 0)

    def test_popularity_is_heavy_tailed(self, workload):
        counts = np.array(sorted((len(f) for f in workload), reverse=True))
        # Top 25% of functions should carry well over half the load.
        top = counts[: len(counts) // 4].sum()
        assert top > 0.5 * counts.sum()

    def test_arrivals_within_duration(self, workload):
        for f in workload:
            if len(f) > 0:
                assert f.trace.arrival_times.max() < SMALL.duration
                assert f.trace.arrival_times.min() >= 0.0

    def test_burstier_than_poisson(self):
        cfg = AzureTraceConfig(n_functions=3, duration=7200.0, total_rate=30.0)
        fns = generate_azure_workload(cfg, np.random.default_rng(8))
        merged = RequestTrace.merge([f.trace for f in fns])
        assert merged.interarrival_cv2() > 1.0

    def test_reproducible(self):
        a = generate_azure_workload(SMALL, np.random.default_rng(9))
        b = generate_azure_workload(SMALL, np.random.default_rng(9))
        np.testing.assert_array_equal(a[0].trace.arrival_times, b[0].trace.arrival_times)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AzureTraceConfig(n_functions=0)
        with pytest.raises(ValueError):
            AzureTraceConfig(duration=-1.0)
        with pytest.raises(ValueError):
            AzureTraceConfig(diurnal_amplitude=1.0)
        with pytest.raises(ValueError):
            AzureTraceConfig(spike_factor=0.5)
        with pytest.raises(ValueError):
            AzureTraceConfig(spike_prob=1.5)


class TestSiteGrouping:
    def test_partition_is_exhaustive_and_exclusive(self, workload):
        sites = group_functions_into_sites(workload, 5, np.random.default_rng(0))
        assert len(sites) == 5
        total = sum(len(s) for s in sites)
        assert total == sum(len(f) for f in workload)

    def test_sites_see_skewed_load(self, workload):
        sites = group_functions_into_sites(workload, 5, np.random.default_rng(1))
        counts = np.array([len(s) for s in sites], dtype=float)
        assert counts.max() > 1.5 * counts.min()

    def test_k_validation(self, workload):
        with pytest.raises(ValueError):
            group_functions_into_sites(workload, 0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            group_functions_into_sites(workload[:3], 5, np.random.default_rng(0))


class TestZipfWeights:
    def test_balanced_at_zero(self):
        np.testing.assert_allclose(zipf_weights(4, 0.0), 0.25)

    def test_normalized_and_ordered(self):
        w = zipf_weights(5, 1.0)
        assert w.sum() == pytest.approx(1.0)
        assert np.all(np.diff(w) < 0)

    def test_single_site(self):
        np.testing.assert_allclose(zipf_weights(1, 2.0), [1.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            zipf_weights(0, 1.0)
        with pytest.raises(ValueError):
            zipf_weights(3, -1.0)


class TestHotspotGrid:
    def test_weights_normalized(self):
        g = HotspotGrid(rows=6, cols=6, seed=1)
        w = g.cell_weights(3600.0)
        assert w.shape == (36,)
        assert w.sum() == pytest.approx(1.0)

    def test_load_is_spatially_skewed(self):
        """Figure 2's qualitative claim: some cells see far more load."""
        g = HotspotGrid(rows=10, cols=10, seed=2)
        times = np.linspace(0.0, 86_400.0, 24, endpoint=False)
        loads = g.sample_cell_loads(np.random.default_rng(0), 200.0, times, 60.0)
        stats = g.skew_statistics(loads)
        assert stats["max_over_mean"] > 2.5
        assert stats["cell_cv"] > 0.6

    def test_hotspots_drift_over_day(self):
        g = HotspotGrid(rows=8, cols=8, drift_radius=3.0, seed=3)
        w_day = g.cell_weights(0.0)
        w_night = g.cell_weights(43_200.0)
        assert int(np.argmax(w_day)) != int(np.argmax(w_night))

    def test_sample_shape(self):
        g = HotspotGrid(rows=4, cols=5, seed=4)
        loads = g.sample_cell_loads(np.random.default_rng(1), 50.0, np.arange(3.0), 60.0)
        assert loads.shape == (20, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            HotspotGrid(rows=0)
        with pytest.raises(ValueError):
            HotspotGrid(baseline=1.0)
        with pytest.raises(ValueError):
            HotspotGrid(hotspot_sigma=0.0)
        g = HotspotGrid(rows=3, cols=3)
        with pytest.raises(ValueError):
            g.cell_weights(0.0, period=0.0)
        with pytest.raises(ValueError):
            g.sample_cell_loads(np.random.default_rng(0), 0.0, np.arange(2.0), 60.0)
        with pytest.raises(ValueError):
            g.skew_statistics(np.zeros((5, 2)))
