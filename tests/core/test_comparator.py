"""Tests for the EdgeCloudComparator (analytic + measured comparison)."""

import functools

import numpy as np
import pytest

from repro.core import comparator
from repro.core.comparator import ComparisonResult, EdgeCloudComparator, SweepPoint
from repro.core.scenarios import DISTANT_CLOUD, TYPICAL_CLOUD
from repro.sim.loadbalancer import RoundRobin
from repro.stats.summary import LatencySummary, summarize


def count_measure_point(monkeypatch):
    """Rates ``EdgeCloudComparator.measure_point`` is called with, in order.

    The wrapper keeps the method's qualified name, so journal keys (which
    name the callable) are unchanged.  Only in-process (serial) calls are
    seen.
    """
    rates = []
    raw = EdgeCloudComparator.measure_point

    @functools.wraps(raw)
    def counting(self, rate_per_site, seed_offset=0):
        rates.append(rate_per_site)
        return raw(self, rate_per_site, seed_offset)

    monkeypatch.setattr(EdgeCloudComparator, "measure_point", counting)
    return rates


def make_summary(mean, p95):
    return LatencySummary(
        count=100, mean=mean, std=0.0, p25=mean, p50=mean, p75=mean,
        p95=p95, p99=p95, min=mean, max=p95,
    )


def make_result(gaps_mean):
    """Build a ComparisonResult with prescribed mean gaps at rates 1..n."""
    points = []
    for i, g in enumerate(gaps_mean):
        points.append(
            SweepPoint(
                rate_per_site=float(i + 1),
                utilization=(i + 1) / 13.0,
                edge=make_summary(0.1 + g, 0.2 + g),
                cloud=make_summary(0.1, 0.2),
            )
        )
    return ComparisonResult(scenario=TYPICAL_CLOUD, points=tuple(points))


class TestCrossoverMath:
    def test_interpolated_crossover(self):
        res = make_result([-0.02, -0.01, 0.01])
        # Sign change between rates 2 and 3, exactly halfway.
        assert res.crossover_rate("mean") == pytest.approx(2.5)

    def test_no_crossover_returns_none(self):
        res = make_result([-0.03, -0.02, -0.01])
        assert res.crossover_rate("mean") is None
        assert res.crossover_utilization("mean") is None

    def test_already_inverted_returns_first_rate(self):
        res = make_result([0.01, 0.02])
        assert res.crossover_rate("mean") == 1.0

    def test_crossover_utilization_uses_scenario(self):
        res = make_result([-0.01, 0.01])
        rho = res.crossover_utilization("mean")
        assert rho == pytest.approx(TYPICAL_CLOUD.utilization(1.5))

    def test_series_shapes(self):
        res = make_result([-0.01, 0.0, 0.01])
        rates, edge, cloud = res.series("p95")
        assert rates.shape == edge.shape == cloud.shape == (3,)


@pytest.fixture(scope="module")
def typical_cmp():
    return EdgeCloudComparator(TYPICAL_CLOUD, requests_per_site=40_000, seed=5)


class TestMeasurement:
    def test_point_has_both_sides(self, typical_cmp):
        p = typical_cmp.measure_point(8.0)
        assert p.utilization == pytest.approx(8.0 / 13.0)
        assert p.edge.count > 10_000
        # The cloud serves the same aggregate workload as all edge sites.
        assert p.cloud.count == pytest.approx(p.edge.count, rel=0.05)

    def test_low_rate_edge_wins_high_rate_cloud_wins(self, typical_cmp):
        low = typical_cmp.measure_point(3.0)
        high = typical_cmp.measure_point(12.0)
        assert low.gap("mean") < 0
        assert high.gap("mean") > 0

    def test_network_floor_visible_at_low_load(self, typical_cmp):
        p = typical_cmp.measure_point(2.0)
        # At rho=0.15 waits are tiny: cloud mean ≈ service + 24 ms.
        assert p.cloud.mean - p.edge.mean == pytest.approx(0.023, abs=0.005)

    @pytest.mark.parametrize("policy", [None, "round-robin", "jsq"])
    def test_point_summarizes_the_warm_requests(self, policy, monkeypatch):
        """A point summarizes exactly ``after(cut).end_to_end`` of each side."""
        records = []
        for name in ("simulate_edge_system", "simulate_single_queue_system",
                     "simulate_lb_system"):
            raw = getattr(comparator, name)

            def recording(*args, _raw=raw, **kwargs):
                records.append(_raw(*args, **kwargs))
                return records[-1]

            monkeypatch.setattr(comparator, name, recording)
        cmp_ = EdgeCloudComparator(
            TYPICAL_CLOUD, requests_per_site=3_000, seed=11, cloud_policy=policy
        )
        for u in (0.3, 0.6, 0.9):
            records.clear()
            rate = TYPICAL_CLOUD.rate_for_utilization(u)
            point = cmp_.measure_point(rate)
            edge, cloud = records
            cut = cmp_.warmup_fraction * cloud.created[-1]
            assert point == SweepPoint(
                rate_per_site=rate,
                utilization=TYPICAL_CLOUD.utilization(rate),
                edge=summarize(edge.after(cut).end_to_end),
                cloud=summarize(cloud.after(cut).end_to_end),
            )
            assert 0 < point.edge.count < len(edge)
            assert 0 < point.cloud.count < len(cloud)

    def test_saturating_rate_rejected(self, typical_cmp):
        with pytest.raises(ValueError):
            typical_cmp.measure_point(13.5)
        with pytest.raises(ValueError):
            typical_cmp.measure_point(0.0)
        with pytest.raises(ValueError, match="rate_per_site must be finite and > 0, got nan"):
            typical_cmp.measure_point(float("nan"))
        with pytest.raises(ValueError, match="rate_per_site must be finite and > 0, got inf"):
            typical_cmp.measure_point(float("inf"))

    def test_sweep_checks_every_rate_before_measuring(self, monkeypatch):
        measured = count_measure_point(monkeypatch)
        cmp_ = EdgeCloudComparator(TYPICAL_CLOUD, requests_per_site=1000, seed=5)
        with pytest.raises(ValueError, match="saturates a site"):
            cmp_.sweep([6.0, 13.5])
        with pytest.raises(ValueError, match="got nan"):
            cmp_.sweep([6.0, float("nan")], until=("mean",))
        assert measured == []

    def test_sweep_and_crossover_near_paper_value(self):
        cmp_ = EdgeCloudComparator(TYPICAL_CLOUD, requests_per_site=60_000, seed=6)
        res = cmp_.sweep([6, 7, 8, 9, 10])
        rate = res.crossover_rate("mean")
        # Paper Figure 3: crossover at 8 req/s (k=5).
        assert rate == pytest.approx(8.0, abs=1.2)

    def test_tail_crossover_before_mean(self):
        cmp_ = EdgeCloudComparator(DISTANT_CLOUD, requests_per_site=60_000, seed=7)
        res = cmp_.sweep([6, 7, 8, 9, 10, 11, 12])
        mean_x = res.crossover_rate("mean")
        tail_x = res.crossover_rate("p95")
        assert tail_x is not None and mean_x is not None
        # Paper Figure 5's insight: tail inversion strictly earlier.
        assert tail_x < mean_x

    def test_empty_sweep_rejected(self, typical_cmp):
        with pytest.raises(ValueError):
            typical_cmp.sweep([])


#: The Figure 7 grid: 13 utilizations from 0.15 to 0.948.
FIG7_GRID = np.arange(0.15, 0.97, 0.0665)


def first_inverted(points, metric):
    return next(i for i, p in enumerate(points) if p.gap(metric) > 0)


class TestSweepUntil:
    """``sweep(until=)`` returns the full sweep's prefix up to its crossovers."""

    RATES = [TYPICAL_CLOUD.rate_for_utilization(float(u)) for u in FIG7_GRID]

    @pytest.fixture(scope="class")
    def cmp_(self):
        return EdgeCloudComparator(TYPICAL_CLOUD, requests_per_site=2000, seed=5)

    @pytest.fixture(scope="class")
    def full(self, cmp_):
        full = cmp_.sweep(self.RATES)
        # The metrics invert at different points, so each stop is its own.
        assert first_inverted(full.points, "p95") < first_inverted(full.points, "mean")
        assert first_inverted(full.points, "mean") < len(self.RATES) - 1
        return full

    @pytest.mark.parametrize("until", [("mean",), ("p95",), ("mean", "p95")])
    def test_prefix_up_to_the_crossovers(self, cmp_, full, until, monkeypatch):
        measured = count_measure_point(monkeypatch)
        stop = max(first_inverted(full.points, m) for m in until)
        result = cmp_.sweep(self.RATES, until=until)
        assert result.points == full.points[: stop + 1]
        assert len(result.points) == stop + 1
        assert measured == self.RATES[: stop + 1]
        for metric in until:
            assert result.crossover_rate(metric) == full.crossover_rate(metric)
            assert result.crossover_utilization(metric) == full.crossover_utilization(metric)
        assert cmp_.sweep(self.RATES, until=until, workers=2).points == result.points

    def test_never_inverted_measures_every_rate(self, monkeypatch):
        measured = count_measure_point(monkeypatch)
        cmp_ = EdgeCloudComparator(DISTANT_CLOUD, requests_per_site=1000, seed=3)
        rates = [DISTANT_CLOUD.rate_for_utilization(u) for u in (0.1, 0.2, 0.3)]
        result = cmp_.sweep(rates, until=("mean", "p95"))
        assert measured == rates
        assert result.points == cmp_.sweep(rates).points
        assert result.crossover_rate("mean") is None

    def test_inverted_at_first_rate_returns_one_point(self, monkeypatch):
        measured = count_measure_point(monkeypatch)
        cmp_ = EdgeCloudComparator(TYPICAL_CLOUD, requests_per_site=1000, seed=3)
        rates = [TYPICAL_CLOUD.rate_for_utilization(u) for u in (0.9, 0.92, 0.94)]
        result = cmp_.sweep(rates, until=("mean", "p95"))
        assert len(result.points) == 1 and measured == rates[:1]
        assert result.crossover_rate("mean") == rates[0]

    def test_failed_point_raises_its_own_error(self, monkeypatch):
        def fail(self, rate_per_site, seed_offset=0):
            raise RuntimeError(f"point {seed_offset} failed")

        monkeypatch.setattr(EdgeCloudComparator, "measure_point", fail)
        cmp_ = EdgeCloudComparator(TYPICAL_CLOUD, requests_per_site=1000, seed=3)
        with pytest.raises(RuntimeError, match="point 0 failed"):
            cmp_.sweep(self.RATES, until=("mean",))

    def test_unknown_metric_rejected_before_measuring(self, monkeypatch):
        measured = count_measure_point(monkeypatch)
        cmp_ = EdgeCloudComparator(TYPICAL_CLOUD, requests_per_site=1000, seed=3)
        with pytest.raises(ValueError, match=r"until names unknown metrics \['p97'\]"):
            cmp_.sweep(self.RATES, until=("mean", "p97"))
        with pytest.raises(ValueError, match="unknown metrics"):
            cmp_.find_crossover("median")
        assert measured == []


class TestPrediction:
    def test_predicted_cutoff_in_range(self, typical_cmp):
        rho = typical_cmp.predict_cutoff_utilization()
        assert 0.3 < rho < 0.9

    def test_prediction_close_to_measurement(self):
        """§4.2's validation: analytic cutoff within ~10% of measured."""
        cmp_ = EdgeCloudComparator(TYPICAL_CLOUD, requests_per_site=60_000, seed=8)
        predicted = cmp_.predict_cutoff_utilization()
        _, measured = cmp_.find_crossover(
            "mean", utilizations=np.arange(0.4, 0.85, 0.05)
        )
        assert measured is not None
        assert measured == pytest.approx(predicted, rel=0.15)

    def test_distant_cloud_has_higher_cutoff(self):
        near = EdgeCloudComparator(TYPICAL_CLOUD).predict_cutoff_utilization()
        far = EdgeCloudComparator(DISTANT_CLOUD).predict_cutoff_utilization()
        assert far > near


class TestValidationArgs:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            EdgeCloudComparator(TYPICAL_CLOUD, requests_per_site=10)
        with pytest.raises(ValueError):
            EdgeCloudComparator(TYPICAL_CLOUD, arrival_cv2=-1.0)
        with pytest.raises(ValueError, match="arrival_cv2 must be finite and >= 0, got nan"):
            EdgeCloudComparator(TYPICAL_CLOUD, arrival_cv2=float("nan"))
        with pytest.raises(ValueError):
            EdgeCloudComparator(TYPICAL_CLOUD, warmup_fraction=1.0)
        with pytest.raises(ValueError):
            EdgeCloudComparator(TYPICAL_CLOUD, engine="auto")
        with pytest.raises(ValueError):
            EdgeCloudComparator(TYPICAL_CLOUD, cloud_policy=RoundRobin())
