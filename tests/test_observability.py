"""Tests for the live observability layer (repro.obs).

Covers the four subsystems — exact latency percentiles, span tracing,
windowed collection, exporters/schema — plus the acceptance invariant
for the whole layer: span decompositions reconcile exactly with the
request log, and enabling telemetry never changes simulation results.
"""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro import obs
from repro.experiments.config import ExperimentConfig
from repro.experiments.telemetry import pulse_timeline
from repro.obs.spans import SERVING_SPANS, Span, SpanRecorder
from repro.obs.windows import WindowedCollector
from repro.queueing.distributions import Exponential
from repro.sim.network import ConstantLatency
from repro.sim.runner import run_deployment
from repro.stats.refusals import RefusalCounts

TINY = ExperimentConfig(requests_per_site=2_000, azure_duration=600.0, seed=7)


def _small_run(**kwargs):
    """A quick saturating edge run used by several tests."""
    return run_deployment(
        "edge",
        sites=2,
        servers_per_site=1,
        rate_per_site=6.0,
        service_dist=Exponential(1.0 / 8.0),
        latency=ConstantLatency.from_ms(10.0),
        duration=60.0,
        seed=11,
        warmup_fraction=0.0,
        **kwargs,
    )


# ---------------------------------------------------------------------------
# Exact latency percentiles
# ---------------------------------------------------------------------------


class TestExactQuantiles:
    """Window and whole-run p50/p95 are exact over the served requests."""

    @pytest.fixture(scope="class")
    def observed(self):
        exporter = obs.InMemoryExporter()
        with obs.installed(lambda: obs.Telemetry(window=5.0, exporters=[exporter])):
            breakdown = _small_run()
        return breakdown, exporter

    def test_window_percentiles_are_exact(self, observed):
        bd, exporter = observed
        done = bd.created + bd.end_to_end
        windows = exporter.windows
        assert len(windows) > 5
        for w in windows:
            served = bd.end_to_end[(done > w["t_start"]) & (done <= w["t_end"])]
            assert served.size == w["completed"]
            if not served.size:
                continue
            p50, p95 = np.quantile(served, (0.5, 0.95))
            assert w["latency"]["p50"] == pytest.approx(p50, rel=1e-12)
            assert w["latency"]["p95"] == pytest.approx(p95, rel=1e-12)

    def test_summary_percentiles_are_exact(self, observed):
        bd, exporter = observed
        metrics = exporter.summary["metrics"]
        assert metrics["latency.end_to_end.count"] == len(bd)
        p50, p95 = np.quantile(bd.end_to_end, (0.5, 0.95))
        assert metrics["latency.end_to_end.p50"] == pytest.approx(p50, rel=1e-12)
        assert metrics["latency.end_to_end.p95"] == pytest.approx(p95, rel=1e-12)

    def test_no_served_request_reports_null_percentiles(self):
        metrics = obs.Telemetry(window=1.0).finish()["metrics"]
        assert metrics["latency.end_to_end.count"] == 0
        for key in ("mean", "p50", "p95"):
            assert metrics[f"latency.end_to_end.{key}"] is None


class TestP2Quantile:
    """A streamed latency's percentiles are numpy's, not an estimate.

    The class keeps the name of the P2 streaming estimator that the
    retained latency buffer replaced, so these case ids stay stable.
    """

    @pytest.mark.parametrize("q", [0.5, 0.9, 0.95, 0.99])
    @pytest.mark.parametrize(
        "sampler",
        [
            lambda rng, n: rng.normal(10.0, 2.0, n),
            lambda rng, n: rng.exponential(1.0, n),
            lambda rng, n: rng.uniform(0.0, 1.0, n),
        ],
        ids=["normal", "exponential", "uniform"],
    )
    def test_tracks_numpy_percentile(self, q, sampler):
        rng = np.random.default_rng(42)
        data = sampler(rng, 20_000)
        collector = WindowedCollector(dt=1.0)
        for x in data:
            collector.record_success(
                SimpleNamespace(end_to_end=x, network_time=0.0, wait=0.0, service_time=x)
            )
        record = collector.flush()
        assert record["completed"] == data.size
        exact = np.percentile(data, q * 100.0)
        assert np.quantile(collector.latencies, q) == pytest.approx(exact, rel=1e-12)
        reported = {0.5: "p50", 0.95: "p95"}.get(q)
        if reported:
            assert record["latency"][reported] == pytest.approx(exact, rel=1e-12)


class TestMetricsRegistry:
    def test_snapshot_pulls_each_reader_and_names_register_once(self):
        registry = obs.MetricsRegistry()
        level = [1]
        registry.gauge("station.s0.queue_length", lambda: level[0])
        level[0] = 3
        assert registry.snapshot() == {"station.s0.queue_length": 3.0}
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("station.s0.queue_length", lambda: 0)


# ---------------------------------------------------------------------------
# Span tracing
# ---------------------------------------------------------------------------


class TestSpans:
    def test_serving_spans_tile_every_request(self):
        exporter = obs.InMemoryExporter()
        with obs.installed(
            lambda: obs.Telemetry(window=5.0, spans=True, exporters=[exporter])
        ):
            from repro.sim.engine import Simulation

            sim = Simulation(3)
            from repro.sim.topology import EdgeDeployment, EdgeSite
            from repro.sim.client import OpenLoopSource

            site = EdgeSite(
                sim, "s0", 1, ConstantLatency.from_ms(10.0), Exponential(1.0 / 8.0)
            )
            edge = EdgeDeployment(sim, [site])
            OpenLoopSource(sim, edge, Exponential(1.0 / 5.0), site="s0", stop_time=40.0)
            sim.run()
            tel = sim.telemetry
        assert tel.completed == len(edge.log.requests) > 0
        sums: dict[int, float] = {}
        for span in tel.spans.spans:
            if span.name in SERVING_SPANS:
                sums[span.rid] = sums.get(span.rid, 0.0) + span.duration
        for r in edge.log.requests:
            assert sums[r.rid] == pytest.approx(r.end_to_end, abs=1e-12)

    def test_decompose_matches_request_components(self):
        rec = SpanRecorder()
        rec.record(Span(1, 1, "net.out", 0.0, 0.01))
        rec.record(Span(1, 1, "queue", 0.01, 0.05))
        rec.record(Span(1, 1, "service", 0.05, 0.15))
        rec.record(Span(1, 1, "net.back", 0.15, 0.16))
        d = rec.decompose(1)
        assert d["net.out"] + d["net.back"] == pytest.approx(0.02)  # n
        assert d["queue"] == pytest.approx(0.04)  # w
        assert d["service"] == pytest.approx(0.10)  # s


# ---------------------------------------------------------------------------
# E12 acceptance: windowed telemetry through the admission pulse
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def pulse():
    return pulse_timeline(
        TINY,
        base_rate=6.0,
        pulse_rate=12.0,
        duration=180.0,
        pulse_start=60.0,
        pulse_len=30.0,
        window=10.0,
    )


class TestPulseTimeline:
    def test_span_log_reconciliation_is_exact(self, pulse):
        assert pulse.max_reconciliation_error < 1e-9

    def test_windows_account_for_every_completion(self, pulse):
        assert sum(r.completed for r in pulse.rows) == pulse.completed > 0

    def test_windows_account_for_every_refusal(self, pulse):
        refused = sum(r.rejected + r.dropped + r.shed for r in pulse.rows)
        assert refused == pulse.refused_total

    def test_pulse_windows_show_the_overload(self, pulse):
        pulsing = [
            r for r in pulse.rows if r.t_start < pulse.pulse_end and r.t_end > pulse.pulse_start
        ]
        calm = [r for r in pulse.rows if r.t_end <= pulse.pulse_start]
        assert pulsing and calm
        assert max(r.rejected for r in pulsing) > max(r.rejected for r in calm)

    def test_admission_limit_sampled_per_window(self, pulse):
        in_run = [r for r in pulse.rows if r.t_end <= pulse.duration]
        assert all(r.admission_limit is not None for r in in_run)


# ---------------------------------------------------------------------------
# Exporters and the JSON-lines schema
# ---------------------------------------------------------------------------


class TestExportersAndSchema:
    def test_jsonl_roundtrip_validates(self, tmp_path):
        path = tmp_path / "tel.jsonl"
        exporter = obs.JsonLinesExporter(path)
        with obs.installed(
            lambda: obs.Telemetry(window=10.0, exporters=[exporter], label="t/1")
        ):
            _small_run()
        exporter.close()
        assert exporter.records > 0
        count = obs.validate_telemetry_file(path)
        assert count == exporter.records
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records[-1]["type"] == "summary"
        assert all(r["run"] == "t/1" for r in records)

    def test_empty_run_still_leaves_a_file(self, tmp_path):
        path = tmp_path / "none.jsonl"
        exporter = obs.JsonLinesExporter(path)
        exporter.close()
        assert path.exists() and path.read_text() == ""

    def test_schema_rejects_malformed_records(self):
        with pytest.raises(obs.SchemaError):
            obs.validate_record({"type": "window"})  # missing required keys
        with pytest.raises(obs.SchemaError):
            obs.validate_record({"type": "mystery"})
        good = {
            "type": "window",
            "t_start": 0.0,
            "t_end": 1.0,
            "completed": 1,
            "throughput": 1.0,
            "latency": {"count": 1, "mean": 0.1, "p50": 0.1, "p95": 0.1},
            "sums": {"net": 0.02, "wait": 0.04, "service": 0.04, "end_to_end": 0.1},
            "refused": {"rejected": 0, "dropped": 0, "shed": 0},
            "failed_operations": 0,
            "stations": {},
        }
        obs.validate_record(good)
        bad = dict(good, completed=-1)
        with pytest.raises(obs.SchemaError):
            obs.validate_record(bad)


# ---------------------------------------------------------------------------
# Enablement model
# ---------------------------------------------------------------------------


class TestEnablement:
    def test_enabled_results_identical_to_disabled(self):
        baseline = _small_run()
        with obs.installed(lambda: obs.Telemetry(window=5.0)):
            observed = _small_run()
        np.testing.assert_array_equal(baseline.end_to_end, observed.end_to_end)
        np.testing.assert_array_equal(baseline.wait, observed.wait)
        np.testing.assert_array_equal(baseline.network, observed.network)

    @pytest.mark.parametrize("dt", [0.0, -1.0, float("nan"), float("inf")])
    def test_window_must_be_finite_and_positive(self, dt):
        # A NaN window would schedule its tick at NaN and scramble the
        # calendar, so telemetry would change the run it observes.
        with pytest.raises(ValueError, match="dt must be finite and > 0"):
            WindowedCollector(dt)
        with pytest.raises(ValueError, match="dt must be finite and > 0"):
            obs.Telemetry(window=dt)

    def test_nothing_installed_means_no_telemetry(self):
        from repro.sim.engine import Simulation

        assert obs.current_telemetry() is None
        assert Simulation(0).telemetry is None

    def test_install_uninstall(self):
        obs.install(lambda: obs.Telemetry(window=1.0))
        try:
            assert obs.current_telemetry() is not None
        finally:
            obs.uninstall()
        assert obs.current_telemetry() is None

    def test_telemetry_is_per_simulation(self):
        from repro.sim.engine import Simulation

        with obs.installed(lambda: obs.Telemetry(window=1.0)):
            a, b = Simulation(0), Simulation(1)
        assert a.telemetry is not None and a.telemetry is not b.telemetry
        tel = obs.Telemetry(window=1.0)
        tel.bind(a)
        with pytest.raises(ValueError):
            tel.bind(b)


# ---------------------------------------------------------------------------
# RefusalCounts consolidation
# ---------------------------------------------------------------------------


class TestRefusalCounts:
    def test_arithmetic_and_rate(self):
        a = RefusalCounts(rejected=1, dropped=2, shed=3)
        b = RefusalCounts(rejected=10)
        assert (a + b).total == 16
        assert sum([a, b]) == a + b  # __radd__ from int 0
        assert a.rate(12) == pytest.approx(0.5)
        assert RefusalCounts().rate(0) == 0.0
        assert not RefusalCounts() and bool(a)
        assert a.as_dict() == {"rejected": 1, "dropped": 2, "shed": 3}
        assert str(a) == "rej=1 drop=2 shed=3"

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            RefusalCounts(rejected=-1)

    def test_all_sources_agree_on_a_run(self):
        from repro.sim.engine import Simulation
        from repro.sim.topology import EdgeDeployment, EdgeSite
        from repro.sim.client import OpenLoopSource
        from repro.mitigation.admission import OccupancyAdmission

        sim = Simulation(5)
        site = EdgeSite(
            sim,
            "s0",
            1,
            ConstantLatency.from_ms(5.0),
            Exponential(1.0 / 4.0),
            queue_capacity=3,
            admission=OccupancyAdmission(limit=4),
        )
        edge = EdgeDeployment(sim, [site])
        OpenLoopSource(sim, edge, Exponential(1.0 / 10.0), site="s0", stop_time=60.0)
        sim.run()
        station = site.station
        assert station.refusal_counts.total > 0
        assert station.refusal_counts == RefusalCounts.from_station(station)
        assert edge.refusal_counts == station.refusal_counts


# ---------------------------------------------------------------------------
# RequestLog breakdown memoization
# ---------------------------------------------------------------------------


class TestRequestLogCache:
    def test_breakdown_is_cached_until_log_grows(self):
        breakdown = _small_run()
        assert len(breakdown) > 0  # sanity: the helper produced data

        from repro.sim.engine import Simulation
        from repro.sim.topology import EdgeDeployment, EdgeSite
        from repro.sim.client import OpenLoopSource

        sim = Simulation(9)
        site = EdgeSite(sim, "s0", 1, ConstantLatency.from_ms(5.0), Exponential(1.0 / 8.0))
        edge = EdgeDeployment(sim, [site])
        OpenLoopSource(sim, edge, Exponential(1.0 / 4.0), site="s0", stop_time=20.0)
        sim.run(until=10.0)
        first = edge.log.breakdown()
        assert edge.log.breakdown() is first  # memoized, same object
        n = len(first)
        sim.run()  # more completions arrive
        second = edge.log.breakdown()
        assert second is not first and len(second) > n
        assert edge.log.breakdown() is second
