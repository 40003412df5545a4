"""Wire-schema contract tests: the unified, versioned envelope.

Every result shape that crosses a process boundary — experiment
results, campaign results, golden summaries, salvage reports, telemetry
records — goes through :mod:`repro.experiments.schema`.  These tests
pin the contract: dump→load→dump is a fixed point, unknown keys are
tolerated (forward compatibility), and newer majors and pre-envelope
shapes are refused loudly.
"""

import json
from pathlib import Path

import pytest

from repro.campaign import compile_campaign, load_golden, run_campaign
from repro.experiments import schema as wire
from repro.experiments.config import FAST
from repro.experiments.result import run_experiment

REPO = Path(__file__).resolve().parents[2]


def tiny_doc(**overrides):
    doc = {
        "campaign": "schema-t",
        "seed": 13,
        "defaults": {"duration": 4.0, "sites": 1},
        "scenarios": [
            {"name": "s0", "utilization": 0.4},
            {"name": "s1", "utilization": 0.6},
        ],
        "budgets": {"retries": 0},
    }
    doc.update(overrides)
    return doc


@pytest.fixture(scope="module")
def campaign_result():
    return run_campaign(compile_campaign(tiny_doc()), workers=1)


@pytest.fixture(scope="module")
def experiment_result():
    return run_experiment("validation", FAST)


class TestEnvelope:
    def test_all_kinds_are_enveloped(self, campaign_result, experiment_result):
        docs = {
            "experiment-result": wire.dump_experiment_result(experiment_result),
            "campaign-result": wire.dump_campaign_result(campaign_result),
            "golden-summary": wire.dump_golden_summary(campaign_result),
            "salvage-report": wire.dump_salvage_report(campaign_result),
        }
        for kind, doc in docs.items():
            assert doc["schema_version"] == wire.SCHEMA_VERSION, kind
            assert doc["kind"] == kind
            kind2, _ = wire.parse_envelope(doc)
            assert kind2 == kind
            json.dumps(doc, allow_nan=False)  # strictly JSON-safe

    def test_newer_major_is_refused(self, campaign_result):
        doc = wire.dump_campaign_result(campaign_result)
        doc["schema_version"] = wire.SCHEMA_VERSION + 1
        with pytest.raises(wire.SchemaVersionError, match="schema_version"):
            wire.parse_envelope(doc)

    def test_bad_version_types_are_refused(self):
        for bad in ("1", 0, -3, None):
            with pytest.raises(wire.WireFormatError):
                wire.parse_envelope({"schema_version": bad, "kind": "campaign-result"})

    def test_unknown_kind_is_refused(self):
        with pytest.raises(wire.WireFormatError, match="kind"):
            wire.parse_envelope({"schema_version": 1, "kind": "not-a-kind"})

    def test_expect_mismatch_is_refused(self, campaign_result):
        doc = wire.dump_campaign_result(campaign_result)
        with pytest.raises(wire.WireFormatError, match="expected"):
            wire.parse_envelope(doc, expect="golden-summary")


class TestRoundTrip:
    def test_experiment_result_fixed_point(self, experiment_result):
        d1 = wire.dump_experiment_result(experiment_result)
        loaded = wire.load_experiment_result(json.loads(wire.dumps(d1)))
        d2 = wire.dump_experiment_result(loaded)
        assert d1 == d2

    def test_campaign_result_fixed_point(self, campaign_result):
        d1 = wire.dump_campaign_result(campaign_result)
        loaded = wire.load_campaign_result(json.loads(wire.dumps(d1)))
        d2 = wire.dump_campaign_result(loaded)
        assert d1 == d2
        assert loaded.fingerprint() == campaign_result.fingerprint()

    def test_campaign_result_fingerprint_verified_on_load(self, campaign_result):
        doc = wire.dump_campaign_result(campaign_result)
        runs = doc["runs"]
        name = next(iter(runs))
        metric = next(iter(runs[name]["metrics"]))
        doc["runs"][name]["metrics"][metric] += 1.0
        with pytest.raises(wire.WireFormatError, match="fingerprint"):
            wire.load_campaign_result(doc)

    def test_golden_summary_fixed_point(self, campaign_result):
        d1 = wire.dump_golden_summary(campaign_result)
        canonical = wire.load_golden_summary(json.loads(wire.dumps(d1)))
        # The canonical projection survives a re-parse unchanged.
        assert canonical == wire.load_golden_summary(
            json.loads(json.dumps(d1 | {"extra": 1}))
        )

    def test_unknown_keys_tolerated_everywhere(self, campaign_result):
        for doc in (
            wire.dump_campaign_result(campaign_result),
            wire.dump_golden_summary(campaign_result),
        ):
            doc = dict(doc)
            doc["from_the_future"] = {"nested": [1, 2, 3]}
            wire.load_document(doc)  # must not raise


class TestTelemetry:
    def test_records_are_stamped(self):
        from repro import obs
        from repro.queueing.distributions import Exponential
        from repro.sim.client import OpenLoopSource
        from repro.sim.engine import Simulation
        from repro.sim.network import ConstantLatency
        from repro.sim.topology import EdgeDeployment, EdgeSite

        exporter = obs.InMemoryExporter()
        with obs.installed(lambda: obs.Telemetry(window=5.0, exporters=[exporter])):
            sim = Simulation(3)
            site = EdgeSite(
                sim, "s0", 1, ConstantLatency.from_ms(10.0), Exponential(1.0 / 8.0)
            )
            edge = EdgeDeployment(sim, [site])
            OpenLoopSource(
                sim, edge, Exponential(1.0 / 5.0), site="s0", stop_time=40.0
            )
            sim.run()
            sim.telemetry.finish()
        assert exporter.records, "no telemetry records captured"
        for record in exporter.records:
            assert record["schema_version"] == wire.SCHEMA_VERSION

    def test_newer_telemetry_record_is_refused(self):
        from repro.obs.schema import SchemaError, validate_record

        record = {
            "type": "summary",
            "t_end": 1.0,
            "windows": 0,
            "completed": 0,
            "refused": {"rejected": 0, "dropped": 0, "shed": 0},
            "failed_operations": 0,
            "metrics": {},
            "schema_version": wire.SCHEMA_VERSION + 1,
        }
        with pytest.raises(SchemaError, match="schema_version"):
            validate_record(record)

    def test_stamped_record_loads_through_load_document(self):
        record = wire.stamp_telemetry({"type": "window", "t_start": 0.0, "t_end": 5.0})
        assert wire.load_document(record) is record
        assert wire.parse_envelope(record)[0] == "telemetry-window"


class TestLegacyArtifacts:
    def test_shipped_golden_still_loads(self):
        """The golden pinned in-repo loads clean."""
        path = REPO / "scenarios" / "golden" / "expected.json"
        expected = load_golden(path)
        assert expected["campaign"] == "golden"
        assert expected["seed"] == 2021
        assert len(expected["scenarios"]) == 8
        assert expected["quarantined"] == []

    @pytest.mark.parametrize(
        "shape", ["golden-magic", "bare-as-dict", "unstamped-telemetry"]
    )
    def test_pre_envelope_document_is_refused(
        self, shape, campaign_result, experiment_result
    ):
        if shape == "golden-magic":
            doc = wire.dump_golden_summary(campaign_result)
            doc |= {"magic": "repro-golden", "version": 1}
        elif shape == "bare-as-dict":
            doc = wire.dump_experiment_result(experiment_result)
        else:
            doc = {"type": "summary", "t_end": 1.0, "windows": 0}
        doc = {k: v for k, v in doc.items() if k not in ("schema_version", "kind")}
        with pytest.raises(wire.WireFormatError, match="schema_version"):
            wire.load_document(doc)

    def test_garbage_is_refused(self):
        with pytest.raises(wire.WireFormatError):
            wire.load_document({"hello": "world"})
        with pytest.raises(wire.WireFormatError):
            wire.load_document([1, 2, 3])


class TestFileHelpers:
    def test_dump_and_load(self, tmp_path, campaign_result):
        path = tmp_path / "result.json"
        wire.dump(campaign_result, path)
        loaded = wire.load(path)
        assert loaded.fingerprint() == campaign_result.fingerprint()

    def test_dumps_is_canonical(self, campaign_result):
        doc = wire.dump_campaign_result(campaign_result)
        assert wire.dumps(doc) == wire.dumps(dict(reversed(list(doc.items()))))
