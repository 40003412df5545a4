"""Campaign runner: budgets, quarantine, resume, stats, golden diffs."""

import gc
import json
import weakref

import pytest

import repro.campaign.executor as executor
from repro.campaign import (
    GoldenTolerance,
    campaign_stats,
    compile_campaign,
    diff_golden,
    load_golden,
    run_campaign,
    write_golden,
)


def tiny_doc(**overrides):
    doc = {
        "campaign": "runner-t",
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


class TestQuarantine:
    def test_invalid_config_quarantined_not_fatal(self):
        doc = tiny_doc()
        doc["scenarios"].insert(1, {"name": "bad", "rate_per_site": 99.0})
        result = run_campaign(compile_campaign(doc), workers=1)
        assert sorted(result.runs) == ["s0", "s1"]
        (q,) = result.quarantined
        assert (q.name, q.reason) == ("bad", "invalid-config")
        assert "diverges" in q.detail
        assert not result.ok

    def test_event_budget_quarantines_deterministically(self):
        doc = tiny_doc(budgets={"retries": 1, "max_events": 25})
        # Both scenarios generate far more than 25 events in 4s.
        results = [run_campaign(compile_campaign(doc), workers=1) for _ in range(2)]
        for result in results:
            assert result.runs == {}
            reasons = {(q.name, q.reason) for q in result.quarantined}
            assert reasons == {("s0", "failed"), ("s1", "failed")}
            for q in result.quarantined:
                assert "event budget" in q.detail
                assert q.attempts == 2  # bounded retries consumed
        assert results[0].fingerprint() == results[1].fingerprint()

    def test_generous_budget_changes_nothing(self):
        spec_free = compile_campaign(tiny_doc())
        spec_capped = compile_campaign(
            tiny_doc(budgets={"retries": 0, "max_events": 10_000_000})
        )
        free = run_campaign(spec_free, workers=1)
        capped = run_campaign(spec_capped, workers=1)
        assert free.runs == capped.runs

    def test_salvage_report_shape(self):
        doc = tiny_doc()
        doc["scenarios"].append({"name": "bad", "rate_per_site": 99.0})
        result = run_campaign(compile_campaign(doc), workers=1)
        report = result.salvage_report()
        assert report["campaign"] == "runner-t"
        assert report["succeeded"] == 2
        assert report["scenarios"] == 3
        assert report["quarantined"][0]["name"] == "bad"
        json.dumps(report)  # JSON-safe

    def test_experiment_result_envelope(self):
        result = run_campaign(compile_campaign(tiny_doc()), workers=1)
        env = result.to_experiment_result()
        assert env.name == "campaign:runner-t"
        assert len(env.tables["scenarios"]) == 2
        assert env.metadata["fingerprint"] == result.fingerprint()
        assert "2 scenario(s) ok" in env.text


class TestFinishedTopologyIsFreed:
    @pytest.mark.parametrize("resilience", ["none", "retry+breaker"])
    def test_deployments_unreachable_without_cyclic_gc(self, resilience, monkeypatch):
        """Only the metrics outlive a scenario: both deployments, with or
        without a resilient client hooked onto them, are freed by
        reference counting alone."""
        built = []
        for name in ("EdgeDeployment", "CloudDeployment"):
            base = getattr(executor, name)

            class Tracked(base):
                def __init__(self, *args, **kwargs):
                    super().__init__(*args, **kwargs)
                    built.append(weakref.ref(self))

            monkeypatch.setattr(executor, name, Tracked)
        scenario = {"name": "s", "utilization": 0.5, "resilience": resilience}
        if resilience != "none":
            scenario.update(client_timeout=1.5, max_attempts=3)
        (spec,) = compile_campaign(tiny_doc(scenarios=[scenario])).scenarios
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            run = executor.run_scenario(spec)
            assert run.metrics["edge_count"] > 0 and run.metrics["cloud_count"] > 0
            assert len(built) == 2
            assert [ref() for ref in built] == [None, None]
        finally:
            if was_enabled:
                gc.enable()


class TestResume:
    def test_checkpoint_resume_bit_identical(self, tmp_path):
        journal = tmp_path / "camp.journal"
        spec = compile_campaign(tiny_doc())
        first = run_campaign(spec, workers=1, checkpoint=journal)
        second = run_campaign(spec, workers=1, checkpoint=journal, resume=True)
        assert second.fingerprint() == first.fingerprint()
        assert all(o.from_journal for o in second.outcomes)

    def test_resume_requires_existing_journal(self, tmp_path):
        spec = compile_campaign(tiny_doc())
        with pytest.raises(FileNotFoundError):
            run_campaign(spec, workers=1,
                         checkpoint=tmp_path / "nope.journal", resume=True)

    def test_edited_campaign_does_not_replay_stale_results(self, tmp_path):
        journal = tmp_path / "camp.journal"
        run_campaign(compile_campaign(tiny_doc()), workers=1, checkpoint=journal)
        edited = tiny_doc()
        edited["scenarios"][0]["utilization"] = 0.45  # content digest changes
        res = run_campaign(compile_campaign(edited), workers=1, checkpoint=journal)
        assert not any(o.from_journal for o in res.outcomes)


class TestStats:
    def test_counters_advance(self):
        stats = campaign_stats()
        stats.reset()
        doc = tiny_doc()
        doc["scenarios"].append({"name": "bad", "rate_per_site": 99.0})
        run_campaign(compile_campaign(doc), workers=1)
        snap = stats.snapshot()
        assert snap["scenarios"] == 3
        assert snap["executed"] == 2
        assert snap["succeeded"] == 2
        assert snap["quarantined"] == 1

    def test_observables_protocol(self):
        stats = campaign_stats()
        obs = stats.observables()
        assert set(obs) == set(stats.snapshot())
        assert all(callable(reader) for reader in obs.values())


class TestGolden:
    def test_write_load_diff_clean(self, tmp_path):
        result = run_campaign(compile_campaign(tiny_doc()), workers=1)
        path = write_golden(result, tmp_path / "expected.json")
        expected = load_golden(path)
        assert diff_golden(result, expected) == []

    def test_perturbed_metric_named_with_delta(self, tmp_path):
        result = run_campaign(compile_campaign(tiny_doc()), workers=1)
        path = write_golden(result, tmp_path / "expected.json")
        doc = json.loads(path.read_text())
        doc["scenarios"]["s1"]["metrics"]["edge_p95_ms"] += 0.5
        path.write_text(json.dumps(doc))
        drifts = diff_golden(result, load_golden(path))
        (d,) = drifts
        assert d.scenario == "s1"
        assert d.metric == "edge_p95_ms"
        assert d.delta == pytest.approx(-0.5)
        assert "drifted" in d.render()

    def test_tolerance_absorbs_small_drift(self, tmp_path):
        result = run_campaign(compile_campaign(tiny_doc()), workers=1)
        path = write_golden(result, tmp_path / "expected.json")
        doc = json.loads(path.read_text())
        doc["scenarios"]["s1"]["metrics"]["edge_p95_ms"] *= 1.0 + 1e-12
        path.write_text(json.dumps(doc))
        assert diff_golden(result, load_golden(path)) == []
        loose = GoldenTolerance(rtol=0.5)
        doc["scenarios"]["s1"]["metrics"]["edge_p95_ms"] *= 1.2
        path.write_text(json.dumps(doc))
        assert diff_golden(result, load_golden(path), loose) == []

    def test_missing_and_extra_scenarios_reported(self, tmp_path):
        result = run_campaign(compile_campaign(tiny_doc()), workers=1)
        path = write_golden(result, tmp_path / "expected.json")
        doc = json.loads(path.read_text())
        doc["scenarios"]["ghost"] = {"seed": 1, "metrics": {"x": 1.0}}
        del doc["scenarios"]["s0"]
        path.write_text(json.dumps(doc))
        drifts = diff_golden(result, load_golden(path))
        kinds = {(d.scenario, d.metric) for d in drifts}
        assert ("s0", "<scenario>") in kinds
        assert ("ghost", "<scenario>") in kinds

    def test_quarantine_set_change_is_drift(self, tmp_path):
        clean = run_campaign(compile_campaign(tiny_doc()), workers=1)
        path = write_golden(clean, tmp_path / "expected.json")
        doc = tiny_doc()
        doc["scenarios"].append({"name": "bad", "rate_per_site": 99.0})
        dirty = run_campaign(compile_campaign(doc), workers=1)
        drifts = diff_golden(dirty, load_golden(path))
        assert any(d.metric == "<quarantined:invalid-config>" for d in drifts)

    def test_load_golden_refuses_foreign_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"some": "file"}')
        with pytest.raises(ValueError):
            load_golden(path)
