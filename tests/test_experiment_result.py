"""Tests for the unified experiment-result API (repro.experiments.result)."""

import json

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.result import (
    ExperimentResult,
    ExperimentSpec,
    _harvest,
    available,
    get_spec,
    register,
    run_experiment,
)

TINY = ExperimentConfig(requests_per_site=2_000, azure_duration=600.0, seed=3)

EXPECTED = {
    "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
    "validation", "resilience", "overload", "telemetry",
}


class TestRegistry:
    def test_all_builtin_experiments_registered(self):
        assert {spec.name for spec in available()} >= EXPECTED

    def test_specs_carry_descriptions(self):
        assert all(spec.description for spec in available())

    def test_get_spec_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="fig2"):
            get_spec("nope")

    def test_register_rejects_duplicates(self):
        spec = get_spec("fig2")
        with pytest.raises(ValueError, match="already registered"):
            register("fig2", "dup", spec.runner, spec.renderer)
        # overwrite=True replaces and restores cleanly
        replaced = register("fig2", "replaced", spec.runner, spec.renderer, overwrite=True)
        assert get_spec("fig2") is replaced
        register(spec.name, spec.description, spec.runner, spec.renderer, overwrite=True)

    def test_registry_extension_hook(self):
        spec = register(
            "_test_exp", "a test experiment", lambda cfg: {"xs": [1, 2, 3]}, lambda raw: "ok"
        )
        try:
            assert isinstance(spec, ExperimentSpec)
            result = run_experiment("_test_exp", TINY)
            assert result.text == "ok"
            assert result.series == {"xs": [1, 2, 3]}
        finally:
            from repro.experiments import result as module

            del module._REGISTRY["_test_exp"]


class TestHarvest:
    def test_flat_dict_lists_become_tables(self):
        tables, series = {}, {}
        _harvest({"rows": [{"a": 1, "b": "x"}, {"a": 2, "b": None}]}, "", tables, series)
        assert tables == {"rows": [{"a": 1, "b": "x"}, {"a": 2, "b": None}]}
        assert series == {}

    def test_numeric_lists_become_series(self):
        tables, series = {}, {}
        _harvest({"lat": {"p95": [0.1, None, 0.3]}}, "", tables, series)
        assert series == {"lat.p95": [0.1, None, 0.3]}

    def test_nested_dicts_use_dotted_paths(self):
        tables, series = {}, {}
        _harvest({"edge": {"sweep": [{"rate": 1.0}]}}, "", tables, series)
        assert list(tables) == ["edge.sweep"]

    def test_nested_row_dicts_flatten_to_dotted_columns(self):
        tables, series = {}, {}
        rows = [{"rate": 1.0, "edge": {"mean": 0.5, "p95": 0.9}}]
        _harvest({"points": rows}, "", tables, series)
        assert tables == {"points": [{"rate": 1.0, "edge.mean": 0.5, "edge.p95": 0.9}]}

    def test_non_harvestable_nodes_are_skipped(self):
        tables, series = {}, {}
        _harvest({"mixed": [1, "two"], "empty": [], "flag": True}, "", tables, series)
        assert tables == {} and series == {}

    def test_bools_are_not_numbers(self):
        tables, series = {}, {}
        _harvest({"flags": [True, False]}, "", tables, series)
        assert series == {}


class TestRunExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("fig3", TINY)

    def test_envelope_fields(self, result):
        assert result.name == "fig3"
        assert result.text and "edge" in result.text.lower()
        assert result.metadata["experiment"] == "fig3"
        assert result.metadata["config"]["requests_per_site"] == 2_000
        assert result.raw is not None

    def test_tables_and_series_are_json_safe(self, result):
        assert result.tables or result.series
        json.dumps(result.as_dict(), allow_nan=False)  # must not raise

    def test_as_dict_excludes_raw(self, result):
        assert "raw" not in result.as_dict()

    def test_save_round_trips(self, result, tmp_path):
        path = result.save(tmp_path / "fig3.json")
        loaded = json.loads(path.read_text())
        assert loaded["name"] == "fig3"
        assert loaded["tables"] == result.tables
        assert loaded["series"] == result.series


class TestCompatibilityShims:
    def test_dump_experiment_writes_envelope(self, tmp_path):
        path = run_experiment("fig2", TINY).save(tmp_path / "fig2.json")
        loaded = json.loads(path.read_text())
        assert loaded["kind"] == "experiment-result"
        assert loaded["name"] == "fig2"
        assert loaded["metadata"]["description"]
        assert loaded["data"]["skew"]["cell_cv"] > 0

    def test_top_level_reexports(self):
        import repro

        assert repro.ExperimentResult is ExperimentResult
        assert repro.run_experiment is run_experiment
