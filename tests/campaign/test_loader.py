"""YAML/JSON loading: parse errors, line-level diagnostics, gating."""

import json
import math

import pytest

from repro.campaign import loader
from repro.campaign.loader import load_campaign, loads_campaign, parse_document
from repro.campaign.spec import EXIT_PARSE, EXIT_SCHEMA, CampaignValidationError

yaml = pytest.importorskip("yaml")

GOOD_YAML = """\
campaign: demo
seed: 3
scenarios:
  - name: one
    rtt: typical
    utilization: 0.5
    duration: 10.0
"""


class TestYamlParsing:
    def test_good_document_loads(self):
        spec = loads_campaign(GOOD_YAML, source="demo.yaml")
        assert spec.name == "demo"
        assert spec.scenarios[0].cloud_rtt_ms == 24.0

    def test_invalid_yaml_is_parse_error_with_line(self):
        with pytest.raises(CampaignValidationError) as ei:
            loads_campaign("campaign: [unclosed\nscenarios:", source="x.yaml")
        assert ei.value.kind == "parse"
        assert ei.value.exit_code == EXIT_PARSE
        assert ei.value.issues[0].line is not None

    def test_empty_document_is_parse_error(self):
        with pytest.raises(CampaignValidationError) as ei:
            loads_campaign("# just a comment\n", source="x.yaml")
        assert ei.value.kind == "parse"

    def test_duplicate_mapping_key_is_parse_error(self):
        text = GOOD_YAML + "seed: 4\n"
        with pytest.raises(CampaignValidationError) as ei:
            loads_campaign(text, source="x.yaml")
        assert ei.value.kind == "parse"
        assert any("duplicate" in i.message for i in ei.value.issues)

    def test_schema_error_carries_source_line(self):
        bad = GOOD_YAML.replace("utilization: 0.5", "utilization: 1.5")
        with pytest.raises(CampaignValidationError) as ei:
            loads_campaign(bad, source="demo.yaml")
        issue = next(i for i in ei.value.issues
                     if i.path == "scenarios[0].utilization")
        # "utilization: 1.5" sits on line 6 of the document.
        assert issue.line == 6
        assert "demo.yaml:6" in str(ei.value)

    def test_scalar_types_resolved(self):
        data, lines = parse_document(
            "a: 1\nb: 2.5\nc: true\nd: null\ne: text\nf: [1, 2]\n", fmt="yaml"
        )
        assert data == {"a": 1, "b": 2.5, "c": True, "d": None,
                        "e": "text", "f": [1, 2]}
        assert lines["b"] == 2
        assert lines["f[1]"] == 6

    @pytest.mark.parametrize("form", [
        "TRUE", "True", "yes", "OFF", "0755", "-0755", "0b101", "-0b11", "0x_1F",
        "1_000", "190:20:30", "190:20:30.15", "-1:30", "1.0e+3", "1e3", ".Inf",
        "-.inf", ".NaN", "~", "", "0o17", "08", "!!str 12", "!!float 1",
    ])
    def test_scalars_typed_as_safe_load_types_them(self, form):
        text = f"v: {form}\n"
        got = parse_document(text, fmt="yaml")[0]["v"]
        want = yaml.safe_load(text)["v"]
        assert type(got) is type(want)
        assert got == want or (math.isnan(got) and math.isnan(want))

    def test_other_tags_keep_their_source_text(self):
        data, _ = parse_document("a: 2001-12-14\nb: !!binary aGk=\n", fmt="yaml")
        assert data == {"a": "2001-12-14", "b": "aGk="}

    @pytest.mark.parametrize(("form", "message"), [
        ("!!int abc", "'abc' is not a valid int"),
        ("!!float x", "'x' is not a valid float"),
        ("!!bool maybe", "'maybe' is not a valid bool"),
    ])
    def test_tagged_unreadable_scalar_is_parse_error(self, form, message):
        with pytest.raises(CampaignValidationError) as ei:
            parse_document(f"a: 1\nv: {form}\n", fmt="yaml")
        assert ei.value.kind == "parse"
        assert [(i.path, i.message, i.line) for i in ei.value.issues] == [
            ("v", message, 2)]


class TestJsonParsing:
    def test_json_document_loads(self):
        doc = {
            "campaign": "j", "seed": 1,
            "scenarios": [{"name": "n", "utilization": 0.4, "duration": 5.0}],
        }
        spec = loads_campaign(json.dumps(doc), fmt="json", source="j.json")
        assert spec.scenarios[0].name == "n"

    def test_json_parse_error_has_line_and_column(self):
        with pytest.raises(CampaignValidationError) as ei:
            loads_campaign('{"campaign": }', fmt="json", source="j.json")
        assert ei.value.kind == "parse"
        assert "column" in ei.value.issues[0].message

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            parse_document("x", fmt="toml")


class TestFileLoading:
    def test_suffix_selects_format(self, tmp_path):
        ypath = tmp_path / "c.yaml"
        ypath.write_text(GOOD_YAML)
        jpath = tmp_path / "c.json"
        jpath.write_text(json.dumps({
            "campaign": "j",
            "scenarios": [{"name": "n", "utilization": 0.4}],
        }))
        assert load_campaign(ypath).name == "demo"
        assert load_campaign(jpath).name == "j"

    def test_missing_file_is_parse_error(self, tmp_path):
        with pytest.raises(CampaignValidationError) as ei:
            load_campaign(tmp_path / "nope.yaml")
        assert ei.value.kind == "parse"

    def test_source_is_file_path_in_errors(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(GOOD_YAML.replace("rtt: typical", "rtt: mars"))
        with pytest.raises(CampaignValidationError) as ei:
            load_campaign(path)
        assert str(path) in str(ei.value)
        assert ei.value.exit_code == EXIT_SCHEMA


class TestYamlGating:
    def test_yaml_available_reports_truth(self):
        assert loader.yaml_available() is (loader._yaml is not None)

    def test_missing_pyyaml_yields_actionable_parse_error(self, monkeypatch):
        monkeypatch.setattr(loader, "_yaml", None)
        assert not loader.yaml_available()
        with pytest.raises(CampaignValidationError) as ei:
            loads_campaign(GOOD_YAML, source="x.yaml")
        assert ei.value.kind == "parse"
        assert "PyYAML" in str(ei.value)
        # JSON path keeps working without yaml.
        spec = loads_campaign(
            json.dumps({"campaign": "j",
                        "scenarios": [{"name": "n", "utilization": 0.4}]}),
            fmt="json",
        )
        assert spec.name == "j"
