"""Schema/semantic validation and matrix expansion of campaign specs."""

import pytest

from repro.campaign.spec import (
    EXIT_PARSE,
    EXIT_SCHEMA,
    EXIT_SEMANTIC,
    CampaignValidationError,
    OutageSpec,
    ScenarioSpec,
    compile_campaign,
    scenario_seed,
)


def minimal(**overrides):
    doc = {
        "campaign": "t",
        "seed": 5,
        "scenarios": [{"name": "a", "utilization": 0.5, "duration": 10.0}],
    }
    doc.update(overrides)
    return doc


class TestSchemaValidation:
    def test_minimal_document_compiles(self):
        spec = compile_campaign(minimal())
        assert spec.name == "t"
        assert [s.name for s in spec.scenarios] == ["a"]
        assert spec.scenario_issues == ()

    def test_non_mapping_document_is_schema_error(self):
        with pytest.raises(CampaignValidationError) as ei:
            compile_campaign(["not", "a", "campaign"])
        assert ei.value.kind == "schema"
        assert ei.value.exit_code == EXIT_SCHEMA

    def test_unknown_campaign_field_named(self):
        with pytest.raises(CampaignValidationError) as ei:
            compile_campaign(minimal(scenrios=[]))
        assert any(i.path == "scenrios" for i in ei.value.issues)

    def test_unknown_scenario_field_has_full_path(self):
        doc = minimal()
        doc["scenarios"][0]["rate_per_sight"] = 3.0
        with pytest.raises(CampaignValidationError) as ei:
            compile_campaign(doc)
        assert any(i.path == "scenarios[0].rate_per_sight" for i in ei.value.issues)

    def test_bad_types_collected_not_first_only(self):
        doc = minimal()
        doc["scenarios"][0]["utilization"] = "high"
        doc["scenarios"][0]["sites"] = 2.5
        with pytest.raises(CampaignValidationError) as ei:
            compile_campaign(doc)
        paths = {i.path for i in ei.value.issues}
        assert "scenarios[0].utilization" in paths
        assert "scenarios[0].sites" in paths

    def test_utilization_range_is_open(self):
        doc = minimal()
        doc["scenarios"][0]["utilization"] = 1.0
        with pytest.raises(CampaignValidationError) as ei:
            compile_campaign(doc)
        assert ei.value.kind == "schema"

    def test_rtt_preset_and_explicit_are_exclusive(self):
        doc = minimal()
        doc["scenarios"][0].update({"rtt": "typical", "cloud_rtt_ms": 30.0})
        with pytest.raises(CampaignValidationError) as ei:
            compile_campaign(doc)
        assert any("not both" in i.message for i in ei.value.issues)

    def test_unknown_rtt_preset_lists_choices(self):
        doc = minimal()
        doc["scenarios"][0]["rtt"] = "mars"
        with pytest.raises(CampaignValidationError) as ei:
            compile_campaign(doc)
        assert any("nearby" in i.message for i in ei.value.issues)

    def test_line_map_attached_to_issues(self):
        doc = minimal()
        doc["scenarios"][0]["utilization"] = 2.0
        lines = {"scenarios[0].utilization": 14}
        with pytest.raises(CampaignValidationError) as ei:
            compile_campaign(doc, lines=lines, source="camp.yaml")
        issue = next(i for i in ei.value.issues if i.path == "scenarios[0].utilization")
        assert issue.line == 14
        assert "camp.yaml:14" in issue.render("camp.yaml")

    def test_empty_campaign_rejected(self):
        with pytest.raises(CampaignValidationError) as ei:
            compile_campaign({"campaign": "t", "scenarios": []})
        assert ei.value.exit_code == EXIT_SEMANTIC


class TestSemantics:
    def test_duplicate_names_are_campaign_level_semantic(self):
        doc = minimal()
        doc["scenarios"].append(dict(doc["scenarios"][0]))
        with pytest.raises(CampaignValidationError) as ei:
            compile_campaign(doc)
        assert ei.value.kind == "semantic"
        assert any("duplicate scenario name" in i.message for i in ei.value.issues)

    def test_rate_and_utilization_together_collected(self):
        doc = minimal()
        doc["scenarios"][0]["rate_per_site"] = 3.0
        spec = compile_campaign(doc)
        assert spec.invalid_names == ("a",)
        with pytest.raises(CampaignValidationError):
            spec.require_valid()

    def test_unstable_unbounded_rate_quarantinable(self):
        doc = minimal()
        doc["scenarios"][0] = {"name": "a", "rate_per_site": 40.0, "duration": 10.0}
        spec = compile_campaign(doc)
        assert spec.invalid_names == ("a",)
        (_, issues), = spec.scenario_issues
        assert "diverges" in issues[0].message

    def test_unstable_rate_fine_when_bounded(self):
        doc = minimal()
        doc["scenarios"][0] = {
            "name": "a", "rate_per_site": 40.0, "duration": 10.0,
            "queue_capacity": 10,
        }
        assert compile_campaign(doc).scenario_issues == ()

    def test_overlapping_outages_name_site_and_bounds(self):
        doc = minimal()
        doc["scenarios"][0]["failures"] = [
            {"start": 1.0, "duration": 3.0},
            {"start": 2.0, "duration": 1.0, "sites": [0]},
        ]
        spec = compile_campaign(doc)
        (_, issues), = spec.scenario_issues
        assert any("overlaps" in i.message and "site 0" in i.message for i in issues)

    def test_outage_site_index_out_of_range(self):
        doc = minimal()
        doc["scenarios"][0]["sites"] = 2
        doc["scenarios"][0]["failures"] = [{"start": 1.0, "duration": 1.0, "sites": [5]}]
        spec = compile_campaign(doc)
        (_, issues), = spec.scenario_issues
        assert any("out of range" in i.message for i in issues)

    def test_outage_past_duration_flagged(self):
        doc = minimal()
        doc["scenarios"][0]["failures"] = [{"start": 50.0, "duration": 1.0}]
        spec = compile_campaign(doc)
        assert spec.invalid_names == ("a",)


class TestMatrixExpansion:
    def test_cross_product_row_major_declaration_order(self):
        doc = {
            "campaign": "t",
            "matrix": {
                "name": "g",
                "axes": {"rtt": ["typical", "distant"], "utilization": [0.4, 0.6]},
            },
        }
        spec = compile_campaign(doc)
        assert [s.name for s in spec.scenarios] == [
            "g/rtt=typical,utilization=0.4",
            "g/rtt=typical,utilization=0.6",
            "g/rtt=distant,utilization=0.4",
            "g/rtt=distant,utilization=0.6",
        ]

    def test_explicit_scenarios_precede_matrix(self):
        doc = minimal(matrix={"axes": {"utilization": [0.4]}})
        spec = compile_campaign(doc)
        assert spec.scenarios[0].name == "a"
        assert spec.scenarios[1].name.startswith("matrix0/")

    def test_base_and_defaults_merge_under_axes(self):
        doc = {
            "campaign": "t",
            "defaults": {"duration": 7.0, "sites": 3},
            "matrix": {
                "name": "g",
                "axes": {"utilization": [0.4]},
                "base": {"sites": 4},
            },
        }
        (s,) = compile_campaign(doc).scenarios
        assert s.duration == 7.0   # from defaults
        assert s.sites == 4        # base overrides defaults
        assert s.utilization == 0.4

    def test_axis_must_be_scalar_scenario_field(self):
        doc = {"campaign": "t", "matrix": {"axes": {"failures": [[], []]}}}
        with pytest.raises(CampaignValidationError) as ei:
            compile_campaign(doc)
        assert ei.value.kind == "schema"

    def test_axis_values_must_be_scalars(self):
        doc = {"campaign": "t", "matrix": {"axes": {"utilization": [{"x": 1}]}}}
        with pytest.raises(CampaignValidationError):
            compile_campaign(doc)

    def test_matrix_name_collision_with_explicit_is_semantic(self):
        doc = {
            "campaign": "t",
            "scenarios": [{"name": "g/utilization=0.4", "utilization": 0.4}],
            "matrix": {"name": "g", "axes": {"utilization": [0.4]}},
        }
        with pytest.raises(CampaignValidationError) as ei:
            compile_campaign(doc)
        assert ei.value.kind == "semantic"


class TestSeeds:
    def test_seed_depends_on_name_not_position(self):
        doc = {
            "campaign": "t",
            "seed": 9,
            "scenarios": [
                {"name": "x", "utilization": 0.4},
                {"name": "y", "utilization": 0.4},
            ],
        }
        fwd = {s.name: s.seed for s in compile_campaign(doc).scenarios}
        doc["scenarios"].reverse()
        rev = {s.name: s.seed for s in compile_campaign(doc).scenarios}
        assert fwd == rev
        assert fwd["x"] != fwd["y"]

    def test_seed_matches_public_derivation(self):
        spec = compile_campaign(minimal())
        assert spec.scenarios[0].seed == scenario_seed(5, "a")

    def test_explicit_seed_wins(self):
        doc = minimal()
        doc["scenarios"][0]["seed"] = 1234
        assert compile_campaign(doc).scenarios[0].seed == 1234

    def test_campaign_seed_changes_all_scenario_seeds(self):
        a = compile_campaign(minimal(seed=1)).scenarios[0].seed
        b = compile_campaign(minimal(seed=2)).scenarios[0].seed
        assert a != b


class TestErrorTypes:
    def test_exit_codes_are_distinct(self):
        assert len({EXIT_PARSE, EXIT_SCHEMA, EXIT_SEMANTIC, 2, 0}) == 5

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            CampaignValidationError("weird", [])

    def test_outage_end_property(self):
        assert OutageSpec(1.0, 2.0).end == 3.0

    def test_scenario_spec_defaults_are_frozen(self):
        s = ScenarioSpec(name="x")
        with pytest.raises(AttributeError):
            s.name = "y"


class TestFieldRules:
    """One exact schema message per kind of scalar-field rule."""

    @pytest.mark.parametrize(("field", "value", "message"), [
        ("arrival", "gamma", "must be one of ['poisson', 'deterministic', "
                             "'uniform', 'bursty'], got 'gamma'"),
        ("rtt", None, "must be one of ['nearby', 'typical', 'distant', "
                      "'transcontinental'], got None"),
        ("duration", 0, "must be > 0, got 0"),
        ("utilization", 1.0, "must be < 1, got 1.0"),
        ("service_cv2", -0.5, "must be >= 0, got -0.5"),
        ("sites", 0, "must be >= 1, got 0"),
        ("sites", 2.5, "expected an integer, got 2.5"),
        ("max_attempts", True, "expected an integer, got True"),
        ("deadline", "6", "expected a number, got '6'"),
        ("rate_per_site", None, "expected a number, got None"),
        ("codel_target", float("inf"), "must be finite, got inf"),
        ("latency_target", float("nan"), "must be finite, got nan"),
    ])
    def test_exact_message(self, field, value, message):
        doc = minimal()
        doc["scenarios"][0][field] = value
        with pytest.raises(CampaignValidationError) as ei:
            compile_campaign(doc)
        assert ei.value.kind == "schema"
        assert [(i.path, i.message) for i in ei.value.issues] == [
            (f"scenarios[0].{field}", message)]

    def test_whole_number_for_a_real_field_is_stored_as_a_float(self):
        (scenario,) = compile_campaign(minimal()).scenarios
        compiled = compile_campaign(minimal(scenarios=[
            {"name": "a", "utilization": 0.5, "duration": 10}])).scenarios[0]
        assert compiled == scenario
        assert type(compiled.duration) is float

    def test_null_leaves_a_nullable_field_unset(self):
        doc = minimal()
        doc["scenarios"][0].update({"queue_capacity": None, "seed": None})
        (scenario,) = compile_campaign(doc).scenarios
        assert scenario.queue_capacity is None
        assert scenario.seed == scenario_seed(5, "a")  # derived, as when absent

    def test_explicit_rtts_are_not_checked_beside_a_preset(self):
        doc = minimal()
        doc["scenarios"][0].update({"rtt": "mars", "edge_rtt_ms": -1})
        with pytest.raises(CampaignValidationError) as ei:
            compile_campaign(doc)
        assert [i.message for i in ei.value.issues] == [
            "must be one of ['nearby', 'typical', 'distant', 'transcontinental'], "
            "got 'mars'",
            "give either a named rtt preset or explicit cloud_rtt_ms/edge_rtt_ms, "
            "not both",
        ]
