"""Property-style round-trip tests: load → expand → dump → load.

The campaign contract the golden matrix rests on: expansion is
order-stable, dumps are canonical, and per-scenario seeds are
bit-identical across re-loads, re-dumps and worker counts.
"""

import hashlib
import json
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import (
    compile_campaign,
    dump_campaign,
    load_campaign,
    loads_campaign,
    run_campaign,
)
from repro.campaign.executor import run_scenario
from repro.campaign.spec import (
    ADMISSIONS,
    ARRIVALS,
    DISCIPLINES,
    RESILIENCE_MODES,
    RTT_PRESETS,
    ScenarioSpec,
)

GOLDEN = Path(__file__).resolve().parents[2] / "scenarios" / "golden" / "campaign.yaml"

#: A deliberately gnarly campaign touching every axis family.
DOC = {
    "campaign": "roundtrip",
    "seed": 77,
    "description": "round-trip property fixture",
    "defaults": {"duration": 6.0, "sites": 2},
    "scenarios": [
        {"name": "explicit", "rtt": "nearby", "utilization": 0.45},
        {
            "name": "complex",
            "cloud_rtt_ms": 33.5,
            "edge_rtt_ms": 2.0,
            "arrival": "bursty",
            "arrival_cv2": 5.0,
            "service_cv2": 0.5,
            "rate_per_site": 4.0,
            "discipline": "codel",
            "codel_target": 0.3,
            "queue_capacity": 16,
            "admission": "occupancy",
            "admission_limit": 4.0,
            "resilience": "retry",
            "client_timeout": 1.0,
            "deadline": 4.0,
            "max_attempts": 2,
            "failures": [
                {"start": 1.0, "duration": 0.5},
                {"start": 3.0, "duration": 0.5, "sites": [1]},
            ],
        },
    ],
    "matrix": [
        {
            "name": "grid",
            "axes": {
                "rtt": ["typical", "distant"],
                "utilization": [0.4, 0.7],
                "arrival": ["poisson", "deterministic"],
            },
            "base": {"machines_per_site": 1},
        }
    ],
    "budgets": {"timeout": 60.0, "max_events": 500000, "retries": 2},
    "golden": {"rtol": 1e-8, "atol": 1e-10},
}


def fingerprint(spec):
    """Order + identity + seeds, the properties that must round-trip."""
    return [(s.name, s.seed, s) for s in spec.scenarios]


class TestRoundTrip:
    def test_dump_load_reproduces_expansion_exactly(self):
        spec = compile_campaign(json.loads(json.dumps(DOC)))
        dumped = dump_campaign(spec)
        respec = compile_campaign(json.loads(json.dumps(dumped)))
        assert fingerprint(respec) == fingerprint(spec)
        assert respec.budgets == spec.budgets
        assert respec.tolerance == spec.tolerance
        # And the dump is a fixed point: dump(load(dump(x))) == dump(x).
        assert dump_campaign(respec) == dumped

    def test_dump_survives_yaml_round_trip(self):
        yaml = pytest.importorskip("yaml")
        spec = compile_campaign(json.loads(json.dumps(DOC)))
        text = yaml.safe_dump(dump_campaign(spec), sort_keys=False)
        respec = loads_campaign(text, source="dumped.yaml")
        assert fingerprint(respec) == fingerprint(spec)

    def test_expansion_order_stable_across_reloads(self):
        names = None
        for _ in range(3):
            spec = compile_campaign(json.loads(json.dumps(DOC)))
            got = [s.name for s in spec.scenarios]
            if names is None:
                names = got
            assert got == names
        assert len(names) == 2 + 2 * 2 * 2

    def test_matrix_block_order_does_not_change_seeds(self):
        doc = json.loads(json.dumps(DOC))
        base = {s.name: s.seed for s in compile_campaign(doc).scenarios}
        # Swap the explicit scenarios and prepend another matrix block:
        # every pre-existing scenario keeps its exact seed.
        doc["scenarios"].reverse()
        doc["matrix"].insert(
            0, {"name": "extra", "axes": {"utilization": [0.3]}}
        )
        moved = {s.name: s.seed for s in compile_campaign(doc).scenarios}
        for name, seed in base.items():
            assert moved[name] == seed

    def test_seed_derivation_bit_identical_across_worker_counts(self):
        doc = json.loads(json.dumps(DOC))
        doc["scenarios"] = [
            {"name": "tiny", "utilization": 0.4, "duration": 3.0, "sites": 1}
        ]
        doc.pop("matrix")
        doc["budgets"] = {"retries": 0}
        spec = compile_campaign(doc)
        seq = run_campaign(spec, workers=1)
        par = run_campaign(spec, workers=2)
        assert seq.runs["tiny"] == par.runs["tiny"]
        assert seq.fingerprint() == par.fingerprint()

    def test_rerunning_a_reloaded_scenario_is_bit_identical(self):
        spec = compile_campaign(json.loads(json.dumps(DOC)))
        respec = compile_campaign(json.loads(json.dumps(dump_campaign(spec))))
        s0 = next(s for s in spec.scenarios if s.name == "explicit")
        s1 = next(s for s in respec.scenarios if s.name == "explicit")
        assert s0 == s1
        assert run_scenario(s0) == run_scenario(s1)


class TestCanonicalFormat:
    """The dump is the campaign's identity: it keys journals and job ids."""

    def test_golden_campaign_digest_is_pinned(self):
        pytest.importorskip("yaml")
        assert load_campaign(GOLDEN).digest() == "f69166e2a5e3b1c4"

    def test_golden_dump_key_order_is_pinned(self):
        pytest.importorskip("yaml")
        text = json.dumps(dump_campaign(load_campaign(GOLDEN)))
        assert hashlib.sha256(text.encode()).hexdigest().startswith("1c5baf5cdffdd446")


#: Fields a scenario may leave out; they take these defaults.
DEFAULTS = {f.name: f.default for f in fields(ScenarioSpec)}
#: Optional fields with a valid value each; most are used under one axis value only.
OPTIONAL = {
    "arrival_cv2": 3.0, "codel_target": 0.2, "queue_capacity": 8,
    "admission_limit": 2.5, "latency_target": 0.4, "client_timeout": 1.0,
    "deadline": 4.0, "max_attempts": 2, "edge_rtt_ms": 2.0, "seed": 99,
}


@st.composite
def scenarios(draw):
    raw = {
        "name": "s",
        "arrival": draw(st.sampled_from(ARRIVALS)),
        "discipline": draw(st.sampled_from(DISCIPLINES)),
        "admission": draw(st.sampled_from(ADMISSIONS)),
        "resilience": draw(st.sampled_from(RESILIENCE_MODES)),
        "duration": 10.0,
    }
    raw[draw(st.sampled_from(["utilization", "rate_per_site"]))] = 0.5
    preset = draw(st.sampled_from([*RTT_PRESETS, None]))
    if preset is None:
        raw["cloud_rtt_ms"] = draw(st.floats(1.0, 200.0))
    else:
        raw["rtt"] = preset
    for key, value in OPTIONAL.items():
        if draw(st.booleans()) and not (key == "edge_rtt_ms" and preset):
            raw[key] = value
    if draw(st.booleans()):
        raw["failures"] = [{"start": 1.0, "duration": 2.0, "sites": [0]}]
    return raw


def used_keys(raw):
    """The keys ``to_mapping`` must write for a compiled ``raw``."""
    keys = {"name", "arrival", "service_cv2", "sites", "machines_per_site",
            "duration", "warmup_fraction", "discipline", "admission",
            "resilience", "seed"}
    keys |= {"rtt"} if "rtt" in raw else {"cloud_rtt_ms", "edge_rtt_ms"}
    keys |= {"utilization", "rate_per_site", "queue_capacity", "failures"} & set(raw)
    if raw["arrival"] == "bursty":
        keys.add("arrival_cv2")
    if raw["discipline"] == "codel":
        keys.add("codel_target")
    if raw["admission"] == "occupancy":
        keys.add("admission_limit")
    if raw["admission"] == "aimd":
        keys.add("latency_target")
    if raw["resilience"] != "none":
        keys |= {"client_timeout", "deadline", "max_attempts"}
    return keys


class TestRoundTripProperty:
    @given(raw=scenarios())
    @settings(max_examples=150, deadline=None)
    def test_dump_reloads_to_the_same_campaign(self, raw):
        spec = compile_campaign({"campaign": "p", "seed": 4, "scenarios": [raw]})
        (scenario,) = spec.scenarios
        keys = used_keys(raw)
        assert set(scenario.to_mapping()) == keys
        respec = compile_campaign(json.loads(json.dumps(dump_campaign(spec))))
        assert respec.digest() == spec.digest()
        # Only a value the scenario's axes never read is dropped.
        dropped = {k: DEFAULTS[k] for k in raw if k not in keys}
        assert respec.scenarios == (replace(scenario, **dropped),)
