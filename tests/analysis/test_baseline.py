"""Baseline lifecycle: add, match, prune, justification preservation."""

import json
import re
from pathlib import Path

from repro.analysis.baseline import (
    TODO_JUSTIFICATION,
    Baseline,
    fingerprint,
    update_baseline,
)
from repro.analysis.engine import Finding
from repro.analysis.project import analyze_project

REPO = Path(__file__).resolve().parents[2]


def finding(path="src/repro/x.py", line=10, code="RPR101", message="msg"):
    return Finding(path=path, line=line, col=0, code=code, message=message)


class TestFingerprint:
    def test_line_number_does_not_matter(self):
        a = finding(line=10)
        b = finding(line=99)
        assert fingerprint(a) == fingerprint(b)

    def test_path_code_message_all_matter(self):
        base = finding()
        assert fingerprint(base) != fingerprint(finding(path="other.py"))
        assert fingerprint(base) != fingerprint(finding(code="RPR102"))
        assert fingerprint(base) != fingerprint(finding(message="other"))


class TestCompare:
    def test_empty_baseline_everything_new(self):
        diff = Baseline().compare([finding()])
        assert len(diff.new) == 1
        assert diff.baselined == [] and diff.stale == []

    def test_matched_finding_is_baselined(self):
        f = finding()
        baseline = update_baseline(Baseline(), [f])
        diff = baseline.compare([f])
        assert diff.new == [] and diff.baselined == [f] and diff.stale == []

    def test_fixed_finding_becomes_stale(self):
        f = finding()
        baseline = update_baseline(Baseline(), [f])
        diff = baseline.compare([])
        assert diff.new == [] and diff.baselined == []
        assert [e.fingerprint for e in diff.stale] == [fingerprint(f)]

    def test_mixed_lifecycle(self):
        old_f, kept_f = finding(message="old"), finding(message="kept")
        baseline = update_baseline(Baseline(), [old_f, kept_f])
        new_f = finding(message="brand new")
        diff = baseline.compare([kept_f, new_f])
        assert diff.new == [new_f]
        assert diff.baselined == [kept_f]
        assert [e.message for e in diff.stale] == ["old"]


class TestUpdate:
    def test_new_entries_get_todo_justification(self):
        baseline = update_baseline(Baseline(), [finding()])
        (entry,) = baseline.entries.values()
        assert entry.justification == TODO_JUSTIFICATION

    def test_existing_justification_preserved(self):
        f = finding()
        first = update_baseline(Baseline(), [f])
        fp = fingerprint(f)
        first.entries[fp] = first.entries[fp].__class__(
            **{**first.entries[fp].to_dict(), "justification": "reviewed: ok"}
        )
        second = update_baseline(first, [f])
        assert second.entries[fp].justification == "reviewed: ok"

    def test_stale_entries_dropped_on_update(self):
        baseline = update_baseline(Baseline(), [finding(message="gone")])
        updated = update_baseline(baseline, [finding(message="current")])
        assert [e.message for e in updated.entries.values()] == ["current"]


class TestRoundTrip:
    def test_save_load(self, tmp_path):
        f = finding()
        baseline = update_baseline(Baseline(), [f])
        path = tmp_path / "analysis-baseline.json"
        baseline.save(path)
        loaded = Baseline.load(path)
        assert loaded.entries.keys() == baseline.entries.keys()
        doc = json.loads(path.read_text())
        assert doc["version"] == 1
        assert doc["findings"][0]["fingerprint"] == fingerprint(f)

    def test_missing_file_is_empty(self, tmp_path):
        assert Baseline.load(tmp_path / "absent.json").entries == {}


class TestCheckedInBaseline:
    def test_repo_baseline_entries_are_justified(self):
        # The committed baseline must never carry a TODO justification —
        # an accepted finding without a reason defeats the gate — and a
        # test a justification points at must exist.
        doc = json.loads((REPO / "analysis-baseline.json").read_text())
        for entry in doc["findings"]:
            assert entry["justification"], entry["fingerprint"]
            assert entry["justification"] != TODO_JUSTIFICATION
            for cited in re.findall(r"tests/[\w/]+\.py", entry["justification"]):
                assert (REPO / cited).is_file(), (entry["fingerprint"], cited)

    def test_repo_tree_matches_checked_in_baseline(self, monkeypatch):
        # The CI analysis gate, with stale entries failing too.  Run from
        # the repo root: fingerprints hash the path as given.
        monkeypatch.chdir(REPO)
        report = analyze_project(["src", "tests"])
        diff = Baseline.load(Path("analysis-baseline.json")).compare(report.findings)
        assert diff.new == [], [f.render() for f in diff.new]
        assert diff.stale == [], [e.fingerprint for e in diff.stale]
