"""Engine behavior: suppressions, report formats, CLI exit codes."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis.engine import (
    Finding,
    analyze_file,
    registered_rules,
    render_json,
    render_text,
)
from repro.analysis.project import analyze_project


def write(tmp_path, relpath, source):
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


BAD_SIM = """\
    import time

    def handler():
        return time.time()
    """


def run_cli(*args, cwd=None):
    """Run the CLI with an absolute PYTHONPATH so any cwd works."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True, text=True, cwd=cwd, env=env,
    )


class TestSuppressions:
    def test_noqa_suppresses_matching_code(self, tmp_path):
        path = write(tmp_path, "repro/sim/mod.py", """\
            import time

            def handler():
                return time.time()  # repro: noqa[RPR001] -- intentional for this test
            """)
        assert analyze_file(path) == []

    def test_noqa_wrong_code_does_not_suppress(self, tmp_path):
        path = write(tmp_path, "repro/sim/mod.py", """\
            import time

            def handler():
                return time.time()  # repro: noqa[RPR002] -- wrong code
            """)
        found = analyze_file(path)
        # The RPR001 finding survives AND the stale RPR002 noqa is reported.
        assert sorted(f.code for f in found) == ["RPR000", "RPR001"]

    def test_unused_suppression_reported(self, tmp_path):
        path = write(tmp_path, "repro/sim/mod.py", """\
            x = 1  # repro: noqa[RPR001]
            """)
        found = analyze_file(path)
        assert [f.code for f in found] == ["RPR000"]
        assert "unused suppression" in found[0].message

    def test_multiple_codes_in_one_comment(self, tmp_path):
        path = write(tmp_path, "repro/sim/mod.py", """\
            import time

            def handler(log=[]):  # repro: noqa[RPR006]
                return time.time()  # repro: noqa[RPR001, RPR007] -- RPR007 unused
            """)
        found = analyze_file(path)
        assert [f.code for f in found] == ["RPR000"]
        assert "RPR007" in found[0].message

    def test_noqa_inside_string_literal_ignored(self, tmp_path):
        path = write(tmp_path, "repro/sim/mod.py", '''\
            DOC = "# repro: noqa[RPR001]"
            ''')
        # A string literal is not a comment: no suppression registered,
        # so no RPR000 either.
        assert analyze_file(path) == []


class TestReports:
    def test_parse_error_reported_not_raised(self, tmp_path):
        path = write(tmp_path, "repro/sim/broken.py", "def broken(:\n")
        found = analyze_file(path)
        assert [f.code for f in found] == ["RPR999"]

    def test_findings_sorted_and_stable(self, tmp_path):
        write(tmp_path, "repro/sim/b.py", BAD_SIM)
        write(tmp_path, "repro/sim/a.py", BAD_SIM)
        report = analyze_project([tmp_path])
        assert report.files_checked == 2
        paths = [f.path for f in report.findings]
        assert paths == sorted(paths)

    def test_json_schema(self, tmp_path):
        write(tmp_path, "repro/sim/bad.py", BAD_SIM)
        report = analyze_project([tmp_path])
        doc = json.loads(render_json(report.findings, report.files_checked))
        assert doc["version"] == 1
        assert doc["files_checked"] == 1
        assert doc["counts"] == {"RPR001": 1}
        assert set(doc["findings"][0]) == {"path", "line", "col", "code", "message"}
        # The rule catalog rides along so CI output is self-describing.
        assert set(doc["rules"]) == {cls.code for cls in registered_rules()}

    def test_text_report_clean_and_dirty(self):
        assert "clean" in render_text([], 3)
        f = Finding(path="x.py", line=1, col=0, code="RPR001", message="m")
        text = render_text([f], 1)
        assert "x.py:1:0: RPR001 m" in text
        assert "1 finding(s)" in text


class TestCli:
    def run_cli(self, *args, cwd=None):
        return run_cli(*args, cwd=cwd)

    def test_exit_zero_on_clean_tree(self, tmp_path):
        write(tmp_path, "repro/sim/good.py", "x = 1\n")
        proc = self.run_cli(str(tmp_path), cwd=tmp_path)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean" in proc.stdout

    def test_exit_one_on_findings(self, tmp_path):
        write(tmp_path, "repro/sim/bad.py", BAD_SIM)
        proc = self.run_cli(str(tmp_path), cwd=tmp_path)
        assert proc.returncode == 1
        assert "RPR001" in proc.stdout

    def test_json_format(self, tmp_path):
        write(tmp_path, "repro/sim/bad.py", BAD_SIM)
        proc = self.run_cli(str(tmp_path), "--format", "json", cwd=tmp_path)
        doc = json.loads(proc.stdout)
        assert doc["counts"] == {"RPR001": 1}

    def test_list_rules(self):
        proc = self.run_cli("--list-rules")
        assert proc.returncode == 0
        for cls in registered_rules():
            assert cls.code in proc.stdout

    def test_usage_error_on_missing_paths(self):
        proc = self.run_cli()
        assert proc.returncode == 2


@pytest.mark.parametrize("rule_cls", registered_rules())
def test_every_rule_has_code_and_summary(rule_cls):
    assert rule_cls.code.startswith("RPR")
    assert rule_cls.summary


class TestUnusedSuppressionDedup:
    def test_one_rpr000_per_line_lists_all_codes(self, tmp_path):
        findings = analyze_file(write(tmp_path, "repro/sim/x.py", """\
            x = 1  # repro: noqa[RPR001, RPR007] -- neither fires
            """))
        assert [f.code for f in findings] == ["RPR000"]
        assert "RPR001, RPR007" in findings[0].message

    def test_partially_used_comment_reports_only_unused(self, tmp_path):
        findings = analyze_file(write(tmp_path, "repro/sim/y.py", """\
            import time

            def handler():
                return time.time()  # repro: noqa[RPR001, RPR007] -- wall clock is deliberate
            """))
        assert [f.code for f in findings] == ["RPR000"]
        assert "RPR007" in findings[0].message
        assert "RPR001" not in findings[0].message


class TestBaselineGateCli:
    HOT = textwrap.dedent("""\
        import time

        def simulate_hot():
            return helper()

        def helper():
            return time.time()
        """)

    def run_cli(self, *args, cwd=None):
        return run_cli(*args, cwd=cwd)

    def test_new_finding_fails_then_baselined_passes(self, tmp_path):
        write(tmp_path, "repro/sim/fastsim.py", self.HOT)
        baseline = tmp_path / "analysis-baseline.json"
        # Gate fails while the finding is not baselined.
        proc = self.run_cli(
            "repro", "--baseline", "analysis-baseline.json", cwd=tmp_path
        )
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "new finding(s) not in baseline" in proc.stderr
        # Record it, then the same run passes.
        record = self.run_cli(
            "repro", "--baseline", "analysis-baseline.json",
            "--update-baseline", cwd=tmp_path,
        )
        assert record.returncode == 0, record.stdout + record.stderr
        assert baseline.exists()
        again = self.run_cli(
            "repro", "--baseline", "analysis-baseline.json", cwd=tmp_path
        )
        assert again.returncode == 0, again.stdout + again.stderr

    def test_stale_entry_reported(self, tmp_path):
        write(tmp_path, "repro/sim/fastsim.py", self.HOT)
        self.run_cli("repro", "--baseline", "b.json", "--update-baseline",
                     cwd=tmp_path)
        write(tmp_path, "repro/sim/fastsim.py", "def simulate_hot():\n    return 1\n")
        proc = self.run_cli("repro", "--baseline", "b.json", cwd=tmp_path)
        assert proc.returncode == 0
        assert "stale baseline entry" in proc.stderr

    def test_sarif_written_with_baseline_state(self, tmp_path):
        write(tmp_path, "repro/sim/fastsim.py", self.HOT)
        self.run_cli("repro", "--baseline", "b.json", "--update-baseline",
                     cwd=tmp_path)
        proc = self.run_cli(
            "repro", "--baseline", "b.json", "--sarif", "out.sarif",
            cwd=tmp_path,
        )
        assert proc.returncode == 0
        doc = json.loads((tmp_path / "out.sarif").read_text())
        states = [r["baselineState"] for r in doc["runs"][0]["results"]]
        assert states and all(s == "unchanged" for s in states)

    def test_explain_whole_program_code(self):
        proc = self.run_cli("--explain", "RPR101")
        assert proc.returncode == 0
        assert "call graph" in proc.stdout or "call chain" in proc.stdout

    def test_explain_leaf_rule(self):
        proc = self.run_cli("--explain", "RPR012")
        assert proc.returncode == 0
        assert "RPR012" in proc.stdout

    def test_explain_unknown_code(self):
        proc = self.run_cli("--explain", "RPR998")
        assert proc.returncode == 2

    def test_list_rules_includes_whole_program(self):
        proc = self.run_cli("--list-rules")
        for code in ("RPR101", "RPR102", "RPR103"):
            assert code in proc.stdout

    def test_run_adds_no_file_to_working_directory(self, tmp_path):
        write(tmp_path, "repro/sim/fastsim.py", self.HOT)
        before = sorted(tmp_path.rglob("*"))
        proc = self.run_cli("repro", "--format", "json", cwd=tmp_path)
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert sorted(tmp_path.rglob("*")) == before
