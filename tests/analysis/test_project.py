"""The one-pass driver: both tiers, suppressions applied after the merge."""

import textwrap
from pathlib import Path

from repro.analysis.project import analyze_project

REPO = Path(__file__).resolve().parents[2]


def write_tree(tmp_path, files):
    for rel, src in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(src))
    return tmp_path


HOT = """\
    import time

    def simulate_hot():
        return helper()

    def helper():
        return time.time(){noqa}
    """


class TestDriverSuppression:
    """Whole-program findings flow through noqa + RPR000 like leaf ones."""

    def test_rpr101_finding_without_noqa(self, tmp_path):
        root = write_tree(tmp_path, {
            "proj/repro/app.py": HOT.format(noqa=""),
        }) / "proj"
        report = analyze_project([root], roots=["repro.app.simulate_*"])
        codes = [f.code for f in report.findings]
        # Leaf rule RPR001 doesn't fire (repro.app is outside the
        # determinism packages) but the whole-program pass does.
        assert codes == ["RPR101"]

    def test_noqa_suppresses_whole_program_finding(self, tmp_path):
        root = write_tree(tmp_path, {
            "proj/repro/app.py": HOT.format(
                noqa="  # repro: noqa[RPR101] -- fixture"),
        }) / "proj"
        report = analyze_project([root], roots=["repro.app.simulate_*"])
        assert report.findings == []

    def test_unused_rpr101_noqa_reports_rpr000(self, tmp_path):
        root = write_tree(tmp_path, {
            "proj/repro/app.py": """\
                def simulate_hot():
                    return 1  # repro: noqa[RPR101] -- nothing here
                """,
        }) / "proj"
        report = analyze_project([root], roots=["repro.app.simulate_*"])
        assert [f.code for f in report.findings] == ["RPR000"]
        assert "RPR101" in report.findings[0].message


def test_unparsable_file_does_not_stop_whole_program_pass(tmp_path):
    root = write_tree(tmp_path, {
        "proj/repro/app.py": HOT.format(noqa=""),
        "proj/repro/broken.py": "def broken(:\n",
    }) / "proj"
    report = analyze_project([root], roots=["repro.app.simulate_*"])
    assert report.files_checked == 2
    assert [(f.code, Path(f.path).name) for f in report.findings] == [
        ("RPR101", "app.py"),
        ("RPR999", "broken.py"),
    ]


def test_analysis_writes_no_file(tmp_path, monkeypatch):
    root = write_tree(tmp_path, {
        "proj/repro/app.py": HOT.format(noqa=""),
    }) / "proj"
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    analyze_project([root], roots=["repro.app.simulate_*"])
    assert sorted(tmp_path.rglob("*")) == before


def test_figure7_sampling_calls_are_resolved():
    """The determinism pass follows the duck-typed calls of Figure 7's path.

    ``EdgeCloudComparator._site_workloads`` calls ``gap.sample(rng, n)``
    on a ``Distribution``.  A method name defined more than ``DUCK_CAP``
    times is recorded as unknown dispatch, and RPR101 does not follow it.
    """
    report = analyze_project([REPO / "src"])
    assert not {"sample", "mean", "utilization"} & report.unknown_dispatch.keys()
