"""Whole-program purity (RPR101) and picklability (RPR102) passes.

The mutation test at the bottom is the acceptance check for the
interprocedural claim: a wall-clock call injected *three levels below* a
``Station`` method in a copy of the real tree must be found, with the
full call chain in the message.
"""

import shutil
import textwrap
from pathlib import Path

from repro.analysis.project import analyze_project
from repro.analysis.purity import check_picklability, check_purity
from tests.analysis.test_callgraph import build_graph

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


def purity(tmp_path, files, roots):
    return check_purity(build_graph(tmp_path, files), roots)


class TestPurity:
    def test_sink_in_root_itself(self, tmp_path):
        findings = purity(tmp_path, {"repro/app.py": """\
            import time

            def hot():
                return time.time()
            """}, roots=["repro.app.hot"])
        assert [f.code for f in findings] == ["RPR101"]
        assert "time.time()" in findings[0].message

    def test_transitive_sink_reports_chain(self, tmp_path):
        findings = purity(tmp_path, {"repro/app.py": """\
            import random

            def leaf():
                return random.random()

            def mid():
                return leaf()

            def hot():
                return mid()
            """}, roots=["repro.app.hot"])
        assert len(findings) == 1
        f = findings[0]
        assert "hot → mid → leaf" in f.message
        assert "random.random()" in f.message
        assert f.line == 4  # anchored at the sink, not the root

    def test_unreachable_sink_not_flagged(self, tmp_path):
        findings = purity(tmp_path, {"repro/app.py": """\
            import time

            def cold():
                return time.time()

            def hot():
                return 1
            """}, roots=["repro.app.hot"])
        assert findings == []

    def test_environ_and_set_iteration_sinks(self, tmp_path):
        findings = purity(tmp_path, {"repro/app.py": """\
            import os

            def hot(items):
                flag = os.environ.get("X")
                for item in set(items):
                    flag = item
                return flag
            """}, roots=["repro.app.hot"])
        kinds = sorted(f.message.split(" is reachable")[0] for f in findings)
        assert len(findings) == 2
        assert any("environment read" in k for k in kinds)
        assert any("unordered-set iteration" in k for k in kinds)

    def test_seeded_rng_not_flagged(self, tmp_path):
        findings = purity(tmp_path, {"repro/app.py": """\
            import numpy as np

            def hot(seed):
                rng = np.random.default_rng(seed)
                return rng.random()
            """}, roots=["repro.app.hot"])
        assert findings == []


class TestPicklability:
    def test_lambda_flagged(self, tmp_path):
        graph = build_graph(tmp_path, {"repro/app.py": """\
            from repro.parallel import run_tasks

            def main(tasks):
                return run_tasks(lambda t: t, tasks)
            """})
        findings = check_picklability(graph)
        assert [f.code for f in findings] == ["RPR102"]
        assert "lambda" in findings[0].message

    def test_nested_function_flagged(self, tmp_path):
        graph = build_graph(tmp_path, {"repro/app.py": """\
            from repro.parallel import run_tasks

            def main(tasks):
                def work(t):
                    return t
                return run_tasks(work, tasks)
            """})
        findings = check_picklability(graph)
        assert [f.code for f in findings] == ["RPR102"]
        assert "nested function" in findings[0].message

    def test_module_level_function_ok(self, tmp_path):
        graph = build_graph(tmp_path, {"repro/app.py": """\
            from repro.parallel import run_tasks

            def work(t):
                return t

            def main(tasks):
                return run_tasks(work, tasks)
            """})
        assert check_picklability(graph) == []

    def test_partial_over_module_function_ok(self, tmp_path):
        graph = build_graph(tmp_path, {"repro/app.py": """\
            from functools import partial
            from repro.parallel import run_tasks

            def work(k, t):
                return k * t

            def main(tasks):
                return run_tasks(partial(work, 3), tasks)
            """})
        assert check_picklability(graph) == []

    def test_partial_over_lambda_flagged(self, tmp_path):
        graph = build_graph(tmp_path, {"repro/app.py": """\
            from functools import partial
            from repro.parallel import run_tasks

            def main(tasks):
                return run_tasks(partial(lambda t: t), tasks)
            """})
        findings = check_picklability(graph)
        assert [f.code for f in findings] == ["RPR102"]

    def test_parameter_chase_through_wrapper(self, tmp_path):
        # The campaign runner's indirection: run_tasks sees a parameter;
        # the offending lambda lives one caller up.
        graph = build_graph(tmp_path, {"repro/app.py": """\
            from repro.parallel import run_tasks

            def sweep(fn, tasks):
                return run_tasks(fn, tasks)

            def main(tasks):
                return sweep(lambda t: t, tasks)
            """})
        findings = check_picklability(graph)
        assert [f.code for f in findings] == ["RPR102"]
        assert "arrives via parameter 'fn'" in findings[0].message

    def test_parameter_from_clean_caller_ok(self, tmp_path):
        graph = build_graph(tmp_path, {"repro/app.py": """\
            from repro.parallel import run_tasks

            def work(t):
                return t

            def sweep(fn, tasks):
                return run_tasks(fn, tasks)

            def main(tasks):
                return sweep(work, tasks)
            """})
        assert check_picklability(graph) == []


class TestMutationInjection:
    """Inject a wall-clock read 3 levels below a Station method in a
    copy of the real tree and require the full chain in the finding."""

    def test_injected_chain_is_reported(self, tmp_path):
        mutated = tmp_path / "src"
        shutil.copytree(REPO_SRC, mutated)
        station = mutated / "repro" / "sim" / "station.py"
        source = station.read_text()
        anchor = "    def _start("
        assert anchor in source, "Station._start moved; update the mutation"
        injected_method = textwrap.dedent("""\
            def _begin_service(self):
                return _svc_probe_a()

        """)
        source = source.replace(
            anchor, textwrap.indent(injected_method, "    ") + anchor, 1
        )
        source += textwrap.dedent("""\


            def _svc_probe_a():
                return _svc_probe_b()


            def _svc_probe_b():
                import time
                return time.time()
            """)
        station.write_text(source)

        report = analyze_project([mutated])
        hits = [
            f for f in report.findings
            if f.code == "RPR101" and "time.time()" in f.message
            and "Station._begin_service" in f.message
        ]
        assert len(hits) == 1, [f.render() for f in report.findings]
        f = hits[0]
        # Full interprocedural chain, root to sink.
        assert "Station._begin_service → _svc_probe_a → _svc_probe_b" in f.message
        # Anchored at the injected time.time() line in station.py.
        assert f.path.endswith("station.py")
        lines = station.read_text().splitlines()
        assert "time.time()" in lines[f.line - 1]
