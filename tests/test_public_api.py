"""Public-API surface tests: every documented export exists and imports.

A release-gate test: `__all__` in each package must resolve, and the
lazy top-level exports must work (PEP 562 indirection is easy to break
silently when moving symbols)."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGES = [
    "repro",
    "repro.api",
    "repro.queueing",
    "repro.sim",
    "repro.workload",
    "repro.core",
    "repro.mitigation",
    "repro.stats",
    "repro.experiments",
    "repro.experiments.schema",
    "repro.campaign",
    "repro.obs",
    "repro.parallel",
    "repro.service",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    mod = importlib.import_module(package)
    for name in getattr(mod, "__all__", []):
        assert getattr(mod, name) is not None, f"{package}.{name} missing"


def test_top_level_lazy_exports():
    import repro

    assert repro.EdgeCloudComparator is not None
    assert repro.TYPICAL_CLOUD.cloud_rtt_ms == 24.0
    assert callable(repro.cutoff_utilization_exact)


def test_top_level_unknown_attribute():
    import repro

    with pytest.raises(AttributeError):
        repro.does_not_exist


def test_dir_lists_exports():
    import repro

    assert "EdgeCloudComparator" in dir(repro)


def test_version_is_set():
    import repro

    assert repro.__version__


def test_cli_entrypoint_importable():
    from repro.cli import main

    assert callable(main)


def test_api_facade_exports_resolve():
    import repro.api as api

    for name in api.__all__:
        assert getattr(api, name) is not None, f"repro.api.{name} missing"


def test_api_facade_matches_deep_imports():
    """The facade re-exports the same objects, not copies."""
    import repro.api as api
    from repro.campaign import run_campaign
    from repro.experiments.result import run_experiment

    assert api.run_campaign is run_campaign
    assert api.run_experiment is run_experiment


REPO = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/*.md")


def _doc_imports(text):
    """Each ``from repro...`` / ``import repro...`` statement in a fenced block."""
    statements, fenced, pending = [], False, None
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("```"):
            fenced, pending = not fenced, None
        elif pending is not None:
            pending.append(stripped)
            if ")" in stripped:
                statements.append("\n".join(pending))
                pending = None
        elif fenced and stripped.startswith(("from repro", "import repro")):
            if "(" in stripped and ")" not in stripped:
                pending = [stripped]
            else:
                statements.append(stripped)
    return statements


def test_doc_imports_resolve():
    """Every ``repro`` import in the docs' code blocks resolves, name by name."""
    checked, failed = 0, []
    for pattern in DOCS:
        for doc in sorted(REPO.glob(pattern)):
            for statement in _doc_imports(doc.read_text()):
                node = ast.parse(statement).body[0]
                if isinstance(node, ast.ImportFrom):
                    imports = [f"from {node.module} import {a.name}" for a in node.names]
                else:
                    imports = [f"import {a.name}" for a in node.names]
                for line in imports:
                    checked += 1
                    try:
                        exec(line, {})
                    except ImportError as exc:
                        failed.append(f"{doc.relative_to(REPO)}: {line} ({exc})")
    assert checked and not failed, failed


def test_scipy_stays_off_the_import_path():
    """Importing the program and every analytic prediction load no SciPy;
    only a confidence interval imports ``scipy.stats``, on first use.

    Runs in a fresh interpreter: this process has SciPy loaded already.
    """
    child = """
import sys
import repro.api, repro.campaign, repro.cli, repro.experiments.figures, repro.service
from repro.core.comparator import EdgeCloudComparator
from repro.core.scenarios import TYPICAL_CLOUD
from repro.queueing.mmk import MMk

EdgeCloudComparator(TYPICAL_CLOUD).predict_cutoff_utilization()
MMk(5.0, 1.625, 8).response_time_percentile(0.95)
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, f"{len(loaded)} SciPy modules loaded: {loaded[:5]}"

from repro.stats.replications import ReplicationSummary

ReplicationSummary((1.0, 2.0, 3.0), 0.95).half_width
assert "scipy.stats" in sys.modules
"""
    _run_fresh(child)


def _run_fresh(child):
    """Run ``child`` in a fresh interpreter on this tree's ``src``."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", child], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _assert_loads_none(code, packages, modules):
    """``code`` loads no module under ``packages`` and none of ``modules``."""
    _run_fresh(
        f"import sys\n{code}\n"
        f"modules, packages = {modules!r}, {packages!r}\n"
        "loaded = sorted(m for m in sys.modules if m in modules or m.startswith(packages))\n"
        "assert not loaded, loaded\n"
    )


def test_comparator_imports_only_what_it_runs():
    """The comparator loads no experiment, campaign, service or
    mitigation code, and none of the simulator's or workload's models
    that Figure 7 never runs: package modules re-export nothing."""
    _assert_loads_none(
        "import repro.core.comparator",
        ("repro.experiments", "repro.campaign", "repro.service", "repro.mitigation"),
        (
            "repro.sim.resilience", "repro.sim.batching", "repro.sim.geo",
            "repro.sim.failures", "repro.sim.runner",
            "repro.workload.azure", "repro.workload.spatial", "repro.workload.arrivals",
            "repro.core.cost", "repro.core.placement", "repro.core.transient",
            "repro.stats.replications",
        ),
    )


def test_service_imports_no_figure_runner():
    """The campaign service loads neither the experiment registry nor
    the figure runners, the comparator or fastsim behind them: not on
    import, and not when it writes a finished job's result."""
    _assert_loads_none(
        "import repro.service, repro.campaign.loader, repro.campaign.golden\n"
        "from repro.campaign.runner import CampaignResult\n"
        "from repro.experiments import schema\n"
        "schema.dumps(CampaignResult('c', 0, 'digest'))",
        (),
        (
            "repro.experiments.result", "repro.experiments.figures",
            "repro.experiments.report", "repro.core.comparator", "repro.sim.fastsim",
            "repro.workload.azure", "repro.workload.spatial",
        ),
    )
