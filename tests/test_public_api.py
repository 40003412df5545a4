"""Public-API surface tests: every documented export exists and imports.

A release-gate test: `__all__` in each package must resolve, and the
lazy top-level exports must work (PEP 562 indirection is easy to break
silently when moving symbols)."""

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

import numpy as np
from repro.stats.ci import batch_means_ci

batch_means_ci(np.arange(100.0))
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
