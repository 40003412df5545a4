"""Golden-result regression: pin a campaign's summaries, diff drift.

The pinned matrix (``scenarios/golden/``) is the repo's answer to the
quiet-regression problem: a refactor that shifts a latency percentile
by a few percent breaks no unit test, but it silently moves the
edge-vs-cloud crossovers the paper's claims hang on.  The golden file
commits every scenario's full metric mapping; CI re-runs the campaign
and :func:`diff_golden` compares value-by-value under explicit
tolerances, reporting *which metric of which scenario drifted by how
much* — not just "files differ".

The default tolerances are near-exact (``rtol=1e-9``) because the
simulator is deterministic per seed: legitimate changes to golden
numbers should be rare, reviewed events (``repro campaign FILE
--update-golden EXPECTED``), not noise to be absorbed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from repro.campaign.runner import CampaignResult
from repro.campaign.spec import GoldenTolerance

from repro.experiments import schema as wire

__all__ = ["GoldenDrift", "golden_summary", "write_golden", "load_golden", "diff_golden"]


@dataclass(frozen=True)
class GoldenDrift:
    """One divergence between a campaign run and its pinned summary."""

    scenario: str
    metric: str
    expected: float | None
    actual: float | None
    delta: float | None

    def render(self) -> str:
        if self.expected is None:
            return f"{self.scenario}: unexpected metric/scenario {self.metric!r} (not pinned)"
        if self.actual is None:
            return f"{self.scenario}: missing pinned metric/scenario {self.metric!r}"
        return (
            f"{self.scenario}: {self.metric} drifted "
            f"{self.expected!r} -> {self.actual!r} (delta {self.delta:+.6g})"
        )


def golden_summary(result: CampaignResult) -> dict:
    """JSON-safe pinnable summary of a campaign run: an enveloped
    ``golden-summary`` document (:mod:`repro.experiments.schema`)."""
    return wire.dump_golden_summary(result)


def write_golden(result: CampaignResult, path: str | Path) -> Path:
    """Pin ``result`` as the expected summary at ``path``."""
    return wire.dump(golden_summary(result), path)


def load_golden(path: str | Path) -> dict:
    """Load a pinned summary, refusing anything but an enveloped
    ``golden-summary`` loudly with a :class:`ValueError` naming the file."""
    path = Path(path)
    data = json.loads(path.read_text(encoding="utf-8"))
    try:
        return wire.load_golden_summary(data)
    except wire.WireFormatError as exc:
        raise ValueError(f"{path} is not a golden campaign summary: {exc}") from exc


def diff_golden(
    result: CampaignResult,
    expected: dict,
    tolerance: GoldenTolerance | None = None,
) -> list[GoldenDrift]:
    """Compare a run to its pinned summary; return the drifts.

    Every drift names the scenario, the metric, both values and the
    delta.  Structural differences (scenario present on one side only,
    quarantine-set changes) are reported as drifts with a ``None`` side.
    The comparison passes when ``abs(actual - expected) <= atol +
    rtol * abs(expected)`` per metric.
    """
    tol = tolerance or GoldenTolerance()
    drifts: list[GoldenDrift] = []
    pinned = expected.get("scenarios", {})

    for name, run in result.runs.items():
        if name not in pinned:
            drifts.append(GoldenDrift(name, "<scenario>", None, None, None))
            continue
        want = pinned[name].get("metrics", {})
        for metric, actual in run.metrics.items():
            if metric not in want:
                drifts.append(GoldenDrift(name, metric, None, actual, None))
                continue
            exp = float(want[metric])
            if not math.isclose(actual, exp, rel_tol=tol.rtol, abs_tol=tol.atol):
                drifts.append(GoldenDrift(name, metric, exp, actual, actual - exp))
        for metric in want:
            if metric not in run.metrics:
                drifts.append(GoldenDrift(name, metric, float(want[metric]), None, None))
    for name in pinned:
        if name not in result.runs:
            drifts.append(GoldenDrift(name, "<scenario>",
                                      float(len(pinned[name].get("metrics", {}))),
                                      None, None))

    want_q = {(n, r) for n, r in expected.get("quarantined", [])}
    have_q = {(q.name, q.reason) for q in result.quarantined}
    for name, reason in sorted(have_q - want_q):
        drifts.append(GoldenDrift(name, f"<quarantined:{reason}>", None, None, None))
    for name, reason in sorted(want_q - have_q):
        drifts.append(GoldenDrift(name, f"<quarantined:{reason}>", 1.0, None, None))
    return drifts
