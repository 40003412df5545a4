"""One analysis pass over a project: both tiers, no cache.

:func:`analyze_project` parses each file once and runs the per-file
rule pack on the tree.  For ``repro.*`` modules it also extracts the
call-graph :class:`~repro.analysis.callgraph.ModuleSummary` from the same
tree.  It then links those summaries and runs the whole-program passes
(purity RPR101, picklability RPR102, seed flow RPR103).

Suppressions are applied last, after leaf and whole-program findings
are merged per file.  So a ``# repro: noqa[RPR101]`` on a sink line works
exactly like a leaf-rule suppression, and stale-noqa reporting (RPR000)
sees both tiers.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.callgraph import ModuleSummary, extract_module, link
from repro.analysis.engine import (
    Finding,
    apply_suppressions,
    collect_raw_findings,
    iter_python_files,
    parse_file,
    suppressions_for,
)
from repro.analysis.purity import (
    DEFAULT_HOT_ROOTS,
    check_picklability,
    check_purity,
)
from repro.analysis.seedflow import check_seedflow

__all__ = ["ProjectReport", "analyze_project"]


@dataclass
class ProjectReport:
    """Everything one driver run produced."""

    findings: list[Finding]
    files_checked: int
    #: Dynamic-dispatch names the linker could not resolve: name ->
    #: first (caller qualname, line); reported once per name.
    unknown_dispatch: dict[str, tuple[str, int]]


def analyze_project(
    paths: Iterable[str | Path],
    *,
    roots: Sequence[str] = DEFAULT_HOT_ROOTS,
) -> ProjectReport:
    """Analyze every ``*.py`` under ``paths`` with both tiers."""
    files = list(iter_python_files(paths))
    raw: dict[str, list[Finding]] = {}
    noqa: dict[str, dict[int, set[str]]] = {}
    summaries: list[ModuleSummary] = []
    for path in files:
        key = str(path)
        ctx = parse_file(path)
        if isinstance(ctx, Finding):
            raw[key] = [ctx]
            continue
        raw[key] = collect_raw_findings(ctx)
        noqa[key] = suppressions_for(ctx.source)
        if ctx.module == "repro" or ctx.module.startswith("repro."):
            summaries.append(extract_module(ctx.module, key, ctx.tree))

    graph = link(summaries)
    for f in [*check_purity(graph, roots), *check_picklability(graph),
              *check_seedflow(graph)]:
        raw[f.path].append(f)

    findings: list[Finding] = []
    for key, found in raw.items():
        findings.extend(apply_suppressions(key, found, noqa.get(key, {})))
    return ProjectReport(sorted(findings), len(files), graph.unknown)
