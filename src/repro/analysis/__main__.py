"""CLI for the static-analysis pass.

Usage::

    python -m repro.analysis src tests                  # human output
    python -m repro.analysis src tests --format json    # CI / tooling
    python -m repro.analysis src tests \\
        --baseline analysis-baseline.json \\
        --sarif analysis.sarif                          # the CI gate
    python -m repro.analysis src tests --update-baseline
    python -m repro.analysis --list-rules               # rule catalog
    python -m repro.analysis --explain RPR101           # one rule, long form

Every run is one uncached pass over both tiers: the per-file leaf rules
(RPR001…) and the whole-program call-graph analyses (RPR101 purity,
RPR102 picklability, RPR103 seed flow).  It writes no file besides the
``--sarif`` report and the ``--update-baseline`` baseline.

Exit status: 0 when clean — with ``--baseline``, when no *new* finding
appears (baselined findings are reported but do not fail the gate);
1 when the gate fails; 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.baseline import Baseline, update_baseline
from repro.analysis.engine import (
    Finding,
    registered_rules,
    render_json,
    render_text,
)
from repro.analysis.project import analyze_project
from repro.analysis.purity import PICKLE_INFO, PURITY_INFO
from repro.analysis.sarif import render_sarif
from repro.analysis.seedflow import SEEDFLOW_INFO

_ANALYSES = (PURITY_INFO, PICKLE_INFO, SEEDFLOW_INFO)


def _explain(code: str) -> int:
    """Print the long-form description of one code."""
    for info in _ANALYSES:
        if info.code == code:
            print(f"{info.code}  {info.summary}\n")
            print(info.explain)
            return 0
    for cls in registered_rules():
        if cls.code == code:
            print(f"{cls.code}  {cls.summary}\n")
            doc = (cls.__doc__ or "").strip()
            if doc:
                print(doc)
            return 0
    print(f"unknown code: {code}", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.analysis",
        description="Project-specific static analysis (determinism, units, protocols).",
    )
    parser.add_argument(
        "paths", nargs="*", help="files or directories to analyze (e.g. src tests)"
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    parser.add_argument(
        "--explain", metavar="RPRnnn",
        help="print the long-form rationale for one code and exit",
    )
    parser.add_argument(
        "--baseline", metavar="PATH", type=Path,
        help="compare against this baseline; only NEW findings fail the gate",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline from the current findings "
             "(preserves existing justifications) and exit 0",
    )
    parser.add_argument(
        "--sarif", metavar="PATH", type=Path,
        help="additionally write a SARIF 2.1.0 report to PATH",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for cls in registered_rules():
            print(f"{cls.code}  {cls.summary}")
        for info in _ANALYSES:
            print(f"{info.code}  {info.summary}")
        return 0
    if args.explain:
        return _explain(args.explain)
    if not args.paths:
        parser.error("no paths given (try: python -m repro.analysis src tests)")
    if args.update_baseline and args.baseline is None:
        parser.error("--update-baseline requires --baseline PATH")

    try:
        report = analyze_project(args.paths)
    except FileNotFoundError as exc:
        parser.error(str(exc))

    findings: list[Finding] = report.findings

    baseline: Baseline | None = None
    gate_failed = bool(findings)
    new_findings = findings
    if args.baseline is not None:
        baseline = Baseline.load(args.baseline)
        if args.update_baseline:
            update_baseline(baseline, findings).save(args.baseline)
            print(f"baseline updated: {len(findings)} finding(s) recorded "
                  f"in {args.baseline}")
            return 0
        diff = baseline.compare(findings)
        new_findings = diff.new
        gate_failed = bool(diff.new)
        for entry in diff.stale:
            print(f"stale baseline entry {entry.fingerprint} "
                  f"({entry.path}: {entry.code}) — run --update-baseline",
                  file=sys.stderr)

    if args.sarif is not None:
        args.sarif.write_text(render_sarif(findings, baseline=baseline))

    render = render_json if args.format == "json" else render_text
    print(render(findings, report.files_checked))
    for name, (caller, line) in sorted(report.unknown_dispatch.items()):
        print(f"note: dynamic dispatch on {name!r} not resolved "
              f"(first at {caller}:{line})", file=sys.stderr)
    if args.baseline is not None and gate_failed:
        print(f"{len(new_findings)} new finding(s) not in baseline "
              f"{args.baseline}", file=sys.stderr)
    return 1 if gate_failed else 0


if __name__ == "__main__":
    sys.exit(main())
