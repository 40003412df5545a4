"""Analyzer-cost guard: whole-program analysis must stay cheap.

Runs ``repro.analysis`` once over the real tree — parse everything, run
the leaf rules, link the call graph, run the three whole-program checks
— and asserts **cold ≤ 30 s**: a full analysis of ``src/`` + ``tests/``
is a pre-commit-scale cost, not a CI-only one.

Measurements go to ``BENCH_analysis.json`` at the repo root.

Run with::

    pytest benchmarks/test_analysis_perf.py -s
"""

import json
import time
from pathlib import Path

from repro.analysis.project import analyze_project

REPO = Path(__file__).resolve().parents[1]
BENCH_PATH = REPO / "BENCH_analysis.json"

TARGETS = [REPO / "src", REPO / "tests"]

MAX_COLD_SECONDS = 30.0


class TestAnalysisPerf:
    def test_cold_analysis_is_precommit_scale(self):
        t0 = time.perf_counter()
        cold = analyze_project(TARGETS)
        cold_s = time.perf_counter() - t0

        payload = {
            "files_checked": cold.files_checked,
            "cold_seconds": round(cold_s, 4),
            "findings": len(cold.findings),
            "gates": {"max_cold_seconds": MAX_COLD_SECONDS},
        }
        BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nanalysis bench: {json.dumps(payload)}")
        assert cold_s <= MAX_COLD_SECONDS, (
            f"cold analysis took {cold_s:.1f}s > {MAX_COLD_SECONDS}s"
        )
