"""Compare two sets of benchmark results metric by metric.

For each workload and end-to-end metric it prints both sides' median
and quartiles and the ratio of the new median to the base median.  A
metric is a regression only when its median is worse than the base by
more than the bound ``BENCHMARK.json`` fixes for it.  Where either
side's spread (quartile distance over median) exceeds that bound, the
result is "unresolved", unless every new run reads better than every
base run.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from pathlib import Path

__all__ = ["Row", "load_results", "compare_metric", "compare", "render"]


@dataclass(frozen=True)
class Row:
    workload: str
    metric: str
    unit: str
    base: tuple[float, float, float]  # (q1, median, q3)
    new: tuple[float, float, float]
    ratio: float
    verdict: str


def load_results(path: str | Path) -> list[dict]:
    """Untraced, correct result documents from a file or a directory of them."""
    path = Path(path)
    files = sorted(path.rglob("*.json")) if path.is_dir() else [path]
    docs = []
    for f in files:
        doc = json.loads(f.read_text(encoding="utf-8"))
        if isinstance(doc, dict) and doc.get("kind") == "perfbench-result":
            if doc.get("trace") == 0 and doc.get("correct"):
                docs.append(doc)
    return docs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def _spread(q: tuple[float, float, float]) -> float:
    return (q[2] - q[0]) / abs(q[1]) if q[1] else float("inf")


def compare_metric(base: list[float], new: list[float], better: str, bound: float) -> tuple:
    """``(base quartiles, new quartiles, ratio, verdict)`` for one metric."""
    qb, qn = quartiles(base), quartiles(new)
    ratio = qn[1] / qb[1] if qb[1] else float("inf")
    if better == "lower":
        worse = ratio - 1.0
        all_better = max(new) < min(base)
    else:
        worse = 1.0 - ratio
        all_better = min(new) > max(base)
    if all_better:
        verdict = "better"
    elif max(_spread(qb), _spread(qn)) > bound:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "REGRESSION"
    elif worse < -bound:
        verdict = "better"
    else:
        verdict = "within bound"
    return qb, qn, ratio, verdict


def compare(base_docs: list[dict], new_docs: list[dict], bench: dict) -> list[Row]:
    rows = []
    workloads = [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        b = [d for d in base_docs if d["workload"] == workload]
        n = [d for d in new_docs if d["workload"] == workload]
        if not b or not n:
            continue
        for spec in bench["end_to_end"]:
            name = spec["name"]
            bv = [d["metrics"][name]["value"] for d in b if name in d["metrics"]]
            nv = [d["metrics"][name]["value"] for d in n if name in d["metrics"]]
            if not bv or not nv:
                continue
            qb, qn, ratio, verdict = compare_metric(bv, nv, spec["better"], spec["bound"])
            rows.append(Row(workload, name, spec["unit"], qb, qn, ratio, verdict))
    return rows


def render(rows: list[Row], counts: dict[str, tuple[int, int]]) -> str:
    lines = [
        f"{'workload':<17} {'metric':<19} {'base median [q1, q3]':>34} "
        f"{'new median [q1, q3]':>34} {'new/base':>9}  verdict"
    ]
    for r in rows:
        def fmt(q):
            return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}] {r.unit}"
        lines.append(
            f"{r.workload:<17} {r.metric:<19} {fmt(r.base):>34} {fmt(r.new):>34} "
            f"{r.ratio:>9.4f}  {r.verdict}"
        )
    for workload, (nb, nn) in counts.items():
        lines.append(f"{workload}: {nb} base run(s), {nn} new run(s)")
    return "\n".join(lines)
