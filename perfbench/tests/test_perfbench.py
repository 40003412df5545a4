"""Tests of the benchmark's own logic.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from compare import compare, compare_metric, quartiles  # noqa: E402
from layers import layer_metrics  # noqa: E402
from speed import PIECE_S, Sampler  # noqa: E402
from spans import (  # noqa: E402
    TARGETS,
    Patcher,
    Span,
    Tracer,
    covered_time,
    distribution_targets,
    outer_spans,
    self_times,
)


# -- compare ---------------------------------------------------------------------

def test_within_bound_is_not_a_regression():
    base = [10.0, 10.1, 9.9, 10.0, 10.05]
    new = [10.5, 10.6, 10.4, 10.5, 10.55]  # 5% slower, bound 10%
    *_, verdict = compare_metric(base, new, "lower", 0.10)
    assert verdict == "within bound"


def test_worse_beyond_bound_is_a_regression():
    base = [10.0, 10.1, 9.9, 10.0, 10.05]
    new = [12.0, 12.1, 11.9, 12.0, 12.05]
    qb, qn, ratio, verdict = compare_metric(base, new, "lower", 0.10)
    assert verdict == "REGRESSION"
    assert ratio == pytest.approx(1.2)
    assert qb[1] == pytest.approx(10.0) and qn[1] == pytest.approx(12.0)


def test_higher_is_better_direction():
    base = [100.0, 101.0, 99.0, 100.0]
    worse = [80.0, 81.0, 79.0, 80.0]
    better = [130.0, 131.0, 129.0, 130.0]
    assert compare_metric(base, worse, "higher", 0.10)[3] == "REGRESSION"
    assert compare_metric(base, better, "higher", 0.10)[3] == "better"


def test_wide_spread_is_unresolved():
    base = [10.0, 14.0, 8.0, 12.0, 9.0, 13.0]
    new = [12.5, 9.5, 14.5, 11.0, 13.0, 10.0]
    assert compare_metric(base, new, "lower", 0.10)[3] == "unresolved"


def test_wide_spread_but_every_new_run_better():
    base = [10.0, 14.0, 12.0, 13.0]
    new = [5.0, 7.0, 6.0, 9.5]
    assert compare_metric(base, new, "lower", 0.10)[3] == "better"


def test_quartiles_match_statistics_quantiles():
    import statistics

    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    q1, med, q3 = statistics.quantiles(values, n=4)
    assert quartiles(values) == (q1, med, q3)
    assert quartiles([2.0]) == (2.0, 2.0, 2.0)


def test_compare_reads_bounds_from_the_benchmark_file():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    def doc(wall):
        return {"workload": "fig7", "metrics": {"wall_s": {"value": wall, "unit": "s"}}}
    bound = next(m["bound"] for m in bench["end_to_end"] if m["name"] == "wall_s")
    base = [doc(10.0), doc(10.1), doc(9.9)]
    inside = [doc(10.0 * (1 + bound / 2)) for _ in range(3)]
    beyond = [doc(10.0 * (1 + 2 * bound)) for _ in range(3)]
    assert [(r.workload, r.metric, r.verdict) for r in compare(base, inside, bench)] == [
        ("fig7", "wall_s", "within bound")
    ]
    assert [r.verdict for r in compare(base, beyond, bench)] == ["REGRESSION"]


# -- host speed --------------------------------------------------------------------

def test_sampler_windows_take_pieces_out_and_scale_by_their_median():
    s = Sampler()
    s.starts = [1.0, 2.0, 3.0, 4.0]
    s.times = [PIECE_S, 2 * PIECE_S, 2 * PIECE_S, 4 * PIECE_S]
    assert s.lost(1.5, 3.5) == pytest.approx(4 * PIECE_S)
    assert s.scale(1.5, 3.5) == pytest.approx(0.5)
    assert s.scale(0.0, 5.0) == pytest.approx(0.5)
    assert s.lost(4.5, 5.0) == 0.0
    assert s.scale(4.5, 5.0, default=0.7) == 0.7
    with pytest.raises(RuntimeError):
        s.scale(4.5, 5.0)


def test_sampler_samples_then_restores_the_alarm_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with Sampler(interval=0.005) as s:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert len(s.times) >= 5 and all(t > 0 for t in s.times)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# -- span arithmetic ---------------------------------------------------------------

def nested_spans():
    root = Span("comparator", None, 0.0, 10.0)
    child = Span("runner", root, 1.0, 5.0)
    grandchild = Span("engine", child, 2.0, 4.0)
    inner = Span("engine", child, 4.0, 4.5)
    sibling = Span("summary", root, 6.0, 7.0)
    other_root = Span("schema", None, 12.0, 13.0)
    return [grandchild, inner, child, sibling, root, other_root]


def test_self_time_subtracts_child_spans():
    selfs = self_times(nested_spans())
    assert selfs["comparator"] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs["runner"] == pytest.approx(4.0 - 2.0 - 0.5)
    assert selfs["engine"] == pytest.approx(2.5)
    assert selfs["summary"] == pytest.approx(1.0)
    # Self times partition the covered time.
    assert sum(selfs.values()) == pytest.approx(10.0 + 1.0)


def test_outer_spans_skip_same_layer_nesting():
    a = Span("schema", None, 0.0, 4.0)
    b = Span("schema", a, 1.0, 3.0)
    c = Span("other", b, 1.5, 2.0)
    d = Span("schema", c, 1.6, 1.7)
    assert outer_spans([a, b, c, d], "schema") == [a]
    assert self_times([a, b, c, d])["schema"] == pytest.approx(4.0 - 0.5 + 0.1)


def test_covered_time_is_the_union_of_top_level_spans():
    spans = nested_spans() + [Span("x", None, 9.0, 12.5)]
    # [0, 10] u [9, 12.5] u [12, 13], clipped to [0, 12.8]
    assert covered_time(spans, 0.0, 12.8) == pytest.approx(12.8)
    assert covered_time(spans, 0.0, 20.0) == pytest.approx(13.0)
    assert covered_time([], 0.0, 1.0) == 0.0


def test_layer_metrics_list_matches_the_benchmark_file():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in bench["per_layer"]}
    got = set(layer_metrics(nested_spans(), start=0.0, end=13.0, dispatch_ns=500.0))
    assert got | {"bench.trace_overhead_frac"} == names


# -- wrapping ----------------------------------------------------------------------

def all_targets():
    return [*TARGETS, *distribution_targets()]


def bindings(targets):
    out = []
    for t in targets:
        owner, attr = Patcher._owner(t)
        out.append(vars(owner)[attr])
    return out


def test_every_wrapper_is_removed_after_a_traced_run():
    targets = all_targets()
    before = bindings(targets)
    tracer = Tracer()
    with Patcher(tracer, targets) as patcher:
        during = bindings(targets)
        assert all(a is not b for a, b in zip(before, during))
        from repro.core.comparator import EdgeCloudComparator
        from repro.core.scenarios import TYPICAL_CLOUD

        cmp_ = EdgeCloudComparator(TYPICAL_CLOUD, requests_per_site=300, seed=3, engine="des")
        cmp_.measure_point(TYPICAL_CLOUD.rate_for_utilization(0.5))
    after = bindings(targets)
    assert all(a is b for a, b in zip(before, after))
    assert patcher.leftovers() == []
    names = {s.name for s in tracer.spans}
    assert {"comparator", "runner", "engine", "tracing", "summary", "distributions"} <= names
    engine = [s for s in tracer.spans if s.name == "engine"]
    assert all(s.parent is not None and s.parent.name == "runner" for s in engine)
    events = sum(s.n for s in engine)
    requests = sum(s.n for s in tracer.spans if s.name == "tracing")
    assert requests > 0 and 3.5 < events / requests < 4.5


def test_wrappers_are_removed_when_the_run_raises():
    targets = all_targets()
    before = bindings(targets)
    with pytest.raises(RuntimeError), Patcher(Tracer(), targets):
        raise RuntimeError("boom")
    assert all(a is b for a, b in zip(before, bindings(targets)))


def test_nested_patchers_restore_in_order():
    targets = all_targets()
    before = bindings(targets)
    outer = Patcher(Tracer(), targets[:3])
    inner = Patcher(Tracer(), targets)
    with outer, inner:
        pass
    assert all(a is b for a, b in zip(before, bindings(targets)))
    assert inner.leftovers() == [] and outer.leftovers() == []
