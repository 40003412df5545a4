"""Spans recorded around calls into the program's public entry points.

The benchmark never edits the program.  For a traced run,
:class:`Patcher` replaces each entry point named in :data:`TARGETS` with
a wrapper and puts the original object back when the run ends.  Every
wrapped call records one :class:`Span` (layer name, start, end, the span
of the wrapped call it happened inside, and a work count).  A layer's
self time is its spans' durations minus the durations of their child
spans, which are the calls they made into other wrapped entry points.
Spans stay in memory until :func:`write_spans` saves them.
"""

from __future__ import annotations

import functools
import importlib
import json
import re
import statistics
import threading
from collections import defaultdict
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from time import perf_counter

__all__ = [
    "Span",
    "Tracer",
    "Target",
    "Patcher",
    "TARGETS",
    "distribution_targets",
    "self_times",
    "outer_spans",
    "covered_time",
    "durations",
    "median_or_zero",
    "write_spans",
]


class Span:
    """One wrapped call: ``[start, end]`` in ``perf_counter`` seconds."""

    __slots__ = ("name", "parent", "start", "end", "n", "thread")

    def __init__(self, name: str, parent: "Span | None", start: float = 0.0,
                 end: float = 0.0, n: int = 0, thread: int = 0):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = end
        self.n = n
        self.thread = thread

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from every thread; each thread keeps its own stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             before: Callable | None, count: Callable | None):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span = Span(name, stack[-1] if stack else None,
                    thread=threading.get_ident())
        mark = before(args, kwargs) if before is not None else None
        stack.append(span)
        span.start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            stack.pop()
            self.spans.append(span)
        if count is not None:
            span.n = count(args, kwargs, result, mark)
        return result


@dataclass(frozen=True)
class Target:
    """One entry point: ``module`` plus ``attr`` (``"func"`` or ``"Class.method"``).

    ``count(args, kwargs, result, mark)`` gives the call's work count,
    where ``mark`` is what ``before(args, kwargs)`` returned just before
    the call.
    """

    module: str
    attr: str
    layer: str
    count: Callable | None = None
    before: Callable | None = None


# -- work counts -------------------------------------------------------------

def _scheduled(sim) -> int:
    """Events ever scheduled on ``sim``, read without advancing its counter."""
    seq = sim._seq
    if isinstance(seq, int):
        return seq
    match = re.fullmatch(r"count\((\d+)\)", repr(seq))
    if match is None:
        raise TypeError(f"cannot read the event sequence counter {seq!r}")
    return int(match.group(1))


def _executed(args, kwargs) -> int:
    """Events executed so far: scheduled minus still pending."""
    sim = args[0]
    return _scheduled(sim) - sim.pending_events


def _events_run(args, kwargs, result, mark) -> int:
    return _executed(args, kwargs) - mark


def _cached_rows(args, kwargs) -> int:
    """Rows the log's memoized breakdown already covered (0 if none)."""
    cache = getattr(args[0], "_cache", None)
    return 0 if cache is None else len(cache)


def _new_rows(args, kwargs, result, mark) -> int:
    """Completed requests a breakdown call saw for the first time."""
    return len(result) - mark


def _result_len(args, kwargs, result, mark) -> int:
    return len(result)


def _sample_size(args, kwargs, result, mark) -> int:
    size = args[2] if len(args) > 2 else kwargs.get("size")
    if size is None:
        return 1
    if isinstance(size, tuple):
        return int(functools.reduce(lambda a, b: a * b, size, 1))
    return int(size)


#: Entry points wrapped in a traced run, with the layer each belongs to.
#: Functions imported by name are wrapped where the calling module binds
#: them, since that binding is the one the call goes through.
TARGETS: tuple[Target, ...] = (
    Target("repro.sim.engine", "Simulation.run", "engine",
           count=_events_run, before=_executed),
    Target("repro.sim.tracing", "RequestLog.breakdown", "tracing",
           count=_new_rows, before=_cached_rows),
    Target("repro.core.comparator", "simulate_edge_system", "fastsim", count=_result_len),
    Target("repro.core.comparator", "simulate_single_queue_system", "fastsim",
           count=_result_len),
    Target("repro.core.comparator", "simulate_lb_system", "fastsim", count=_result_len),
    Target("repro.core.comparator", "EdgeCloudComparator.measure_point", "comparator"),
    Target("repro.core.comparator", "summarize", "summary"),
    Target("repro.campaign.executor", "summarize", "summary"),
    Target("repro.workload.trace", "RequestTrace.merge", "trace"),
    Target("repro.sim.runner", "run_deployment", "runner"),
    Target("repro.service.jobs", "compile_campaign", "campaign.compile"),
    Target("repro.service.jobs", "run_campaign", "parallel"),
    Target("repro.campaign.runner", "run_campaign", "parallel"),
    Target("repro.campaign.executor", "run_scenario", "campaign.scenario"),
    Target("repro.experiments.store", "RunJournal.put", "store"),
    *(
        Target("repro.experiments.schema", name, "schema")
        for name in (
            "dump_experiment_result",
            "dump_campaign_result",
            "dump_golden_summary",
            "dump_salvage_report",
            "dumps",
            "dump",
        )
    ),
)


def distribution_targets() -> list[Target]:
    """One target per ``sample`` implementation of a ``Distribution`` subclass."""
    from repro.queueing.distributions import Distribution

    found, todo = [], list(Distribution.__subclasses__())
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "sample" in cls.__dict__:
            found.append(Target(cls.__module__, f"{cls.__qualname__}.sample",
                                "distributions", count=_sample_size))
    return sorted(found, key=lambda t: (t.module, t.attr))


class Patcher:
    """Context manager: wrap every target on entry, restore on exit."""

    def __init__(self, tracer: Tracer, targets: Iterable[Target]):
        self.tracer = tracer
        self.targets = list(targets)
        self._saved: list[tuple[object, str, object]] = []

    @staticmethod
    def _owner(target: Target) -> tuple[object, str]:
        owner: object = importlib.import_module(target.module)
        *path, attr = target.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        if attr not in vars(owner):
            raise AttributeError(f"{target.module}.{target.attr} is not defined there")
        return owner, attr

    def _wrap(self, raw: object, target: Target) -> object:
        is_static = isinstance(raw, staticmethod)
        fn = raw.__func__ if is_static else raw
        if not callable(fn):
            raise TypeError(f"{target.module}.{target.attr} is not callable")
        tracer, layer, before, count = self.tracer, target.layer, target.before, target.count

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(layer, fn, args, kwargs, before, count)

        wrapper.perfbench_layer = layer
        return staticmethod(wrapper) if is_static else wrapper

    def __enter__(self) -> "Patcher":
        try:
            for target in self.targets:
                owner, attr = self._owner(target)
                raw = vars(owner)[attr]
                setattr(owner, attr, self._wrap(raw, target))
                self._saved.append((owner, attr, raw))
        except BaseException:
            self.restore()
            raise
        return self

    def restore(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)

    def __exit__(self, *exc) -> None:
        self.restore()

    def leftovers(self) -> list[str]:
        """Targets still bound to a wrapper (from this or any other patcher)."""
        out = []
        for owner, attr, _ in self._saved:
            bound = vars(owner)[attr]
            fn = bound.__func__ if isinstance(bound, staticmethod) else bound
            if hasattr(fn, "perfbench_layer"):
                out.append(f"{getattr(owner, '__qualname__', getattr(owner, '__name__', '?'))}.{attr}")
        return out


# -- span arithmetic -----------------------------------------------------------

def self_times(spans: Iterable[Span]) -> dict[str, float]:
    """Per layer: span durations minus the durations of their child spans."""
    spans = list(spans)
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[id(s.parent)] += s.duration
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += s.duration - child_time[id(s)]
    return dict(out)


def outer_spans(spans: Iterable[Span], name: str) -> list[Span]:
    """Spans of ``name`` not nested inside another span of the same name."""
    out = []
    for s in spans:
        if s.name != name:
            continue
        p = s.parent
        while p is not None and p.name != name:
            p = p.parent
        if p is None:
            out.append(s)
    return out


def covered_time(spans: Iterable[Span], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by at least one top-level span."""
    intervals = sorted(
        (max(s.start, start), min(s.end, end))
        for s in spans
        if s.parent is None and s.end > start and s.start < end
    )
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in intervals:
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def durations(spans: Iterable[Span], name: str) -> list[float]:
    return [s.duration for s in spans if s.name == name]


def median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def write_spans(spans: list[Span], path, origin: float, header: dict) -> None:
    """Write ``header`` and then the spans as JSON lines.

    Span times are seconds since ``origin``; ``parent`` is the line index
    of the parent span among the span lines.
    """
    index = {id(s): i for i, s in enumerate(spans)}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for i, s in enumerate(spans):
            fh.write(json.dumps({
                "id": i,
                "name": s.name,
                "parent": None if s.parent is None else index.get(id(s.parent)),
                "start": s.start - origin,
                "end": s.end - origin,
                "n": s.n,
                "thread": s.thread,
            }) + "\n")
