"""Interprocedural purity/taint and picklability analyses (RPR101/RPR102).

Built on the :mod:`repro.analysis.callgraph` project graph, these passes
answer the questions the per-file rules cannot:

* **RPR101 — hot-path purity.**  Compute every function transitively
  reachable from the simulation hot roots (:data:`DEFAULT_HOT_ROOTS`) and
  flag any reachable taint sink: wall-clock reads, global/unseeded RNG
  draws, ``os.environ`` reads, and unordered-set iteration.  The finding
  carries the *full call chain* (``Simulation.run → _dispatch → handler:
  time.time()``), anchored at the sink's file and line so a plain
  ``# repro: noqa[RPR101] -- reason`` on that line suppresses it.
* **RPR102 — task-callable picklability.**  Every callable handed to
  ``run_tasks`` must resolve to a module-level picklable target.
  Lambdas, nested functions and ``functools.partial`` wrappers around
  either are flagged at the call site; a callable that arrives through a
  *parameter* (the campaign runner's indirection) is chased through the
  call graph's reverse edges up to :data:`PARAM_CHASE_DEPTH` caller
  levels.

Both passes only see what the call graph indexes (``repro.*`` modules of
the analyzed paths); dynamic dispatch the linker could not resolve is
reported once per name through :class:`~repro.analysis.callgraph.
CallGraph.unknown` rather than silently dropped.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.analysis.callgraph import (
    CallGraph,
    CallRecord,
    FunctionSummary,
    ModuleSummary,
    render_chain,
    shortest_chains,
)
from repro.analysis.engine import Finding

__all__ = [
    "PURITY_CODE",
    "PICKLE_CODE",
    "DEFAULT_HOT_ROOTS",
    "PARAM_CHASE_DEPTH",
    "AnalysisInfo",
    "PURITY_INFO",
    "PICKLE_INFO",
    "check_purity",
    "check_picklability",
]

PURITY_CODE = "RPR101"
PICKLE_CODE = "RPR102"

#: Levels of reverse-edge chasing when a task callable is a parameter.
PARAM_CHASE_DEPTH = 3

#: The seeded-simulation entry points every figure flows through.  A
#: sink reachable from any of these silently invalidates bit-identical
#: replay; fnmatch patterns are matched against function qualnames.
DEFAULT_HOT_ROOTS: tuple[str, ...] = (
    "repro.sim.engine.Simulation.run",
    "repro.sim.station.Station.*",
    "repro.sim.client.*",
    "repro.sim.fastsim.simulate_*",
    "repro.core.comparator.EdgeCloudComparator.measure_point",
)


@dataclass(frozen=True)
class AnalysisInfo:
    """Catalog entry for a whole-program analysis (mirrors Rule metadata)."""

    code: str
    summary: str
    explain: str


PURITY_INFO = AnalysisInfo(
    code=PURITY_CODE,
    summary="impure call (wall-clock/global-RNG/environ/set-iteration) "
            "reachable from a simulation hot root",
    explain=(
        "The whole-program pass walks the project call graph from the "
        "simulation hot roots (Simulation.run, Station and source event "
        "handlers, fastsim.simulate_*, EdgeCloudComparator.measure_point) "
        "and flags any transitively reachable wall-clock read, global or "
        "unseeded RNG draw, os.environ read, or unordered-set iteration. "
        "Unlike the per-file rule RPR001, the offending call may live in "
        "any module — the finding reports the full call chain "
        "(a → b → c: time.time()) and anchors at the sink line, where a "
        "`# repro: noqa[RPR101] -- reason` suppression applies."
    ),
)

PICKLE_INFO = AnalysisInfo(
    code=PICKLE_CODE,
    summary="task callable handed to run_tasks does not resolve to a "
            "module-level picklable target",
    explain=(
        "Process pools pickle the task callable, so it must resolve to a "
        "module-level function. This pass checks every run_tasks call "
        "site in the graph — including callables wrapped in "
        "functools.partial and callables that arrive through a "
        "caller's parameter (the campaign runner's indirection), chased "
        f"up to {PARAM_CHASE_DEPTH} caller levels through the call graph."
    ),
)


# --------------------------------------------------------------------------
# RPR101 — purity/taint reachability
# --------------------------------------------------------------------------

_SINK_LABEL = {
    "wall-clock": "wall-clock call",
    "global-rng": "global/unseeded RNG",
    "environ": "environment read",
    "set-iteration": "unordered-set iteration",
}


def check_purity(
    graph: CallGraph, roots: Iterable[str] = DEFAULT_HOT_ROOTS
) -> list[Finding]:
    """Flag every taint sink reachable from the hot roots, with its chain."""
    chains = shortest_chains(graph, roots)
    findings: list[Finding] = []
    for qualname in sorted(chains):
        entry = graph.functions.get(qualname)
        if entry is None:
            continue
        summary, fn = entry
        for sink in fn.sinks:
            chain = render_chain(chains[qualname])
            label = _SINK_LABEL.get(sink.kind, sink.kind)
            findings.append(Finding(
                path=summary.path,
                line=sink.line,
                col=sink.col,
                code=PURITY_CODE,
                message=(
                    f"{label} {sink.detail} is reachable from hot root "
                    f"{_root_of(chains[qualname])} via {chain}: "
                    f"{sink.detail} breaks bit-identical replay on the "
                    "simulation hot path"
                ),
            ))
    return findings


def _root_of(chain: Sequence[str]) -> str:
    head = chain[0]
    parts = head.split(".")
    return ".".join(parts[-2:]) if len(parts) >= 2 else head


# --------------------------------------------------------------------------
# RPR102 — picklability reachability
# --------------------------------------------------------------------------


def check_picklability(graph: CallGraph) -> list[Finding]:
    """Verify every ``run_tasks`` task callable pickles."""
    findings: list[Finding] = []
    for qualname in sorted(graph.functions):
        summary, fn = graph.functions[qualname]
        for call in fn.calls:
            if not call.fn_arg:
                continue
            if not _targets_runner(graph, qualname, call):
                continue
            problem = _diagnose(graph, summary, fn, call.fn_arg, depth=0)
            if problem is not None:
                findings.append(Finding(
                    path=summary.path,
                    line=call.line,
                    col=call.col,
                    code=PICKLE_CODE,
                    message=(
                        f"task callable handed to {call.target} in "
                        f"{_short_name(qualname)} {problem}; process pools "
                        "pickle the callable, so it must be a module-level "
                        "function (or a partial over one)"
                    ),
                ))
    return findings


def _short_name(qualname: str) -> str:
    parts = qualname.split(".")
    return ".".join(parts[-2:]) if len(parts) >= 2 else qualname


def _targets_runner(graph: CallGraph, caller_qual: str,
                    call: CallRecord) -> bool:
    """True when the call site really targets the parallel substrate."""
    leaf = call.target.rsplit(".", 1)[-1]
    if leaf != "run_tasks":
        return False
    # If the linker resolved the call, require the repro.parallel target;
    # an unresolvable bare name is assumed to be the real runner.
    resolved = [
        q for q in graph.edges.get(caller_qual, [])
        if q.rsplit(".", 1)[-1] == leaf
    ]
    if resolved:
        return any(q.startswith("repro.parallel.") for q in resolved)
    return True


def _diagnose(graph: CallGraph, summary: ModuleSummary, fn: FunctionSummary,
              descriptor: str, depth: int) -> str | None:
    """Return the problem with a task-callable descriptor, or None if OK."""
    if descriptor == "lambda":
        return "is a lambda, which cannot pickle"
    if descriptor.startswith("partial:"):
        inner = descriptor.split(":", 1)[1]
        if inner == "?":
            return None  # partial over something unresolvable: benefit of doubt
        problem = _diagnose(graph, summary, fn, inner, depth)
        if problem is not None:
            return f"wraps a partial whose target {problem}"
        return None
    if descriptor.startswith("call:"):
        return None  # a factory call: assumed to build a picklable callable
    if not descriptor.startswith("name:"):
        return None
    name = descriptor.split(":", 1)[1]
    head = name.split(".")[0]
    if name == head and head in fn.params:
        return _chase_parameter(graph, fn, head, depth)
    # A local variable? The extractor types `x = partial(f)` constructor
    # assignments into local_types, where the raw string is "partial".
    local = fn.local_types.get(head, "")
    if local.rsplit(".", 1)[-1] == "partial":
        return None  # partial over locals: the arg descriptor already checked
    # Nested function defined inside this (or an enclosing) function?
    nested_qual = f"{fn.qualname}.<locals>.{name}"
    if nested_qual in graph.functions:
        return f"is the nested function {name!r}, which cannot pickle"
    # Module-level resolution via the linker's tables.
    for qualname, (s, target_fn) in graph.functions.items():
        if s.module == summary.module and target_fn.name == name and (
            not target_fn.is_nested and not target_fn.class_name
        ):
            return None  # module-level function in the same module
    return None  # imported or attribute target: module-level by construction


def _chase_parameter(graph: CallGraph, fn: FunctionSummary, param: str,
                     depth: int) -> str | None:
    """The callable is ``fn``'s parameter: inspect what callers pass.

    Only the *leading* callable argument of each caller's call site is
    recorded in the summaries, so the chase covers the idiomatic wrapper
    shape (``sweep(measure, ...)`` → ``run_tasks(fn, ...)``) — a callable
    threaded through a later positional slot is conservatively trusted.
    """
    if depth >= PARAM_CHASE_DEPTH:
        return None
    leading = [p for p in fn.params if p != "self"]
    if not leading or leading[0] != param:
        return None
    for caller_qual in graph.callers_of(fn.qualname):
        caller_summary, caller_fn = graph.functions[caller_qual]
        for call in caller_fn.calls:
            if call.fn_arg and call.target.rsplit(".", 1)[-1] == fn.name:
                problem = _diagnose(graph, caller_summary, caller_fn,
                                    call.fn_arg, depth + 1)
                if problem is not None:
                    return (
                        f"arrives via parameter {param!r} from "
                        f"{_short_name(caller_qual)} and {problem}"
                    )
    return None
