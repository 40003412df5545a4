"""Declarative scenario campaigns: schema, validation, matrix expansion.

The paper's inversion claims rest on a *cross product* of scenario axes
(arrival process × service CoV × RTT placement × queue discipline ×
admission × resilience policy × failure schedule).  Hand-written CLI
invocations cannot cover that space reliably; this module gives it a
declarative file format with validation strong enough that a malformed
scenario is caught *before* it poisons a multi-hundred-run sweep.

A campaign document (YAML or JSON — :mod:`repro.campaign.loader`) is::

    campaign: crossover-grid
    seed: 2021
    defaults:            # merged under every scenario
      duration: 120.0
    scenarios:           # explicit scenarios (optional)
      - name: typical-base
        rtt: typical
        utilization: 0.6
    matrix:              # cross-multiplied template blocks (optional)
      - name: grid
        axes:
          rtt: [typical, distant]
          utilization: [0.5, 0.7, 0.9]
        base:
          arrival: poisson
    budgets:             # per-scenario resource governors (optional)
      timeout: 120.0     # wall-clock seconds per scenario
      max_events: 2000000
      retries: 1

Validation is **dependency-free** (no jsonschema) and staged, with each
stage mapped to its own exit code for scripting (see
:data:`EXIT_PARSE` / :data:`EXIT_SCHEMA` / :data:`EXIT_SEMANTIC`):

1. *parse* — the file is not YAML/JSON at all;
2. *schema* — wrong shapes: unknown keys, wrong types, out-of-range
   single-field values.  Issues carry the field path
   (``scenarios[3].rate_per_site``) and, for YAML sources, the line;
3. *semantic* — cross-field and cross-scenario problems: an unstable
   open-loop rate with nothing bounding the queue, overlapping outage
   windows, duplicate scenario names.  Per-scenario semantic issues are
   additionally kept on :attr:`CampaignSpec.scenario_issues` so the
   campaign runner can *quarantine* the bad scenarios and still run the
   rest (``repro validate`` stays fail-fast).

Matrix expansion is deterministic: axes cross-multiply in declaration
order (row-major, first axis outermost), generated names are
``block/axis=value,...``, and every scenario's seed is derived from the
campaign seed and the scenario's *name* via
:mod:`repro.parallel.seeding` — re-loading, re-ordering sibling blocks,
or changing the worker count can never change a scenario's stream.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields, replace
from typing import Any

from repro.parallel.seeding import derive_seed

__all__ = [
    "EXIT_OK",
    "EXIT_PARSE",
    "EXIT_SCHEMA",
    "EXIT_SEMANTIC",
    "ARRIVALS",
    "DISCIPLINES",
    "ADMISSIONS",
    "RESILIENCE_MODES",
    "RTT_PRESETS",
    "ValidationIssue",
    "CampaignValidationError",
    "OutageSpec",
    "ScenarioSpec",
    "BudgetSpec",
    "GoldenTolerance",
    "CampaignSpec",
    "scenario_seed",
    "compile_campaign",
    "dump_campaign",
]

#: Process exit codes of ``repro validate`` (0 = valid; 1 is reserved
#: for unexpected crashes, 2 for argparse usage errors).
EXIT_OK = 0
EXIT_PARSE = 3
EXIT_SCHEMA = 4
EXIT_SEMANTIC = 5

_EXIT_BY_KIND = {"parse": EXIT_PARSE, "schema": EXIT_SCHEMA, "semantic": EXIT_SEMANTIC}

#: Named RTT placements (the paper's Section 4.1 deployments), mapped to
#: their cloud RTTs in milliseconds; the edge is 1 ms in all of them.
RTT_PRESETS = {
    "nearby": 15.0,
    "typical": 24.0,
    "distant": 54.0,
    "transcontinental": 80.0,
}

#: Arrival-process axis: Poisson (M), deterministic (D), uniform spread,
#: and a bursty hyper-exponential with configurable ``arrival_cv2``.
ARRIVALS = ("poisson", "deterministic", "uniform", "bursty")

#: Queue-discipline axis (PR 2's overload controls).
DISCIPLINES = ("fifo", "adaptive-lifo", "codel")

#: Admission-control axis.
ADMISSIONS = ("none", "occupancy", "aimd")

#: Client resilience axis (PR 1's request-level policies).
RESILIENCE_MODES = ("none", "retry", "retry+breaker")

#: Saturation rate of the calibrated DNN application model
#: (req/s/machine) — used only for the open-loop stability check;
#: the executor takes the authoritative value from the service model.
_SATURATION_RATE = 13.0

#: Seed-derivation stream reserved for campaign scenarios; disjoint from
#: task-index streams and the supervisor's retry stream.
_SCENARIO_STREAM = 0x5CE2


@dataclass(frozen=True)
class ValidationIssue:
    """One validation problem, addressed by field path (and line)."""

    path: str
    message: str
    line: int | None = None

    def render(self, source: str = "") -> str:
        where = f"{source}:" if source else ""
        if self.line is not None:
            where += f"{self.line}:"
        return f"{where} {self.path}: {self.message}" if self.path else f"{where} {self.message}"


class CampaignValidationError(ValueError):
    """A campaign document failed validation.

    ``kind`` is one of ``"parse"``, ``"schema"``, ``"semantic"`` —
    :attr:`exit_code` maps it to the ``repro validate`` exit code, so
    scripts can distinguish a typo'd file from a physically impossible
    scenario without parsing the message.
    """

    def __init__(self, kind: str, issues: list[ValidationIssue], source: str = ""):
        if kind not in _EXIT_BY_KIND:
            raise ValueError(f"unknown validation kind {kind!r}")
        self.kind = kind
        self.issues = list(issues)
        self.source = source
        lines = [issue.render(source) for issue in self.issues]
        super().__init__(
            f"{kind} error in campaign {source or 'document'} "
            f"({len(self.issues)} issue(s)):\n  " + "\n  ".join(lines)
        )

    @property
    def exit_code(self) -> int:
        return _EXIT_BY_KIND[self.kind]


def scenario_seed(campaign_seed: int, name: str) -> int:
    """Deterministic per-scenario seed: campaign seed × scenario name.

    The name is hashed (SHA-256) into two 32-bit path components under a
    dedicated SeedSequence stream, so a scenario's stream depends only
    on ``(campaign seed, name)`` — never on its position in the file,
    the expansion order of sibling matrix blocks, or the worker count.
    """
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    h0 = int.from_bytes(digest[:4], "big")
    h1 = int.from_bytes(digest[4:8], "big")
    return derive_seed(campaign_seed, _SCENARIO_STREAM, h0, h1)


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OutageSpec:
    """One forced outage window on the edge deployment.

    ``sites`` are edge-site indices (``None`` = every site, the
    correlated shared-cause regime).  Windows on one site must be
    disjoint — the same contract
    :meth:`repro.sim.failures.FailureInjector.schedule_outage` enforces
    at injection time, checked here at validation time instead so a bad
    outage plan never reaches the simulator.
    """

    start: float
    duration: float
    sites: tuple[int, ...] | None = None

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully-resolved scenario: every axis of the cross product.

    Instances come out of :func:`compile_campaign` with defaults merged,
    matrix axes substituted and ``seed`` resolved; the executor
    (:mod:`repro.campaign.executor`) consumes them as-is.
    """

    name: str
    rtt: str | None = "typical"          # preset name, or None with explicit RTTs
    cloud_rtt_ms: float = 24.0
    edge_rtt_ms: float = 1.0
    arrival: str = "poisson"
    arrival_cv2: float = 4.0             # bursty arrivals only
    service_cv2: float = 0.25
    sites: int = 5
    machines_per_site: int = 1
    rate_per_site: float | None = None
    utilization: float | None = None     # exactly one of the two is set
    duration: float = 300.0
    warmup_fraction: float = 0.2
    discipline: str = "fifo"
    codel_target: float = 0.25
    queue_capacity: int | None = None
    admission: str = "none"
    admission_limit: float = 3.0         # occupancy admission
    latency_target: float = 0.5          # AIMD admission
    resilience: str = "none"
    client_timeout: float = 1.5
    deadline: float = 6.0
    max_attempts: int = 3
    failures: tuple[OutageSpec, ...] = ()
    seed: int | None = None              # resolved by compile_campaign

    @property
    def implied_utilization(self) -> float:
        """Per-site utilization implied by the load fields."""
        if self.utilization is not None:
            return self.utilization
        assert self.rate_per_site is not None
        return self.rate_per_site / (self.machines_per_site * _SATURATION_RATE)

    @property
    def bounded(self) -> bool:
        """True when some mechanism bounds the queue under overload."""
        return (
            self.queue_capacity is not None
            or self.admission != "none"
            or self.discipline == "codel"
            or self.resilience != "none"
        )

    def to_mapping(self) -> dict[str, Any]:
        """Canonical JSON-safe mapping (full form, stable key order).

        Fields keep their declaration order.  A field is left out when
        it is unset (``None``, no outage windows) or when the scenario's
        axes do not use it (:data:`_USED_WHEN`), so a value that cannot
        change the run never changes the campaign digest either.
        """
        out: dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            used = _USED_WHEN.get(f.name)
            if value is None or value == () or (used and getattr(self, used[0]) not in used[1]):
                continue
            if isinstance(value, tuple):  # the outage windows
                value = [{"start": w.start, "duration": w.duration}
                         | ({} if w.sites is None else {"sites": list(w.sites)})
                         for w in value]
            out[f.name] = value
        return out


#: The rule of every scalar scenario field, declared once: the allowed
#: values of an axis, or the :func:`_check_number` bounds of a number.
#: A number without ``integer`` is stored as a float.
_SCALAR_FIELDS: dict[str, tuple[str, ...] | dict[str, Any]] = {
    "rtt": tuple(RTT_PRESETS),
    "cloud_rtt_ms": {"lo": 0.0, "lo_open": True},
    "edge_rtt_ms": {"lo": 0.0},
    "arrival": ARRIVALS,
    "arrival_cv2": {"lo": 1.0, "lo_open": True},
    "service_cv2": {"lo": 0.0},
    "sites": {"lo": 1, "integer": True},
    "machines_per_site": {"lo": 1, "integer": True},
    "rate_per_site": {"lo": 0.0, "lo_open": True},
    "utilization": {"lo": 0.0, "hi": 1.0, "lo_open": True, "hi_open": True},
    "duration": {"lo": 0.0, "lo_open": True},
    "warmup_fraction": {"lo": 0.0, "hi": 1.0, "hi_open": True},
    "discipline": DISCIPLINES,
    "codel_target": {"lo": 0.0, "lo_open": True},
    "queue_capacity": {"lo": 0, "integer": True},
    "admission": ADMISSIONS,
    "admission_limit": {"lo": 0.0, "lo_open": True},
    "latency_target": {"lo": 0.0, "lo_open": True},
    "resilience": RESILIENCE_MODES,
    "client_timeout": {"lo": 0.0, "lo_open": True},
    "deadline": {"lo": 0.0, "lo_open": True},
    "max_attempts": {"lo": 1, "integer": True},
    "seed": {"lo": 0, "integer": True},
}

#: Scalar fields that also accept null, which leaves them unset.
_NULLABLE = frozenset({"queue_capacity", "seed"})

#: Fields used only under some axis values: field -> (axis, values).
_USED_WHEN: dict[str, tuple[str, tuple[str | None, ...]]] = {
    "cloud_rtt_ms": ("rtt", (None,)),
    "edge_rtt_ms": ("rtt", (None,)),
    "arrival_cv2": ("arrival", ("bursty",)),
    "codel_target": ("discipline", ("codel",)),
    "admission_limit": ("admission", ("occupancy",)),
    "latency_target": ("admission", ("aimd",)),
    "client_timeout": ("resilience", ("retry", "retry+breaker")),
    "deadline": ("resilience", ("retry", "retry+breaker")),
    "max_attempts": ("resilience", ("retry", "retry+breaker")),
}


@dataclass(frozen=True)
class BudgetSpec:
    """Per-scenario resource governors for the campaign runner."""

    timeout: float | None = None     # wall-clock seconds per scenario attempt
    max_events: int | None = None    # simulator events per scenario
    retries: int = 1                 # bounded retries before quarantine


@dataclass(frozen=True)
class GoldenTolerance:
    """Tolerances of the golden-result differ (per metric, in ms units)."""

    rtol: float = 1e-9
    atol: float = 1e-12


@dataclass(frozen=True)
class CampaignSpec:
    """A compiled campaign: expanded scenarios plus run governance.

    ``scenarios`` is the full deterministic expansion (explicit list
    first, then matrix blocks in declaration order).  ``scenario_issues``
    maps scenario names to their *semantic* validation issues — empty
    for a fully valid campaign; the runner quarantines the named
    scenarios, while :meth:`require_valid` (the ``repro validate``
    contract) refuses the whole document.
    """

    name: str
    seed: int = 2021
    description: str = ""
    budgets: BudgetSpec = field(default_factory=BudgetSpec)
    tolerance: GoldenTolerance = field(default_factory=GoldenTolerance)
    scenarios: tuple[ScenarioSpec, ...] = ()
    scenario_issues: tuple[tuple[str, tuple[ValidationIssue, ...]], ...] = ()
    source: str = "<campaign>"

    @property
    def invalid_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.scenario_issues)

    def require_valid(self) -> "CampaignSpec":
        """Raise ``semantic`` if any scenario carries semantic issues."""
        if self.scenario_issues:
            issues = [i for _, group in self.scenario_issues for i in group]
            raise CampaignValidationError("semantic", issues, self.source)
        return self

    def digest(self) -> str:
        """Content hash of the expanded campaign (checkpoint scoping)."""
        doc = json.dumps(dump_campaign(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(doc.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Schema validation machinery (dependency-free)
# ---------------------------------------------------------------------------

class _Check:
    """Issue collector bound to one source document (and its line map)."""

    def __init__(self, lines: dict[str, int] | None):
        self.lines = lines or {}
        self.issues: list[ValidationIssue] = []

    def add(self, path: str, message: str) -> None:
        self.issues.append(ValidationIssue(path, message, self.lines.get(path)))

    def raise_if_any(self, kind: str, source: str) -> None:
        if self.issues:
            raise CampaignValidationError(kind, self.issues, source)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _join(prefix: str, key: str) -> str:
    return f"{prefix}.{key}" if prefix else key


_SCENARIO_FIELDS = {f.name for f in fields(ScenarioSpec)}


def _check_number(check: _Check, path: str, value: Any, *, lo: float | None = None,
                  hi: float | None = None, lo_open: bool = False,
                  hi_open: bool = False, integer: bool = False) -> bool:
    """Type/range check one numeric field; True when usable."""
    if integer and not (isinstance(value, int) and not isinstance(value, bool)):
        check.add(path, f"expected an integer, got {value!r}")
        return False
    if not integer and not _is_number(value):
        check.add(path, f"expected a number, got {value!r}")
        return False
    if not math.isfinite(value):
        check.add(path, f"must be finite, got {value!r}")
        return False
    if lo is not None and (value <= lo if lo_open else value < lo):
        op = ">" if lo_open else ">="
        check.add(path, f"must be {op} {lo:g}, got {value!r}")
        return False
    if hi is not None and (value >= hi if hi_open else value > hi):
        op = "<" if hi_open else "<="
        check.add(path, f"must be {op} {hi:g}, got {value!r}")
        return False
    return True


def _check_scalar(check: _Check, path: str, key: str, value: Any,
                  kwargs: dict[str, Any]) -> bool:
    """Check one field against its :data:`_SCALAR_FIELDS` rule; keep it if valid."""
    rule = _SCALAR_FIELDS[key]
    if isinstance(rule, tuple):
        if not isinstance(value, str) or value not in rule:
            check.add(_join(path, key), f"must be one of {list(rule)}, got {value!r}")
            return False
    elif not _check_number(check, _join(path, key), value, **rule):
        return False
    elif not rule.get("integer"):
        value = float(value)
    kwargs[key] = value
    return True


def _schema_scenario(check: _Check, raw: Any, path: str) -> dict[str, Any] | None:
    """Schema-check one scenario mapping; return normalized kwargs."""
    if not isinstance(raw, dict):
        check.add(path, f"scenario must be a mapping, got {type(raw).__name__}")
        return None
    before = len(check.issues)
    kwargs: dict[str, Any] = {}
    for key in raw:
        if not isinstance(key, str):
            check.add(path, f"scenario keys must be strings, got {key!r}")
            return None
        if key not in _SCENARIO_FIELDS:
            hint = ""
            close = [f for f in _SCENARIO_FIELDS if f.startswith(key[:3])]
            if close:
                hint = f" (did you mean one of {sorted(close)}?)"
            check.add(_join(path, key), f"unknown scenario field{hint}")

    name = raw.get("name")
    if not isinstance(name, str) or not name or name != name.strip() or "\n" in name:
        check.add(_join(path, "name"),
                  f"scenario name must be a non-empty string without "
                  f"surrounding whitespace, got {name!r}")
    else:
        kwargs["name"] = name

    if "rtt" in raw:
        if _check_scalar(check, path, "rtt", raw["rtt"], kwargs):
            kwargs["cloud_rtt_ms"] = RTT_PRESETS[raw["rtt"]]
            kwargs["edge_rtt_ms"] = 1.0
        if "cloud_rtt_ms" in raw or "edge_rtt_ms" in raw:
            check.add(_join(path, "rtt"),
                      "give either a named rtt preset or explicit "
                      "cloud_rtt_ms/edge_rtt_ms, not both")
    elif "cloud_rtt_ms" in raw or "edge_rtt_ms" in raw:
        kwargs["rtt"] = None
        if "cloud_rtt_ms" not in raw:
            check.add(_join(path, "cloud_rtt_ms"),
                      "cloud_rtt_ms is required with explicit RTTs")

    for key in _SCALAR_FIELDS:
        # A preset settles the whole RTT group (checked just above).
        if key not in raw or ("rtt" in raw and key in ("rtt", "cloud_rtt_ms", "edge_rtt_ms")):
            continue
        if raw[key] is not None or key not in _NULLABLE:
            _check_scalar(check, path, key, raw[key], kwargs)

    if "failures" in raw:
        windows = raw["failures"]
        if not isinstance(windows, list):
            check.add(_join(path, "failures"),
                      f"expected a list of outage windows, got {type(windows).__name__}")
        else:
            parsed: list[OutageSpec] = []
            for i, win in enumerate(windows):
                wpath = f"{_join(path, 'failures')}[{i}]"
                if not isinstance(win, dict):
                    check.add(wpath, "outage window must be a mapping "
                                     "{start, duration, sites?}")
                    continue
                unknown = sorted(set(win) - {"start", "duration", "sites"})
                for key in unknown:
                    check.add(_join(wpath, str(key)), "unknown outage-window field")
                ok = _check_number(check, _join(wpath, "start"), win.get("start"), lo=0.0)
                ok &= _check_number(check, _join(wpath, "duration"),
                                    win.get("duration"), lo=0.0, lo_open=True)
                site_sel: tuple[int, ...] | None = None
                if "sites" in win:
                    sel = win["sites"]
                    if (not isinstance(sel, list) or not sel
                            or not all(isinstance(s, int) and not isinstance(s, bool)
                                       and s >= 0 for s in sel)):
                        check.add(_join(wpath, "sites"),
                                  f"must be a non-empty list of site indices, got {sel!r}")
                        ok = False
                    else:
                        site_sel = tuple(sel)
                if ok:
                    parsed.append(OutageSpec(float(win["start"]),
                                             float(win["duration"]), site_sel))
            kwargs["failures"] = tuple(parsed)

    if len(check.issues) > before:
        return None
    return kwargs


def _semantic_scenario(spec: ScenarioSpec, check: _Check, path: str) -> None:
    """Cross-field checks for one scenario (collected, not raised)."""
    if spec.rate_per_site is not None and spec.utilization is not None:
        check.add(path, "give rate_per_site or utilization, not both")
    rho = spec.implied_utilization
    if spec.rate_per_site is not None and rho >= 1.0 and not spec.bounded:
        check.add(
            _join(path, "rate_per_site"),
            f"rate {spec.rate_per_site:g} req/s/site implies utilization "
            f"{rho:.2f} >= 1 with an unbounded FIFO queue — the scenario "
            "diverges; lower the rate or bound it (queue_capacity, "
            "admission, codel, or a resilience deadline)",
        )
    if spec.resilience != "none" and spec.client_timeout >= spec.deadline:
        check.add(
            _join(path, "client_timeout"),
            f"per-attempt timeout {spec.client_timeout:g}s must be below the "
            f"operation deadline {spec.deadline:g}s",
        )
    # Outage windows: inside the run, valid site indices, disjoint per
    # site — the same contract FailureInjector.schedule_outage enforces,
    # surfaced at validation time with field paths.
    per_site: dict[int, list[tuple[float, float, int]]] = {}
    for i, win in enumerate(spec.failures):
        wpath = f"{_join(path, 'failures')}[{i}]"
        if win.start >= spec.duration:
            check.add(_join(wpath, "start"),
                      f"outage starts at {win.start:g}s, at or past the run "
                      f"duration {spec.duration:g}s — it would never be injected")
            continue
        targets = win.sites if win.sites is not None else tuple(range(spec.sites))
        for s in targets:
            if s >= spec.sites:
                check.add(_join(wpath, "sites"),
                          f"site index {s} out of range (scenario has "
                          f"{spec.sites} sites)")
                continue
            for s0, e0, j in per_site.get(s, ()):
                if win.start <= e0 and s0 <= win.end:
                    check.add(
                        wpath,
                        f"outage window [{win.start:g}, {win.end:g}) overlaps "
                        f"window [{s0:g}, {e0:g}) (failures[{j}]) on site "
                        f"{s}; windows per site must be disjoint",
                    )
            per_site.setdefault(s, []).append((win.start, win.end, i))


# ---------------------------------------------------------------------------
# Matrix expansion
# ---------------------------------------------------------------------------

def _fmt_axis_value(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def _expand_matrix_block(block: Any, index: int, check: _Check,
                         path: str) -> list[dict[str, Any]]:
    """Cross-multiply one matrix block into raw scenario mappings."""
    if not isinstance(block, dict):
        check.add(path, f"matrix block must be a mapping, got {type(block).__name__}")
        return []
    unknown = sorted(set(block) - {"name", "axes", "base"})
    for key in unknown:
        check.add(_join(path, str(key)), "unknown matrix-block field "
                                         "(expected name/axes/base)")
    name = block.get("name", f"matrix{index}")
    if not isinstance(name, str) or not name:
        check.add(_join(path, "name"), f"block name must be a non-empty string, got {name!r}")
        return []
    axes = block.get("axes")
    if not isinstance(axes, dict) or not axes:
        check.add(_join(path, "axes"), "matrix block needs a non-empty "
                                       "`axes` mapping of field -> value list")
        return []
    base = block.get("base", {})
    if not isinstance(base, dict):
        check.add(_join(path, "base"), f"base must be a mapping, got {type(base).__name__}")
        return []
    # Axes expand in declaration order (mapping insertion order is the
    # document order — rule RPR010 keeps unordered collections out of
    # this path), first axis outermost: row-major, reproducibly.
    axis_items: list[tuple[str, list[Any]]] = []
    for axis, values in axes.items():
        apath = _join(_join(path, "axes"), str(axis))
        if axis not in _SCALAR_FIELDS or axis == "seed":
            check.add(apath, f"axis must name a scalar scenario field, got {axis!r}")
            return []
        if not isinstance(values, list) or not values:
            check.add(apath, f"axis values must be a non-empty list, got {values!r}")
            return []
        for v in values:
            if isinstance(v, (dict, list)):
                check.add(apath, f"axis values must be scalars, got {v!r}")
                return []
        axis_items.append((axis, values))

    combos: list[dict[str, Any]] = [{}]
    for axis, values in axis_items:
        combos = [combo | {axis: v} for combo in combos for v in values]
    out = []
    for combo in combos:
        label = ",".join(f"{a}={_fmt_axis_value(combo[a])}" for a, _ in axis_items)
        out.append(dict(base) | combo | {"name": f"{name}/{label}"})
    return out


# ---------------------------------------------------------------------------
# Campaign compilation
# ---------------------------------------------------------------------------

_CAMPAIGN_KEYS = {"campaign", "description", "seed", "defaults", "scenarios",
                  "matrix", "budgets", "golden"}

#: Largest allowed expansion — a typo'd axis list should fail, not OOM.
MAX_SCENARIOS = 10_000


def compile_campaign(
    data: Any,
    *,
    lines: dict[str, int] | None = None,
    source: str = "<campaign>",
) -> CampaignSpec:
    """Validate and expand a parsed campaign document.

    Raises :class:`CampaignValidationError` with ``kind="schema"`` for
    structural problems and ``kind="semantic"`` for campaign-level
    semantic ones (duplicate names, empty expansion).  Per-scenario
    semantic issues do **not** raise — they are recorded on
    :attr:`CampaignSpec.scenario_issues` so the runner can quarantine
    just those scenarios; call :meth:`CampaignSpec.require_valid` for
    the fail-fast contract.
    """
    check = _Check(lines)
    if not isinstance(data, dict):
        check.add("", f"campaign document must be a mapping, got {type(data).__name__}")
        check.raise_if_any("schema", source)
    for key in data:
        if key not in _CAMPAIGN_KEYS:
            check.add(str(key), "unknown campaign field")

    name = data.get("campaign")
    if not isinstance(name, str) or not name:
        check.add("campaign", f"campaign name must be a non-empty string, got {name!r}")
        name = "<invalid>"
    description = data.get("description", "")
    if not isinstance(description, str):
        check.add("description", f"must be a string, got {description!r}")
        description = ""
    seed = data.get("seed", 2021)
    if not (isinstance(seed, int) and not isinstance(seed, bool)) or seed < 0:
        check.add("seed", f"must be an integer >= 0, got {seed!r}")
        seed = 2021

    budgets = BudgetSpec()
    if "budgets" in data:
        braw = data["budgets"]
        if not isinstance(braw, dict):
            check.add("budgets", f"must be a mapping, got {type(braw).__name__}")
        else:
            for key in sorted(set(braw) - {"timeout", "max_events", "retries"}):
                check.add(_join("budgets", str(key)), "unknown budget field")
            kw: dict[str, Any] = {}
            if braw.get("timeout") is not None and _check_number(
                    check, "budgets.timeout", braw["timeout"], lo=0.0, lo_open=True):
                kw["timeout"] = float(braw["timeout"])
            if braw.get("max_events") is not None and _check_number(
                    check, "budgets.max_events", braw["max_events"], lo=1, integer=True):
                kw["max_events"] = braw["max_events"]
            if "retries" in braw and _check_number(
                    check, "budgets.retries", braw["retries"], lo=0, integer=True):
                kw["retries"] = braw["retries"]
            budgets = BudgetSpec(**kw)

    tolerance = GoldenTolerance()
    if "golden" in data:
        graw = data["golden"]
        if not isinstance(graw, dict):
            check.add("golden", f"must be a mapping, got {type(graw).__name__}")
        else:
            for key in sorted(set(graw) - {"rtol", "atol"}):
                check.add(_join("golden", str(key)), "unknown golden field")
            kw = {}
            if "rtol" in graw and _check_number(check, "golden.rtol", graw["rtol"], lo=0.0):
                kw["rtol"] = float(graw["rtol"])
            if "atol" in graw and _check_number(check, "golden.atol", graw["atol"], lo=0.0):
                kw["atol"] = float(graw["atol"])
            tolerance = GoldenTolerance(**kw)

    defaults = data.get("defaults", {})
    if not isinstance(defaults, dict):
        check.add("defaults", f"must be a mapping, got {type(defaults).__name__}")
        defaults = {}
    elif "name" in defaults:
        check.add("defaults.name", "defaults cannot set the scenario name")
        defaults = {k: v for k, v in defaults.items() if k != "name"}

    raw_scenarios: list[tuple[dict[str, Any] | Any, str]] = []
    explicit = data.get("scenarios", [])
    if not isinstance(explicit, list):
        check.add("scenarios", f"must be a list, got {type(explicit).__name__}")
    else:
        for i, raw in enumerate(explicit):
            raw_scenarios.append((raw, f"scenarios[{i}]"))

    matrix = data.get("matrix", [])
    if isinstance(matrix, dict):
        matrix = [matrix]
    if not isinstance(matrix, list):
        check.add("matrix", f"must be a mapping or list of mappings, "
                            f"got {type(matrix).__name__}")
        matrix = []
    for i, block in enumerate(matrix):
        for generated in _expand_matrix_block(block, i, check, f"matrix[{i}]"):
            raw_scenarios.append((generated, f"matrix[{i}]"))

    if len(raw_scenarios) > MAX_SCENARIOS:
        check.add("matrix", f"expansion produced {len(raw_scenarios)} scenarios "
                            f"(cap {MAX_SCENARIOS}); split the campaign")
    if "scenarios" not in data and not matrix:
        check.add("", "campaign has neither `scenarios` nor `matrix`")
    check.raise_if_any("schema", source)

    specs: list[ScenarioSpec] = []
    for raw, spath in raw_scenarios:
        merged = (dict(defaults) | raw) if isinstance(raw, dict) else raw
        kwargs = _schema_scenario(check, merged, spath)
        if kwargs is not None:
            specs.append(ScenarioSpec(**kwargs))
    check.raise_if_any("schema", source)

    # Campaign-level semantics: names must be unique (they key golden
    # summaries, quarantine records and seed derivation).
    seen: dict[str, str] = {}
    for spec, (_, spath) in zip(specs, raw_scenarios, strict=True):
        if spec.name in seen:
            check.add(_join(spath, "name"),
                      f"duplicate scenario name {spec.name!r} "
                      f"(first defined at {seen[spec.name]})")
        else:
            seen[spec.name] = spath
    if not specs:
        check.add("", "campaign expands to zero scenarios")
    check.raise_if_any("semantic", source)

    # Per-scenario semantics: collected per name so the runner can
    # quarantine precisely; the default load seeds scenarios too.
    issue_groups: list[tuple[str, tuple[ValidationIssue, ...]]] = []
    resolved: list[ScenarioSpec] = []
    for spec, (_, spath) in zip(specs, raw_scenarios, strict=True):
        local = _Check(lines)
        _semantic_scenario(spec, local, spath)
        if local.issues:
            issue_groups.append((spec.name, tuple(local.issues)))
        if spec.seed is None:
            spec = replace(spec, seed=scenario_seed(seed, spec.name))
        resolved.append(spec)

    return CampaignSpec(
        name=name,
        seed=seed,
        description=description,
        budgets=budgets,
        tolerance=tolerance,
        scenarios=tuple(resolved),
        scenario_issues=tuple(issue_groups),
        source=source,
    )


def dump_campaign(spec: CampaignSpec) -> dict[str, Any]:
    """Canonical JSON-safe document for a compiled campaign.

    The dump is fully expanded (matrix blocks become explicit
    scenarios, seeds resolved), so ``compile_campaign(dump_campaign(c))``
    reproduces the same scenarios in the same order with bit-identical
    seeds — the round-trip property the regression tests pin.
    """
    doc: dict[str, Any] = {"campaign": spec.name, "seed": spec.seed}
    if spec.description:
        doc["description"] = spec.description
    if spec.budgets != BudgetSpec():
        b: dict[str, Any] = {}
        if spec.budgets.timeout is not None:
            b["timeout"] = spec.budgets.timeout
        if spec.budgets.max_events is not None:
            b["max_events"] = spec.budgets.max_events
        if spec.budgets.retries != 1:
            b["retries"] = spec.budgets.retries
        doc["budgets"] = b
    if spec.tolerance != GoldenTolerance():
        doc["golden"] = {"rtol": spec.tolerance.rtol, "atol": spec.tolerance.atol}
    doc["scenarios"] = [s.to_mapping() for s in spec.scenarios]
    return doc
