"""The project-specific rule pack (``RPR001`` … ``RPR011``).

Each rule encodes one invariant the reproduction's results rest on but
no generic linter knows about — determinism of the simulation substrate,
the seconds-only unit convention, the small protocols
(``observables()``, ``run_tasks`` picklability) that PRs 2–4
introduced, and the crash-durability contract of the journaled run
store (PR 6).  Rationale and worked examples for every rule live in
``docs/static_analysis.md``; suppress a deliberate exception with
``# repro: noqa[RPRnnn]  -- reason`` on the flagged line.

Scoping: determinism rules apply to the packages whose code runs inside
a seeded simulation (``repro.sim``, ``repro.parallel``,
``repro.queueing``); protocol and unit rules apply everywhere the pass
is pointed (``src`` and ``tests`` in CI).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.engine import FileContext, Finding, Rule, rule

__all__ = ["DETERMINISM_PACKAGES", "SIM_PACKAGES", "RULE_PACK_VERSION"]

#: Bumped whenever any rule's behaviour changes (new rule, changed
#: heuristic, reworded message).  The incremental cache keys cached
#: per-file results on this, so a pack change invalidates every entry
#: instead of replaying findings from an older pack.
RULE_PACK_VERSION = 2

#: Packages whose code executes inside a seeded simulation: any hidden
#: entropy here silently invalidates every figure.
DETERMINISM_PACKAGES = ("repro.sim", "repro.parallel", "repro.queueing")

#: The simulator's event hot paths (rule RPR007/RPR008 scope).
#: ``repro.core`` joined when the comparator grew engine selection —
#: its measure/sweep path now feeds seeded workloads to both engines,
#: so unstable iteration there would skew results just like in the
#: simulator proper.
SIM_PACKAGES = ("repro.sim", "repro.core")

#: Suffixes that mark a name as seconds-valued by project convention
#: (DESIGN.md §6: all times in SI seconds; ``*_ms`` names are the only
#: sanctioned millisecond carriers and must be converted at the edge).
_SECONDS_SUFFIXES = ("latency", "rtt", "deadline")

#: Magnitude above which a literal assigned to a seconds field is almost
#: certainly a millisecond value (no simulated latency is 1000+ s).
_MS_MAGNITUDE = 1e3


def _terminal_name(node: ast.AST) -> str | None:
    """``foo`` for ``foo``, ``bar`` for ``a.b.bar``; None otherwise."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _root_name(node: ast.AST) -> str | None:
    """``a`` for ``a.b.c`` / ``a``; None for non-name chains."""
    while isinstance(node, ast.Attribute):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _dotted(node: ast.AST) -> str | None:
    """Full dotted path of a Name/Attribute chain, or None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@rule
class WallClockRule(Rule):
    """RPR001: no wall-clock or global-RNG entropy in simulation code.

    ``time.time()``, ``datetime.now()``, the ``random`` module's global
    generator and numpy's legacy ``np.random.*`` functions all read
    process state outside the simulation's seeded streams; a single call
    inside :mod:`repro.sim` / :mod:`repro.parallel` /
    :mod:`repro.queueing` breaks bit-identical replay.  Unseeded
    ``np.random.default_rng()`` is flagged everywhere — fresh OS entropy
    is only legitimate through ``seed_sequence(None)``, which documents
    the irreproducibility at the call site.
    """

    code = "RPR001"
    summary = "wall-clock or global-RNG call in deterministic simulation code"

    _WALL_CLOCK = {
        "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns",
    }
    _DATETIME = {"datetime.now", "datetime.utcnow", "datetime.today", "date.today"}
    _NP_RANDOM_OK = {
        "default_rng", "Generator", "SeedSequence", "BitGenerator",
        "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
    }

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        scoped = ctx.in_package(*DETERMINISM_PACKAGES)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and scoped and node.module == "random":
                yield self.finding(
                    ctx, node,
                    "import from the global `random` module; use a seeded "
                    "numpy Generator (Simulation.spawn_rng or repro.parallel.seeding)",
                )
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if dotted is None:
                continue
            if scoped and dotted in self._WALL_CLOCK:
                yield self.finding(
                    ctx, node,
                    f"wall-clock call {dotted}() in simulation code; virtual "
                    "time comes from Simulation.now",
                )
            elif scoped and dotted in self._DATETIME:
                yield self.finding(
                    ctx, node,
                    f"wall-clock call {dotted}() in simulation code breaks "
                    "reproducibility",
                )
            elif scoped and _root_name(node.func) == "random" and "." not in dotted[7:]:
                # random.<anything>(...) — the stdlib global generator.
                yield self.finding(
                    ctx, node,
                    f"global-RNG call {dotted}(); all randomness must flow "
                    "through a seeded numpy Generator",
                )
            elif scoped and dotted.startswith(("np.random.", "numpy.random.")):
                leaf = dotted.rsplit(".", 1)[1]
                if leaf not in self._NP_RANDOM_OK:
                    yield self.finding(
                        ctx, node,
                        f"legacy global numpy RNG call {dotted}(); use a "
                        "seeded Generator stream",
                    )
            if (
                _terminal_name(node.func) == "default_rng"
                and not node.args
                and not node.keywords
            ):
                yield self.finding(
                    ctx, node,
                    "unseeded default_rng() draws OS entropy; derive the "
                    "stream via repro.parallel.seeding (or pass an explicit "
                    "seed_sequence(None) to document irreproducibility)",
                )


@rule
class SeedArithmeticRule(Rule):
    """RPR002: derive child seeds via ``repro.parallel.seeding``, never
    integer arithmetic.

    ``base + i`` / ``base + 1000 * i`` seed spacing collides across
    experiments that believe they are independent (see the
    ``repro.parallel.seeding`` module docstring for the failure mode PR 4
    fixed in the comparator).  Every derivation must go through
    ``derive_seed`` / ``derive_seedseq`` / ``spawn_child``, which hash a
    spawn key instead of offsetting entropy.
    """

    code = "RPR002"
    summary = "integer arithmetic on a seed (use repro.parallel.seeding)"

    _ARITH = (ast.Add, ast.Sub, ast.Mult, ast.FloorDiv, ast.Mod, ast.BitXor, ast.LShift)

    def _mentions_seed(self, node: ast.AST) -> bool:
        for sub in ast.walk(node):
            name = _terminal_name(sub)
            if name is not None and "seed" in name.lower():
                return True
        return False

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.module.startswith("repro.parallel.seeding"):
            return  # the derivation module itself hashes entropy legitimately
        inner: set[ast.AST] = set()
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.BinOp) and isinstance(node.op, self._ARITH)):
                continue
            if node in inner:
                continue  # already covered by an enclosing flagged expression
            if self._mentions_seed(node.left) or self._mentions_seed(node.right):
                inner.update(
                    sub for sub in ast.walk(node) if isinstance(sub, ast.BinOp)
                )
                yield self.finding(
                    ctx, node,
                    "integer arithmetic on a seed; derive child streams with "
                    "repro.parallel.seeding.derive_seed(base, *path) instead",
                )


@rule
class MillisecondSmellRule(Rule):
    """RPR003: suspected millisecond value flowing into a seconds field.

    The whole codebase is seconds-only (DESIGN.md §6); millisecond
    quantities live exclusively in ``*_ms``-suffixed names and are
    converted once at the boundary (``Scenario.delta_n``,
    ``ConstantLatency.from_ms``).  Two smells are flagged: a numeric
    literal ≥ 1e3 assigned to a ``*_latency`` / ``*_rtt`` /
    ``*_deadline`` name (no simulated latency is 1000+ seconds), and a
    ``*_ms`` name assigned to a seconds-suffixed name without visible
    conversion.
    """

    code = "RPR003"
    summary = "suspected millisecond value assigned to a seconds-only field"

    def _seconds_named(self, name: str | None) -> bool:
        if name is None or name.endswith("_ms"):
            return False
        return any(
            name == suffix or name.endswith("_" + suffix) for suffix in _SECONDS_SUFFIXES
        )

    def _suspect(self, value: ast.AST) -> str | None:
        """Reason the value looks millisecond-flavoured, or None."""
        if isinstance(value, ast.Constant) and isinstance(value.value, (int, float)):
            if not isinstance(value.value, bool) and abs(value.value) >= _MS_MAGNITUDE:
                return f"literal {value.value!r} >= 1e3"
        name = _terminal_name(value)
        if name is not None and name.endswith("_ms"):
            return f"millisecond-named value {name!r}"
        return None

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            pairs: list[tuple[str | None, ast.AST, ast.AST]] = []
            if isinstance(node, ast.Assign):
                pairs = [(_terminal_name(t), node.value, t) for t in node.targets]
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                pairs = [(_terminal_name(node.target), node.value, node.target)]
            elif isinstance(node, ast.Call):
                pairs = [
                    (kw.arg, kw.value, kw.value) for kw in node.keywords if kw.arg
                ]
            for name, value, anchor in pairs:
                if not self._seconds_named(name):
                    continue
                reason = self._suspect(value)
                if reason is not None:
                    yield self.finding(
                        ctx, anchor,
                        f"{reason} assigned to seconds-only field {name!r}; "
                        "convert at the boundary (x_ms / 1000.0) — the "
                        "codebase is seconds-only (DESIGN.md §6)",
                    )


@rule
class ObservablesProtocolRule(Rule):
    """RPR004: ``observables()`` must return ``{str: callable}``.

    The telemetry registry (``Telemetry.register_observables``) turns
    each entry into a pull-model gauge named ``<prefix>.<key>``, so keys
    must be string literals and values zero-argument callables.  A
    non-dict return or a non-callable value would surface only at
    snapshot time, deep inside an experiment run.
    """

    code = "RPR004"
    summary = "observables() must be a method returning {str: callable}"

    _CALLABLE_NODES = (ast.Lambda, ast.Name, ast.Attribute, ast.Call)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if (
                    isinstance(item, (ast.Assign, ast.AnnAssign))
                    and any(
                        _terminal_name(t) == "observables"
                        for t in (
                            item.targets
                            if isinstance(item, ast.Assign)
                            else [item.target]
                        )
                    )
                ):
                    yield self.finding(
                        ctx, item,
                        f"class {node.name}: observables must be a method, "
                        "not an attribute (the registry calls it)",
                    )
                if not isinstance(item, ast.FunctionDef) or item.name != "observables":
                    continue
                args = item.args
                required = len(args.args) - len(args.defaults)
                if required != 1 or args.posonlyargs or args.kwonlyargs:
                    yield self.finding(
                        ctx, item,
                        f"class {node.name}: observables() is called with no "
                        "arguments by the telemetry registry; it must take "
                        "only self",
                    )
                yield from self._check_returns(ctx, node.name, item)

    def _check_returns(
        self, ctx: FileContext, cls: str, fn: ast.FunctionDef
    ) -> Iterator[Finding]:
        for node in ast.walk(fn):
            if not isinstance(node, ast.Return) or node.value is None:
                continue
            value = node.value
            if isinstance(value, ast.Dict):
                for key, val in zip(value.keys, value.values, strict=True):
                    if key is None or not (
                        isinstance(key, ast.Constant) and isinstance(key.value, str)
                    ):
                        yield self.finding(
                            ctx, key or value,
                            f"class {cls}: observables() keys must be string "
                            "literals (they become gauge names)",
                        )
                    if isinstance(val, ast.Constant):
                        yield self.finding(
                            ctx, val,
                            f"class {cls}: observables() values must be "
                            "zero-argument callables, not constants — wrap "
                            "in a lambda",
                        )
            elif isinstance(value, (ast.Constant, ast.List, ast.Tuple, ast.Set)):
                yield self.finding(
                    ctx, value,
                    f"class {cls}: observables() must return a dict of "
                    "gauge readers, got a non-dict expression",
                )


@rule
class RunTasksPicklableRule(Rule):
    """RPR005: callables handed to ``run_tasks`` must be module-level.

    Lambdas and nested functions don't pickle, so
    :func:`repro.parallel.run_tasks` silently falls back to serial
    execution (with a warning) — the parallel sweep the caller asked for
    never happens.  Catch it at lint time instead.
    """

    code = "RPR005"
    summary = "non-picklable callable passed to run_tasks (lambda/nested def)"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        nested_defs = self._nested_function_names(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if _terminal_name(node.func) != "run_tasks" or not node.args:
                continue
            fn_arg = node.args[0]
            if isinstance(fn_arg, ast.Lambda):
                yield self.finding(
                    ctx, fn_arg,
                    "lambda passed to run_tasks cannot pickle; parallel "
                    "fan-out silently degrades to serial — use a "
                    "module-level function",
                )
            elif isinstance(fn_arg, ast.Name) and fn_arg.id in nested_defs:
                yield self.finding(
                    ctx, fn_arg,
                    f"nested function {fn_arg.id!r} passed to run_tasks "
                    "cannot pickle; hoist it to module level",
                )

    @staticmethod
    def _nested_function_names(tree: ast.Module) -> set[str]:
        """Names of functions defined inside another function."""
        nested: set[str] = set()

        def walk(node: ast.AST, inside_function: bool) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if inside_function:
                        nested.add(child.name)
                    walk(child, True)
                elif isinstance(child, ast.ClassDef):
                    walk(child, False)  # methods are module-reachable
                else:
                    walk(child, inside_function)

        walk(tree, False)
        return nested


@rule
class MutableDefaultRule(Rule):
    """RPR006: no mutable default arguments in :mod:`repro`.

    The classic shared-state trap, but worse here: a mutable default on
    a simulation component is shared across *runs*, so the second
    replication of an experiment starts from the first one's state and
    determinism quietly dies.
    """

    code = "RPR006"
    summary = "mutable default argument"

    _MUTABLE_CALLS = {"list", "dict", "set", "defaultdict", "deque", "bytearray"}

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_package("repro"):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if isinstance(default, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                                        ast.DictComp, ast.SetComp)):
                    yield self.finding(
                        ctx, default,
                        f"mutable default in {node.name}(); default to None "
                        "and create the container in the body",
                    )
                elif (
                    isinstance(default, ast.Call)
                    and _terminal_name(default.func) in self._MUTABLE_CALLS
                ):
                    yield self.finding(
                        ctx, default,
                        f"mutable default {_terminal_name(default.func)}() in "
                        f"{node.name}(); default to None and create the "
                        "container in the body",
                    )


@rule
class SetIterationRule(Rule):
    """RPR007: no iteration over sets in simulator hot paths.

    Set iteration order depends on insertion history and string hash
    randomization (``PYTHONHASHSEED``), so a loop over a set inside
    :mod:`repro.sim` can reorder event scheduling between processes —
    the exact cross-process nondeterminism the parallel substrate
    promises away.  Iterate lists/tuples, or wrap in ``sorted(...)``.
    """

    code = "RPR007"
    summary = "iteration over a set in a simulation hot path (order is unstable)"

    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and _terminal_name(node.func) in ("set", "frozenset")
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_package(*SIM_PACKAGES):
            return
        for node in ast.walk(ctx.tree):
            iters: list[ast.AST] = []
            if isinstance(node, ast.For):
                iters = [node.iter]
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters = [gen.iter for gen in node.generators]
            for it in iters:
                if self._is_set_expr(it):
                    yield self.finding(
                        ctx, it,
                        "iterating a set in simulation code: order varies "
                        "with hashing; use a list/tuple or sorted(...)",
                    )


@rule
class VirtualTimeMutationRule(Rule):
    """RPR008: only the engine advances ``Simulation.now``.

    An event handler that writes ``sim.now`` directly desynchronizes the
    clock from the event calendar — later events appear to run in the
    past and every time-integral (utilization, queue length) silently
    corrupts.  Schedule a callback instead; the runtime invariant
    checker (``REPRO_CHECK=1``) enforces the same contract dynamically.
    """

    code = "RPR008"
    summary = "direct assignment to Simulation.now outside the engine"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.module == "repro.sim.engine":
            return  # the engine's dispatch loop is the one legitimate writer
        for node in ast.walk(ctx.tree):
            targets: list[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                if isinstance(target, ast.Attribute) and target.attr == "now":
                    yield self.finding(
                        ctx, target,
                        "direct write to .now: virtual time may only advance "
                        "through the event calendar (Simulation.schedule)",
                    )


@rule
class AtomicStoreWriteRule(Rule):
    """RPR009: journal files are written only through ``fsync_append``.

    The crash-safety proof of :mod:`repro.experiments.store` rests on a
    single property: every journal mutation is one ``\\n``-terminated
    line issued as a single ``os.write`` followed by ``os.fsync``, so a
    crash leaves at most one truncated *final* line.  A buffered
    ``open(path, "w")`` / ``Path.write_text`` sneaking into the store
    module silently voids that guarantee — the data may sit in a user-
    space buffer (or worse, truncate the file) when the process dies.
    Raw ``os.open``/``os.write`` are exempt: they are what
    ``fsync_append`` itself is built from.
    """

    code = "RPR009"
    summary = "buffered write path in the journaled run store (use fsync_append)"

    _WRITE_METHODS = {"write_text", "write_bytes"}
    _WRITE_MODE_CHARS = set("wax+")

    def _open_mode(self, node: ast.Call) -> str | None:
        """The literal mode string of an ``open`` call, if determinable."""
        for kw in node.keywords:
            if kw.arg == "mode":
                if isinstance(kw.value, ast.Constant) and isinstance(kw.value.value, str):
                    return kw.value.value
                return None  # dynamic mode: can't tell
        if len(node.args) >= 2:
            arg = node.args[1]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                return arg.value
            return None
        return "r"  # open(path) defaults to read

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_package("repro.experiments.store"):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if dotted in ("open", "io.open", "builtins.open"):
                mode = self._open_mode(node)
                if mode is not None and not self._WRITE_MODE_CHARS.isdisjoint(mode):
                    yield self.finding(
                        ctx, node,
                        f"buffered open(..., {mode!r}) in the run store; "
                        "journal writes must go through fsync_append "
                        "(single os.write + os.fsync) to stay crash-safe",
                    )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in self._WRITE_METHODS
            ):
                yield self.finding(
                    ctx, node,
                    f".{node.func.attr}() in the run store rewrites the "
                    "whole file non-durably; append records through "
                    "fsync_append instead",
                )


@rule
class CampaignLoaderSafetyRule(Rule):
    """RPR010: campaign loading is safe and expansion order-stable.

    Campaign files are untrusted repo inputs that get cross-multiplied
    into hundreds of seeded scenarios, so the loading path carries two
    invariants at once.  *Safety*: YAML must go through the safe loader
    (``yaml.load``/``compose`` without an explicit ``SafeLoader`` — or
    via ``full_load``/``unsafe_load``/``FullLoader`` — can construct
    arbitrary Python objects from document tags), and ``eval``/``exec``/
    ``pickle.loads``/``marshal.loads`` have no business near scenario
    text.  *Determinism*: matrix expansion and scenario ordering must
    not iterate unordered collections — a set-driven expansion reorders
    scenarios (and their name-derived seeds' positions) with
    ``PYTHONHASHSEED``, breaking the order-stability the round-trip
    tests pin.
    """

    code = "RPR010"
    summary = "unsafe loader or unstable iteration in campaign scenario code"

    _YAML_NEEDS_LOADER = {"load", "load_all", "compose", "compose_all", "parse"}
    _YAML_ALWAYS_UNSAFE = {"full_load", "full_load_all", "unsafe_load", "unsafe_load_all"}
    _SAFE_LOADERS = {"SafeLoader", "CSafeLoader", "BaseLoader", "CBaseLoader"}
    _EVAL_LIKE = {"eval", "exec"}
    _UNPICKLERS = {"pickle", "cPickle", "marshal"}

    def _loader_arg(self, node: ast.Call) -> ast.AST | None:
        for kw in node.keywords:
            if kw.arg == "Loader":
                return kw.value
        if len(node.args) >= 2:
            return node.args[1]
        return None

    def _is_yaml_module(self, node: ast.AST) -> bool:
        root = _root_name(node)
        return root is not None and "yaml" in root.lower()

    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and _terminal_name(node.func) in ("set", "frozenset")
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_package("repro.campaign"):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(ctx, node)
                continue
            iters: list[ast.AST] = []
            if isinstance(node, ast.For):
                iters = [node.iter]
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters = [gen.iter for gen in node.generators]
            for it in iters:
                if self._is_set_expr(it):
                    yield self.finding(
                        ctx, it,
                        "iterating a set while loading/expanding scenarios: "
                        "order varies with hashing, so expansion (and seed "
                        "positions) would differ between runs; iterate a "
                        "list/tuple or sorted(...)",
                    )

    def _check_call(self, ctx: FileContext, node: ast.Call) -> Iterator[Finding]:
        terminal = _terminal_name(node.func)
        dotted = _dotted(node.func)
        if terminal in self._YAML_ALWAYS_UNSAFE and self._is_yaml_module(node.func):
            yield self.finding(
                ctx, node,
                f"yaml.{terminal} constructs arbitrary Python objects from "
                "document tags; campaign files must be read with the safe "
                "loader (yaml.safe_load or Loader=yaml.SafeLoader)",
            )
        elif terminal in self._YAML_NEEDS_LOADER and self._is_yaml_module(node.func):
            loader = self._loader_arg(node)
            loader_name = None if loader is None else _terminal_name(loader)
            if loader_name not in self._SAFE_LOADERS:
                yield self.finding(
                    ctx, node,
                    f"yaml.{terminal} without an explicit SafeLoader: pass "
                    "Loader=yaml.SafeLoader (or use yaml.safe_load) so "
                    "campaign files can never construct Python objects",
                )
        elif dotted in self._EVAL_LIKE:
            yield self.finding(
                ctx, node,
                f"{dotted}() in campaign-loading code executes scenario "
                "text; parse it declaratively instead",
            )
        elif (
            terminal == "loads"
            and (_root_name(node.func) or "") in self._UNPICKLERS
        ):
            yield self.finding(
                ctx, node,
                f"{_dotted(node.func)} deserializes arbitrary objects from "
                "campaign input; scenario files are JSON/YAML data only",
            )


@rule
class ResultSerializationRule(Rule):
    """RPR011: result objects reach JSON only through the wire schema.

    The unified envelope (:mod:`repro.experiments.schema`) is the single
    place that knows the public field names, ``schema_version`` stamping
    and the forward-compat policy.  A ``json.dumps(result.as_dict())``
    (or ``to_dict`` / ``salvage_report`` / ``golden_summary``) elsewhere
    in :mod:`repro` bypasses that contract: the document it writes
    drifts from the one the service, the golden differ and the CLI
    agree on the moment the schema evolves.  Serialize through
    ``repro.experiments.schema.dumps``/``dump`` instead.
    """

    code = "RPR011"
    summary = "raw json.dumps of a result object outside repro.experiments.schema"

    _RESULT_PRODUCERS = {"as_dict", "to_dict", "salvage_report", "golden_summary"}
    _JSON_WRITERS = {"json.dumps", "json.dump"}

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_package("repro") or ctx.in_package("repro.experiments.schema"):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if _dotted(node.func) not in self._JSON_WRITERS or not node.args:
                continue
            payload = node.args[0]
            if not isinstance(payload, ast.Call):
                continue
            producer = _terminal_name(payload.func)
            if producer in self._RESULT_PRODUCERS:
                yield self.finding(
                    ctx, node,
                    f"json.{_terminal_name(node.func)} of {producer}() "
                    "bypasses the versioned wire schema; serialize result "
                    "objects through repro.experiments.schema.dumps/dump so "
                    "every consumer shares one envelope",
                )


@rule
class ExactTimeEqualityRule(Rule):
    """RPR012: exact float equality between time-valued quantities.

    Virtual time is accumulated floating-point arithmetic: two paths to
    "the same instant" (``(a + b) + c`` vs ``a + (b + c)``) can
    differ in the last ulp, so ``==`` / ``!=`` between
    time-valued expressions encodes a comparison that is true on one
    platform and false on another.  Compare with a tolerance
    (``math.isclose``/``abs(a - b) < eps``) or, where the engine
    guarantees bit-identical replay *by construction*, suppress with a
    reason.  Sentinel comparisons (``0``, ``0.0``, ``inf``, ``None``)
    are exempt: they test "unset/empty", not simultaneity.
    """

    code = "RPR012"
    summary = "exact ==/!= between time-valued floats (use a tolerance)"

    #: Names that denote the simulation clock or a point on it.
    _TIME_NAMES = {"now", "t", "vtime", "sim_time", "timestamp", "clock"}

    #: A name with one of these suffixes is seconds-valued by the
    #: project convention (DESIGN.md §6) or names an instant.
    _TIME_SUFFIXES = (
        "latency", "rtt", "deadline", "time", "now", "_s", "_sec", "_seconds",
    )

    def _time_valued(self, node: ast.AST) -> bool:
        name = _terminal_name(node)
        if name is None:
            return False
        low = name.lower()
        return low in self._TIME_NAMES or low.endswith(self._TIME_SUFFIXES)

    def _sentinel(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Constant):
            v = node.value
            if v is None or isinstance(v, bool):
                return True
            return isinstance(v, (int, float)) and (v == 0 or v != v or v in (
                float("inf"), float("-inf")))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return self._sentinel(node.operand)
        if isinstance(node, ast.Call) and _terminal_name(node.func) == "float":
            return True  # float("inf") / float("nan") sentinels
        if _dotted(node) in ("math.inf", "math.nan", "np.inf", "numpy.inf"):
            return True
        return False

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_package("repro"):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare) or len(node.ops) != 1:
                continue
            if not isinstance(node.ops[0], (ast.Eq, ast.NotEq)):
                continue
            left, right = node.left, node.comparators[0]
            if self._sentinel(left) or self._sentinel(right):
                continue
            lt, rt = self._time_valued(left), self._time_valued(right)
            literal = isinstance(left, ast.Constant) or isinstance(right, ast.Constant)
            if (lt and rt) or ((lt or rt) and literal):
                op = "==" if isinstance(node.ops[0], ast.Eq) else "!="
                yield self.finding(
                    ctx, node,
                    f"exact {op} between time-valued floats: virtual time is "
                    "accumulated floating-point, so last-ulp differences make "
                    "this comparison platform-dependent; use math.isclose or "
                    "an explicit tolerance",
                )


@rule
class ExceptionSwallowRule(Rule):
    """RPR013: broad exception handlers that silently discard the error.

    In the supervision and service layers an ``except Exception: pass``
    (or ``continue`` / bare ``return``) erases the only evidence of a
    crashed worker or a failed request: the campaign "succeeds" with a
    hole in its results.  Handlers must record the failure (re-raise,
    return an error value, append to a report) — the supervised-pool
    contract is that *no worker death is silent*.  Deliberate drops
    (e.g. best-effort cleanup) carry a suppression with the reason.
    """

    code = "RPR013"
    summary = "broad except handler swallows the exception (pass/continue/bare return)"

    _BROAD = {"Exception", "BaseException"}

    def _is_broad(self, handler: ast.ExceptHandler) -> bool:
        t = handler.type
        if t is None:
            return True  # bare except
        if isinstance(t, ast.Tuple):
            return any(_terminal_name(e) in self._BROAD for e in t.elts)
        return _terminal_name(t) in self._BROAD

    def _swallows(self, handler: ast.ExceptHandler) -> bool:
        body = handler.body
        # A leading string literal (comment-by-docstring) doesn't count
        # as handling the error.
        if body and isinstance(body[0], ast.Expr) and isinstance(
            body[0].value, ast.Constant
        ):
            body = body[1:]
        if not body:
            return True
        for stmt in body:
            if isinstance(stmt, (ast.Pass, ast.Continue, ast.Break)):
                continue
            if isinstance(stmt, ast.Return) and (
                stmt.value is None
                or (isinstance(stmt.value, ast.Constant) and stmt.value.value is None)
            ):
                continue
            return False
        return True

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_package("repro.parallel.supervise", "repro.service"):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if self._is_broad(node) and self._swallows(node):
                shape = "bare except" if node.type is None else "except Exception"
                yield self.finding(
                    ctx, node,
                    f"{shape} handler discards the error without recording "
                    "it; a crashed worker or failed request becomes a silent "
                    "hole in the results — re-raise, return an error value, "
                    "or log to the run report",
                )
